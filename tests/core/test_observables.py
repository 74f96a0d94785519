"""Tests for diagnostic observables."""

import numpy as np
import pytest

from repro.core import (
    Simulation,
    enstrophy,
    equilibrium,
    kinetic_energy,
    mach_number_field,
    max_speed,
    taylor_green,
    total_mass,
    total_momentum,
    uniform_flow,
    velocity_profile,
)


class TestGlobalQuantities:
    def test_total_mass(self, q19):
        f = np.full((19, 2, 2, 2), 0.5)
        assert total_mass(f) == pytest.approx(19 * 8 * 0.5)

    def test_total_momentum_of_uniform_flow(self, q39):
        rho, u = uniform_flow((3, 3, 3), velocity=(0.02, 0.0, -0.01))
        f = equilibrium(q39, rho, u)
        mom = total_momentum(q39, f)
        assert mom[0] == pytest.approx(27 * 0.02)
        assert mom[2] == pytest.approx(-27 * 0.01)

    def test_kinetic_energy_of_uniform_flow(self, q19):
        rho, u = uniform_flow((4, 4, 4), velocity=(0.03, 0.0, 0.0))
        f = equilibrium(q19, rho, u)
        assert kinetic_energy(q19, f) == pytest.approx(0.5 * 64 * 0.03**2)

    def test_max_speed_and_mach(self, q19):
        rho, u = uniform_flow((3, 3, 3), velocity=(0.06, 0.0, 0.0))
        f = equilibrium(q19, rho, u)
        assert max_speed(q19, f) == pytest.approx(0.06, rel=1e-10)
        mach = mach_number_field(q19, f)
        assert mach.max() == pytest.approx(0.06 * np.sqrt(3), rel=1e-10)


class TestEnstrophy:
    def test_zero_for_uniform_flow(self, q19):
        rho, u = uniform_flow((4, 4, 4), velocity=(0.02, 0.01, 0.0))
        f = equilibrium(q19, rho, u)
        assert enstrophy(q19, f) == pytest.approx(0.0, abs=1e-20)

    def test_positive_for_taylor_green(self, q19):
        rho, u = taylor_green((16, 16, 4), u0=1e-3)
        f = equilibrium(q19, rho, u)
        assert enstrophy(q19, f) > 0

    def test_decays_under_viscosity(self):
        shape = (16, 16, 4)
        sim = Simulation("D3Q19", shape, tau=0.8)
        rho, u = taylor_green(shape, u0=1e-3)
        sim.initialize(rho, u)
        w0 = enstrophy(sim.lattice, sim.f)
        sim.run(60)
        assert enstrophy(sim.lattice, sim.f) < w0


class TestVelocityProfile:
    def test_profile_shape_and_averaging(self, q19):
        shape = (4, 9, 5)
        rho = np.ones(shape)
        u = np.zeros((3, *shape))
        u[0] = np.linspace(0, 0.01, 9)[None, :, None]
        f = equilibrium(q19, rho, u)
        profile = velocity_profile(q19, f, flow_axis=0, across_axis=1)
        assert profile.shape == (9,)
        assert np.allclose(profile, np.linspace(0, 0.01, 9), rtol=0, atol=1e-12)
