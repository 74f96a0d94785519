"""Tests for the Hermite-space MRT collision operator."""

import numpy as np
import pytest

from repro.core import (
    HermiteMRTCollision,
    RegularizedBGKCollision,
    Simulation,
    equilibrium,
    macroscopic,
    shear_wave,
)
from repro.errors import LatticeError


class TestValidation:
    def test_tau_shear(self, q19):
        with pytest.raises(LatticeError, match="tau_shear"):
            HermiteMRTCollision(q19, tau_shear=0.5)

    def test_tau_bulk(self, q19):
        with pytest.raises(LatticeError, match="tau_bulk"):
            HermiteMRTCollision(q19, tau_shear=0.8, tau_bulk=0.4)

    def test_tau_third(self, q39):
        with pytest.raises(LatticeError, match="tau_third"):
            HermiteMRTCollision(q39, tau_shear=0.8, tau_third=0.3)

    def test_defaults(self, q39):
        op = HermiteMRTCollision(q39, tau_shear=0.8)
        assert op.tau_bulk == 0.8
        assert op.tau_third == 1.0


class TestPhysics:
    def test_reduces_to_regularized_at_equal_rates(self, paper_lattice, make_random_state, small_shape):
        lat = paper_lattice
        rho, u = make_random_state(lat, small_shape)
        f = equilibrium(lat, rho, u)
        f += 1e-4 * np.random.default_rng(5).standard_normal(f.shape)
        mrt = HermiteMRTCollision(lat, tau_shear=0.8, tau_bulk=0.8, tau_third=0.8)
        reg = RegularizedBGKCollision(lat, tau=0.8)
        assert np.allclose(mrt.apply(f.copy()), reg.apply(f.copy()), rtol=0, atol=1e-13)

    def test_conserves_mass_and_momentum(self, paper_lattice, make_random_state, small_shape):
        lat = paper_lattice
        rho, u = make_random_state(lat, small_shape)
        f = equilibrium(lat, rho, u)
        f += 1e-4 * np.random.default_rng(6).standard_normal(f.shape)
        rho0, u0 = macroscopic(lat, f)
        op = HermiteMRTCollision(lat, tau_shear=0.7, tau_bulk=1.4, tau_third=0.9)
        out = op.apply(f.copy())
        rho1, u1 = macroscopic(lat, out)
        assert np.allclose(rho1, rho0, rtol=0, atol=1e-12)
        assert np.allclose(rho1[None] * u1, rho0[None] * u0, rtol=0, atol=1e-12)

    def test_equilibrium_fixed_point(self, q39, make_random_state, small_shape):
        rho, u = make_random_state(q39, small_shape)
        feq = equilibrium(q39, rho, u)
        op = HermiteMRTCollision(q39, tau_shear=0.9, tau_bulk=2.0)
        assert np.allclose(op.apply(feq.copy()), feq, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lname", ["D3Q19", "D3Q39"])
    def test_shear_viscosity_set_by_tau_shear_only(self, lname):
        """Changing bulk/third rates must not move the shear viscosity."""
        shape = (32, 6, 6)
        amps = []
        for tau_bulk, tau_third in ((0.8, 1.0), (1.6, 0.8)):
            sim = Simulation(
                lname,
                shape,
                collision=HermiteMRTCollision(
                    __import__("repro.lattice", fromlist=["get_lattice"]).get_lattice(lname),
                    tau_shear=0.8,
                    tau_bulk=tau_bulk,
                    tau_third=tau_third,
                ),
            )
            rho, u = shear_wave(shape, amplitude=1e-4)
            sim.initialize(rho, u)
            sim.run(120)
            _, uu = macroscopic(sim.lattice, sim.f)
            amps.append(np.abs(uu[1]).max())
        nu = sim.lattice.cs2_float * 0.3
        k = 2 * np.pi / 32
        expected = 1e-4 * np.exp(-nu * k * k * 120)
        for amp in amps:
            assert amp == pytest.approx(expected, rel=0.02)

    def test_bulk_viscosity_property(self, q19):
        op = HermiteMRTCollision(q19, tau_shear=0.8, tau_bulk=1.1)
        assert op.bulk_viscosity == pytest.approx((2 / 3) * (1 / 3) * 0.6)
        assert op.viscosity == pytest.approx((1 / 3) * 0.3)

    def test_higher_bulk_tau_damps_sound_faster(self, q19):
        """Larger tau_bulk = larger bulk viscosity = stronger damping of
        acoustic (density) disturbances, with shear physics untouched."""
        import numpy as np
        from repro.core import density_pulse

        shape = (32, 4, 4)
        residuals = []
        for tau_bulk in (0.6, 2.5):
            sim = Simulation(
                q19,
                shape,
                collision=HermiteMRTCollision(q19, tau_shear=0.6, tau_bulk=tau_bulk),
            )
            rho, u = density_pulse(shape, amplitude=1e-3)
            sim.initialize(rho, u)
            sim.run(150)
            rho_out, _ = macroscopic(q19, sim.f)
            residuals.append(float(np.abs(rho_out - rho_out.mean()).max()))
        assert residuals[1] < 0.5 * residuals[0]
