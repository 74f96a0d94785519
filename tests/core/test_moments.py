"""Tests for macroscopic moment extraction."""

import numpy as np
import pytest

from repro.core import (
    density,
    deviatoric_stress,
    equilibrium,
    heat_flux,
    macroscopic,
    momentum,
    momentum_flux,
    velocity,
)


class TestBasicMoments:
    def test_density_is_population_sum(self, q19, rng):
        f = rng.random((19, 3, 3, 3))
        assert np.allclose(density(f), f.sum(axis=0))

    def test_velocity_of_equilibrium(self, paper_lattice, make_random_state, small_shape):
        lat = paper_lattice
        rho, u = make_random_state(lat, small_shape)
        f = equilibrium(lat, rho, u)
        assert np.allclose(velocity(lat, f), u, rtol=0, atol=1e-13)

    def test_macroscopic_pair(self, q39, make_random_state, small_shape):
        rho, u = make_random_state(q39, small_shape)
        f = equilibrium(q39, rho, u)
        rho1, u1 = macroscopic(q39, f)
        assert np.allclose(rho1, rho, rtol=0, atol=1e-14)
        assert np.allclose(u1, u, rtol=0, atol=1e-13)

    def test_momentum_linear_in_f(self, q19, rng):
        f1 = rng.random((19, 2, 2, 2))
        f2 = rng.random((19, 2, 2, 2))
        m = momentum(q19, f1 + 2 * f2)
        assert np.allclose(m, momentum(q19, f1) + 2 * momentum(q19, f2))


class TestStressAndHeatFlux:
    def test_momentum_flux_symmetric(self, q39, rng):
        f = rng.random((39, 3, 3, 3))
        pi = momentum_flux(q39, f)
        assert np.allclose(pi, np.swapaxes(pi, 0, 1))

    def test_equilibrium_has_zero_deviatoric_stress(self, paper_lattice, make_random_state, small_shape):
        lat = paper_lattice
        rho, u = make_random_state(lat, small_shape, amplitude=0.01)
        f = equilibrium(lat, rho, u)
        sigma = deviatoric_stress(lat, f)
        assert np.abs(sigma).max() < 1e-12

    def test_stress_detects_shear_perturbation(self, q19):
        rho = np.ones((2, 2, 2))
        u = np.zeros((3, 2, 2, 2))
        feq = equilibrium(q19, rho, u)
        c = q19.velocities
        w = q19.weights
        pert = 1e-4 * (w * (c[:, 0] * c[:, 1]).astype(float))[:, None, None, None]
        sigma = deviatoric_stress(q19, feq + pert)
        assert abs(sigma[0, 1]).max() > 1e-7
        # trace components unperturbed
        assert abs(sigma[2, 2]).max() < 1e-12

    def test_heat_flux_zero_at_equilibrium_on_d3q39(self, q39, make_random_state, small_shape):
        """Sixth-order quadrature transports the third moment correctly:
        a third-order equilibrium carries zero heat flux."""
        rho, u = make_random_state(q39, small_shape, amplitude=0.005)
        f = equilibrium(q39, rho, u, order=3)
        q = heat_flux(q39, f)
        assert np.abs(q).max() < 1e-6

    def test_heat_flux_nonzero_for_second_order_on_d3q19(self, q19):
        """D3Q19's truncated equilibrium leaks an O(u^3) heat flux —
        the moment error the paper's extension removes."""
        rho = np.ones((2, 2, 2))
        u = np.full((3, 2, 2, 2), 0.08)
        f = equilibrium(q19, rho, u, order=2)
        q = heat_flux(q19, f)
        assert np.abs(q).max() > 1e-5

    def test_heat_flux_scaling_with_mach(self, q19):
        """The spurious D3Q19 heat flux grows as u^3."""
        vals = []
        for mag in (0.02, 0.04):
            rho = np.ones((2, 2, 2))
            u = np.full((3, 2, 2, 2), mag)
            f = equilibrium(q19, rho, u)
            vals.append(np.abs(heat_flux(q19, f)).max())
        assert vals[1] / vals[0] == pytest.approx(8.0, rel=0.15)
