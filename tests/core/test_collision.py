"""Tests for BGK and regularized collision operators."""

import numpy as np
import pytest

from repro.core import (
    BGKCollision,
    RegularizedBGKCollision,
    equilibrium,
    macroscopic,
    tau_from_viscosity,
    viscosity_from_tau,
)
from repro.errors import LatticeError


class TestViscosityRelation:
    def test_roundtrip(self):
        for tau in (0.6, 1.0, 1.7):
            nu = viscosity_from_tau(tau, 1 / 3)
            assert tau_from_viscosity(nu, 1 / 3) == pytest.approx(tau)

    def test_tau_half_gives_zero_viscosity(self):
        assert viscosity_from_tau(0.5, 2 / 3) == 0.0

    def test_operator_property(self, q39):
        op = BGKCollision(q39, tau=0.9)
        assert op.viscosity == pytest.approx((2 / 3) * 0.4)
        assert op.omega == pytest.approx(1 / 0.9)


class TestBGK:
    def test_tau_validation(self, q19):
        with pytest.raises(LatticeError, match="tau"):
            BGKCollision(q19, tau=0.5)

    def test_conserves_mass_and_momentum(self, paper_lattice, make_random_state, small_shape):
        lat = paper_lattice
        rho, u = make_random_state(lat, small_shape)
        f = equilibrium(lat, rho, u)
        f += 0.001 * np.random.default_rng(1).standard_normal(f.shape)
        rho0, u0 = macroscopic(lat, f)
        mom0 = rho0[None] * u0
        op = BGKCollision(lat, tau=0.8)
        out = op.apply(f.copy())
        rho1, u1 = macroscopic(lat, out)
        assert np.allclose(rho1, rho0, rtol=0, atol=1e-13)
        assert np.allclose(rho1[None] * u1, mom0, rtol=0, atol=1e-13)

    def test_equilibrium_is_fixed_point(self, paper_lattice, make_random_state, small_shape):
        lat = paper_lattice
        rho, u = make_random_state(lat, small_shape)
        feq = equilibrium(lat, rho, u)
        op = BGKCollision(lat, tau=0.7)
        out = op.apply(feq.copy())
        assert np.allclose(out, feq, rtol=0, atol=1e-13)

    def test_tau_one_jumps_to_equilibrium(self, q19, make_random_state, small_shape):
        rho, u = make_random_state(q19, small_shape)
        f = equilibrium(q19, rho, u)
        f += 1e-4 * np.random.default_rng(2).standard_normal(f.shape)
        op = BGKCollision(q19, tau=1.0)
        out = op.apply(f.copy())
        rho1, u1 = macroscopic(q19, out)
        feq = equilibrium(q19, rho1, u1)
        assert np.allclose(out, feq, rtol=0, atol=1e-12)

    def test_relaxation_rate(self, q19):
        """Non-equilibrium part shrinks by exactly (1 - omega) per collision."""
        rho = np.ones((3, 3, 3))
        u = np.zeros((3, 3, 3, 3))
        feq = equilibrium(q19, rho, u)
        # perturbation with zero mass/momentum: a symmetric stress mode
        pert = np.zeros_like(feq)
        c = q19.velocities
        mode = (c[:, 0] ** 2 - c[:, 1] ** 2).astype(float)
        pert += 1e-5 * mode[:, None, None, None]
        f = feq + pert
        op = BGKCollision(q19, tau=0.8)
        out = op.apply(f.copy())
        nonzero = np.abs(pert) > 0
        shrink = (out - feq)[nonzero] / pert[nonzero]
        assert np.allclose(shrink, 1.0 - op.omega, rtol=0, atol=1e-6)

    def test_out_parameter(self, q19, make_random_state, small_shape):
        rho, u = make_random_state(q19, small_shape)
        f = equilibrium(q19, rho, u)
        dst = np.empty_like(f)
        op = BGKCollision(q19, tau=0.9)
        result = op.apply(f, out=dst)
        assert result is dst


class TestRegularized:
    def test_tau_validation(self, q39):
        with pytest.raises(LatticeError):
            RegularizedBGKCollision(q39, tau=0.4)

    def test_conserves_mass_and_momentum(self, paper_lattice, make_random_state, small_shape):
        lat = paper_lattice
        rho, u = make_random_state(lat, small_shape)
        f = equilibrium(lat, rho, u)
        f += 1e-4 * np.random.default_rng(3).standard_normal(f.shape)
        rho0, u0 = macroscopic(lat, f)
        op = RegularizedBGKCollision(lat, tau=0.8)
        out = op.apply(f.copy())
        rho1, u1 = macroscopic(lat, out)
        assert np.allclose(rho1, rho0, rtol=0, atol=1e-12)
        assert np.allclose(rho1[None] * u1, rho0[None] * u0, rtol=0, atol=1e-12)

    def test_equilibrium_fixed_point(self, q39, make_random_state, small_shape):
        rho, u = make_random_state(q39, small_shape)
        feq = equilibrium(q39, rho, u)
        op = RegularizedBGKCollision(q39, tau=0.9)
        out = op.apply(feq.copy())
        assert np.allclose(out, feq, rtol=0, atol=1e-12)

    def test_matches_bgk_for_pure_stress_perturbation(self, q19):
        """A perturbation living entirely in H2 relaxes identically."""
        rho = np.ones((2, 2, 2))
        u = np.zeros((3, 2, 2, 2))
        feq = equilibrium(q19, rho, u)
        c = q19.velocities
        w = q19.weights
        cs2 = q19.cs2_float
        mode = w * (c[:, 0] * c[:, 1]).astype(float) / cs2**2  # w H2_xy / cs4
        f = feq + 1e-5 * mode[:, None, None, None]
        bgk = BGKCollision(q19, tau=0.8).apply(f.copy())
        reg = RegularizedBGKCollision(q19, tau=0.8).apply(f.copy())
        assert np.allclose(bgk, reg, rtol=0, atol=1e-12)

    def test_filters_ghost_modes(self, q19):
        """Perturbations outside the Hermite space are removed entirely."""
        rho = np.ones((2, 2, 2))
        u = np.zeros((3, 2, 2, 2))
        feq = equilibrium(q19, rho, u)
        rng = np.random.default_rng(4)
        noise = 1e-5 * rng.standard_normal(feq.shape)
        # remove mass/momentum/stress projections? simpler: regularized
        # output must lie in span{feq modes}: applying it twice with
        # tau -> equal second application (idempotent filtering).
        op = RegularizedBGKCollision(q19, tau=1e9)
        once = op.apply((feq + noise).copy())
        twice = op.apply(once.copy())
        assert np.allclose(once, twice, rtol=0, atol=1e-12)
