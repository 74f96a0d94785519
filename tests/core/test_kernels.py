"""Cross-validation of the interchangeable stream+collide kernels."""

import numpy as np
import pytest

from repro.core import NaiveKernel, PlannedKernel, RollKernel, equilibrium
from repro.lattice import get_lattice


def _initial_state(lattice, shape, seed=7):
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.02 * rng.standard_normal(shape)
    u = 0.02 * rng.standard_normal((3, *shape))
    return equilibrium(lattice, rho, u) + 1e-4 * rng.standard_normal(
        (lattice.q, *shape)
    )


class TestKernelEquivalence:
    @pytest.mark.parametrize("lname", ["D3Q19", "D3Q39"])
    def test_roll_equals_naive(self, lname):
        """The vectorized kernel reproduces the paper's Fig. 3/4
        pseudocode (transcribed literally) to machine precision."""
        lat = get_lattice(lname)
        shape = (5, 4, 3)
        f = _initial_state(lat, shape)
        naive = NaiveKernel(lat, tau=0.8).step(f.copy())
        roll = RollKernel(lat, tau=0.8).step(f.copy())
        assert np.allclose(roll, naive, atol=1e-13)

    def test_multi_step_equivalence(self, q19):
        shape = (5, 5, 5)
        f = _initial_state(q19, shape)
        k1, k2 = RollKernel(q19, 0.7), PlannedKernel(q19, 0.7)
        a, b = f.copy(), f.copy()
        for _ in range(5):
            a = k1.step(a)
            b = k2.step(b)
        assert np.allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel_cls", [RollKernel, PlannedKernel])
    def test_kernels_conserve_mass(self, q39, kernel_cls):
        f = _initial_state(q39, (4, 4, 4))
        m0 = f.sum()
        out = kernel_cls(q39, 0.8).step(f.copy())
        assert out.sum() == pytest.approx(m0, rel=1e-13)
