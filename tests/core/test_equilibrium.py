"""Tests for the Hermite equilibria (paper Eqs. 2-3)."""

import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import Simulation, equilibrium, equilibrium_order_for
from repro.errors import LatticeError
from repro.lattice import get_lattice


class TestOrderResolution:
    def test_native_orders(self, q19, q39):
        assert equilibrium_order_for(q19, None) == 2
        assert equilibrium_order_for(q39, None) == 3

    def test_explicit_order_within_support(self, q39):
        assert equilibrium_order_for(q39, 2) == 2

    def test_third_order_on_d3q19_rejected(self, q19):
        # the reason the paper needs D3Q39 at all
        with pytest.raises(LatticeError, match="higher-isotropy"):
            equilibrium_order_for(q19, 3)

    def test_out_of_range_order(self, q39):
        with pytest.raises(LatticeError):
            equilibrium_order_for(q39, 0)
        with pytest.raises(LatticeError):
            equilibrium_order_for(q39, 4)


class TestConservation:
    """feq must carry exactly the density and momentum it was built from."""

    @pytest.mark.parametrize("order", [1, 2])
    def test_mass_all_lattices(self, lattice, order, make_random_state, small_shape):
        rho, u = make_random_state(lattice, small_shape)
        feq = equilibrium(lattice, rho, u, order=order)
        assert np.allclose(feq.sum(axis=0), rho, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("order", [1, 2])
    def test_momentum_all_lattices(self, lattice, order, make_random_state, small_shape):
        rho, u = make_random_state(lattice, small_shape)
        feq = equilibrium(lattice, rho, u, order=order)
        c = lattice.velocities.astype(float)
        mom = np.tensordot(c.T, feq, axes=([1], [0]))
        assert np.allclose(mom, rho[None] * u, rtol=0, atol=1e-14)

    def test_third_order_conserves_on_d3q39(self, q39, make_random_state, small_shape):
        rho, u = make_random_state(q39, small_shape)
        feq = equilibrium(q39, rho, u, order=3)
        c = q39.velocities.astype(float)
        assert np.allclose(feq.sum(axis=0), rho, rtol=0, atol=1e-14)
        mom = np.tensordot(c.T, feq, axes=([1], [0]))
        assert np.allclose(mom, rho[None] * u, rtol=0, atol=1e-14)

    def test_second_moment_matches_ideal_gas(self, paper_lattice, make_random_state, small_shape):
        """Pi^eq_ab = rho cs2 delta_ab + rho u_a u_b at order >= 2."""
        lat = paper_lattice
        rho, u = make_random_state(lat, small_shape, amplitude=0.01)
        feq = equilibrium(lat, rho, u)
        c = lat.velocities.astype(float)
        pi = np.einsum("qa,qb,q...->ab...", c, c, feq)
        expected = lat.cs2_float * rho * np.eye(3)[:, :, None, None, None]
        expected = expected + rho[None, None] * np.einsum("a...,b...->ab...", u, u)
        assert np.allclose(pi, expected, rtol=0, atol=1e-12)


class TestPointwiseFormula:
    """Vectorized equilibrium equals the scalar textbook formula."""

    def test_against_scalar_evaluation(self, q39):
        rho = np.array([[[1.05]]])
        u = np.array([0.03, -0.02, 0.01]).reshape(3, 1, 1, 1)
        feq = equilibrium(q39, rho, u, order=3)
        cs2 = q39.cs2_float
        u2 = float((u[0] ** 2 + u[1] ** 2 + u[2] ** 2).item())
        for i in range(q39.q):
            cu = float(np.dot(q39.velocities[i], u[:, 0, 0, 0]))
            expected = (
                q39.weights[i]
                * 1.05
                * (
                    1.0
                    + cu / cs2
                    + 0.5 * (cu / cs2) ** 2
                    - 0.5 * u2 / cs2
                    + cu / (6 * cs2**2) * (cu**2 / cs2 - 3 * u2)
                )
            )
            assert feq[i, 0, 0, 0] == pytest.approx(expected, rel=1e-14)

    def test_zero_velocity_gives_weights(self, lattice):
        feq = equilibrium(lattice, np.ones((2, 2, 2)), np.zeros((3, 2, 2, 2)))
        for i in range(lattice.q):
            assert np.allclose(feq[i], lattice.weights[i])

    def test_positive_at_moderate_mach(self, paper_lattice):
        rho = np.ones((2, 2, 2))
        u = np.full((3, 2, 2, 2), 0.05)
        feq = equilibrium(paper_lattice, rho, u)
        assert (feq > 0).all()


class TestBuffersAndErrors:
    def test_out_buffer_reused(self, q19):
        rho = np.ones((3, 3, 3))
        u = np.zeros((3, 3, 3, 3))
        out = np.empty((19, 3, 3, 3))
        result = equilibrium(q19, rho, u, out=out)
        assert result is out

    def test_wrong_velocity_dim_raises(self, q19):
        with pytest.raises(LatticeError, match="leading dim"):
            equilibrium(q19, np.ones((3, 3, 3)), np.zeros((2, 3, 3, 3)))

    def test_galilean_shift_order2_error_is_cubic(self, q19):
        """Order-2 truncation error grows as u^3 (sanity on truncation)."""
        rho = np.ones((1, 1, 1))
        errs = []
        for mag in (0.02, 0.04):
            u = np.full((3, 1, 1, 1), mag)
            feq2 = equilibrium(q19, rho, u, order=2)
            feq1 = equilibrium(q19, rho, u, order=1)
            errs.append(np.abs(feq2 - feq1).max())
        # second-order term scales ~u^2: ratio ~4 for 2x velocity
        assert errs[1] / errs[0] == pytest.approx(4.0, rel=0.1)


def _expression_form(lattice, rho, u, order, dtype, out=None):
    """The equilibrium as one expression per term (a fresh temporary per
    operation): the oracle the in-place evaluation must match byte for
    byte."""
    rho = np.asarray(rho, dtype=dtype)
    u = np.asarray(u, dtype=dtype)
    cs2 = lattice.cs2_float
    c = lattice.velocities_as(dtype)
    w = lattice.weights_as(dtype)
    cu = np.tensordot(c, u, axes=([1], [0]))
    u2 = np.einsum("a...,a...->...", u, u)
    spatial_shape = cu.shape[1:]
    expand = (slice(None),) + (None,) * len(spatial_shape)
    term = 1.0 + cu / cs2
    if order >= 2:
        term += 0.5 * (cu / cs2) ** 2 - 0.5 * (u2 / cs2)
    if order >= 3:
        term += cu / (6.0 * cs2 * cs2) * ((cu * cu) / cs2 - 3.0 * u2)
    if out is None:
        out = np.empty((lattice.q, *spatial_shape), dtype=dtype)
    np.multiply(w[expand], term, out=out)
    out *= rho[None]
    return out


@st.composite
def _equilibrium_inputs(draw):
    from repro.lattice import get_lattice

    lattice = get_lattice(draw(st.sampled_from(["D3Q15", "D3Q19", "D3Q27", "D3Q39"])))
    order = draw(st.integers(1, lattice.equilibrium_order))
    dtype = np.dtype(draw(st.sampled_from(["float64", "float32"])))
    shape = draw(
        st.sampled_from([(), (1,), (7,), (1, 1, 1), (2, 3, 1), (5, 4, 3), (16, 7, 2)])
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    speed = draw(st.sampled_from([1e-3, 0.05, 0.3]))
    rho = 1.0 + 0.05 * rng.standard_normal(shape)
    u = speed * rng.standard_normal((3, *shape))
    return lattice, order, dtype, rho, u


class TestInPlaceEvaluation:
    """The in-place series writes the expression form's exact bytes."""

    @given(inputs=_equilibrium_inputs(), use_out=st.booleans(), use_work=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_bytes_match_expression_form(self, inputs, use_out, use_work):
        lattice, order, dtype, rho, u = inputs
        expected = _expression_form(lattice, rho, u, order, dtype)
        work = np.full_like(expected, np.nan) if use_work else None
        if use_out:
            out = np.full_like(expected, np.nan)
            got = equilibrium(lattice, rho, u, order=order, out=out, work=work)
            assert got is out
        else:
            got = equilibrium(lattice, rho, u, order=order, dtype=dtype, work=work)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize(
        "lname,order",
        [
            (lname, order)
            for lname in ("D3Q15", "D3Q19", "D3Q27", "D3Q39")
            for order in range(1, get_lattice(lname).equilibrium_order + 1)
        ],
    )
    def test_every_cell_matches_the_tensordot_form(self, lname, order, dtype):
        """Every lattice x order x dtype, with and without ``out`` and
        ``work``: below third order ``c . u`` is computed into the work
        buffer by ``np.dot``, the product ``np.tensordot`` computes, at
        element offsets 0-3 of that buffer, and the bytes do not move."""
        lattice, dtype = get_lattice(lname), np.dtype(dtype)
        rng = np.random.default_rng(17)
        shape = (9, 5, 7)
        rho = 1.0 + 0.05 * rng.standard_normal(shape)
        u = 0.05 * rng.standard_normal((3, *shape))
        expected = _expression_form(lattice, rho, u, order, dtype).tobytes()
        size = lattice.q * int(np.prod(shape))
        for use_out in (False, True):
            for offset in (None, 0, 1, 2, 3):
                work = None
                if offset is not None:
                    raw = np.full(size + offset, np.nan, dtype=dtype)
                    work = raw[offset:].reshape(lattice.q, *shape)
                out = np.full((lattice.q, *shape), np.nan, dtype) if use_out else None
                got = equilibrium(
                    lattice, rho, u, order=order, out=out, dtype=dtype, work=work
                )
                assert got.tobytes() == expected, (use_out, offset)

    def test_initialize_allocates_no_population_array(self):
        """``Simulation.initialize`` evaluates the equilibrium into the
        field with the advection array as work: below third order it
        allocates nothing field-sized (``c . u`` lands in the work).  A
        ``(Q, N)`` transient alone would reach ``f.nbytes``; what is left
        are a few ``(N,)`` and ``(D, N)`` ones."""
        shape = (16, 16, 8)
        rho = np.ones(shape)
        u = 0.01 * np.ones((3, *shape))
        for lattice in ("D3Q15", "D3Q19", "D3Q27"):
            sim = Simulation(lattice, shape, tau=0.8)
            sim.initialize(rho, u)
            expected = sim.f.copy()
            tracemalloc.start()
            sim.initialize(rho, u)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert peak < sim.f.nbytes // 2, (lattice, peak, sim.f.nbytes)
            assert sim.f.tobytes() == expected.tobytes()

    def test_mismatched_work_buffer_rejected(self, q19):
        rho = np.ones((3, 3, 3))
        u = np.zeros((3, 3, 3, 3))
        with pytest.raises(LatticeError, match="work must be"):
            equilibrium(q19, rho, u, work=np.empty((19, 3, 3, 3), dtype=np.float32))
        with pytest.raises(LatticeError, match="work must be"):
            equilibrium(q19, rho, u, work=np.empty((19, 3, 3)))
        with pytest.raises(LatticeError, match="C-contiguous"):
            equilibrium(q19, rho, u, work=np.empty((19, 3, 3, 6))[..., ::2])

    def test_inputs_left_untouched(self, q39):
        rng = np.random.default_rng(3)
        rho = 1.0 + 0.01 * rng.standard_normal((4, 3, 2))
        u = 0.05 * rng.standard_normal((3, 4, 3, 2))
        rho0, u0 = rho.copy(), u.copy()
        equilibrium(q39, rho, u)
        assert rho.tobytes() == rho0.tobytes() and u.tobytes() == u0.tobytes()

    def test_casting_out_matches_expression_form(self, q39):
        """An ``out`` of another dtype than the one evaluated in still
        receives the evaluated dtype's values, cast once at the end."""
        rng = np.random.default_rng(5)
        rho = 1.0 + 0.01 * rng.standard_normal((3, 3, 3))
        u = 0.05 * rng.standard_normal((3, 3, 3, 3))
        out = np.empty((39, 3, 3, 3), dtype=np.float32)
        expected = _expression_form(
            q39, rho, u, 3, np.dtype(np.float64), out=np.empty_like(out)
        )
        equilibrium(q39, rho, u, out=out, dtype="float64")
        assert out.tobytes() == expected.tobytes()
