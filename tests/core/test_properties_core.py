"""Property-based tests on core solver invariants."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core import (
    BGKCollision,
    HermiteMRTCollision,
    RegularizedBGKCollision,
    equilibrium,
    macroscopic,
    stream_periodic,
)
from repro.lattice import get_lattice

LATTICES = ("D3Q19", "D3Q39")


@st.composite
def random_states(draw):
    lname = draw(st.sampled_from(LATTICES))
    lat = get_lattice(lname)
    nx = draw(st.integers(3, 6))
    ny = draw(st.integers(3, 6))
    nz = draw(st.integers(3, 6))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.05 * rng.standard_normal((nx, ny, nz))
    u = 0.03 * rng.standard_normal((3, nx, ny, nz))
    f = equilibrium(lat, rho, u)
    f += 1e-3 * rng.standard_normal(f.shape) * f  # relative perturbation
    return lat, f


@given(state=random_states(), tau=st.floats(0.51, 2.0))
@settings(max_examples=30, deadline=None)
def test_bgk_conserves_for_any_state(state, tau):
    lat, f = state
    rho0, u0 = macroscopic(lat, f)
    out = BGKCollision(lat, tau=tau).apply(f.copy())
    rho1, u1 = macroscopic(lat, out)
    assert np.allclose(rho1, rho0, rtol=1e-12)
    assert np.allclose(rho1[None] * u1, rho0[None] * u0, rtol=0, atol=1e-12)


@given(state=random_states(), tau=st.floats(0.55, 1.8))
@settings(max_examples=20, deadline=None)
def test_all_collision_operators_agree_on_conservation(state, tau):
    lat, f = state
    rho0, _ = macroscopic(lat, f)
    for op in (
        BGKCollision(lat, tau=tau),
        RegularizedBGKCollision(lat, tau=tau),
        HermiteMRTCollision(lat, tau_shear=tau, tau_bulk=1.5 * tau),
    ):
        out = op.apply(f.copy())
        assert np.allclose(out.sum(axis=0), rho0, rtol=1e-12)


@given(state=random_states())
@settings(max_examples=20, deadline=None)
def test_streaming_permutes_each_population(state):
    lat, f = state
    out = stream_periodic(lat, f)
    for i in range(lat.q):
        assert np.isclose(out[i].sum(), f[i].sum(), rtol=1e-13)
        assert np.isclose(np.abs(out[i]).max(), np.abs(f[i]).max(), rtol=1e-13)


@given(
    state=random_states(),
    tau=st.floats(0.55, 1.5),
    steps=st.integers(1, 4),
)
@settings(max_examples=15, deadline=None)
def test_stream_collide_cycle_conserves(state, tau, steps):
    lat, f = state
    op = BGKCollision(lat, tau=tau)
    mass0 = f.sum()
    cur = f
    for _ in range(steps):
        cur = op.apply(stream_periodic(lat, cur))
    assert np.isclose(cur.sum(), mass0, rtol=1e-12)


@given(
    kn=st.floats(0.001, 2.0),
    length=st.integers(4, 256),
    lname=st.sampled_from(LATTICES),
)
def test_knudsen_tau_roundtrip_property(kn, length, lname):
    from repro.core import knudsen_number, tau_for_knudsen

    cs2 = get_lattice(lname).cs2_float
    tau = tau_for_knudsen(kn, length, cs2)
    assert tau > 0.5
    assert np.isclose(knudsen_number(tau, length, cs2), kn, rtol=1e-12)
