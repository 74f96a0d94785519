"""Property-based tests: the distributed solver equals the planned single
domain bit for bit for *any* valid (shape, ranks, depth, schedule)
configuration."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core import Simulation, shear_wave
from repro.parallel import DistributedSimulation, ExchangeSchedule


@st.composite
def distributed_configs(draw):
    lname = draw(st.sampled_from(["D3Q19", "D3Q39"]))
    k = 1 if lname == "D3Q19" else 3
    ranks = draw(st.integers(1, 4))
    depth = draw(st.integers(1, 3))
    # every rank needs at least depth*k planes
    min_nx = ranks * depth * k
    nx = draw(st.integers(min_nx, min_nx + 12))
    ny = draw(st.integers(3, 5))
    nz = draw(st.integers(3, 5))
    steps = draw(st.integers(1, 7))
    schedule = draw(st.sampled_from(list(ExchangeSchedule)))
    return lname, (nx, ny, nz), ranks, depth, steps, schedule


@given(cfg=distributed_configs())
@settings(max_examples=25, deadline=None)
def test_distributed_always_matches_reference(cfg):
    lname, shape, ranks, depth, steps, schedule = cfg
    ref = Simulation(lname, shape, tau=0.8, kernel="planned")
    rho, u = shear_wave(shape, amplitude=1e-3)
    ref.initialize(rho, u)
    ref.run(steps)

    dist = DistributedSimulation(
        lname, shape, tau=0.8, num_ranks=ranks, ghost_depth=depth, schedule=schedule
    )
    dist.initialize(rho, u)
    dist.run(steps)
    assert np.array_equal(dist.gather(), ref.f)


@given(cfg=distributed_configs())
@settings(max_examples=15, deadline=None)
def test_mass_conserved_distributed(cfg):
    lname, shape, ranks, depth, steps, schedule = cfg
    dist = DistributedSimulation(
        lname, shape, tau=0.9, num_ranks=ranks, ghost_depth=depth, schedule=schedule
    )
    rho, u = shear_wave(shape, amplitude=1e-3)
    dist.initialize(rho, u)
    m0 = dist.gather().sum()
    dist.run(steps)
    assert dist.gather().sum() == np.float64(m0) or abs(
        dist.gather().sum() - m0
    ) < 1e-9 * abs(m0)
