"""Tests for the per-rank phase profiler."""

import numpy as np
import pytest

from repro.core import Simulation, shear_wave
from repro.parallel import DistributedSimulation, PhaseProfiler


@pytest.fixture
def dist():
    d = DistributedSimulation("D3Q19", (24, 6, 6), tau=0.8, num_ranks=3, ghost_depth=2)
    rho, u = shear_wave((24, 6, 6))
    d.initialize(rho, u)
    return d


class TestProfiler:
    def test_physics_unchanged(self, dist):
        ref = Simulation("D3Q19", (24, 6, 6), tau=0.8, kernel="planned")
        rho, u = shear_wave((24, 6, 6))
        ref.initialize(rho, u)
        ref.run(8)
        profiler = PhaseProfiler(dist)
        profiler.run(8)
        assert np.allclose(dist.gather(), ref.f, rtol=0, atol=1e-13)

    def test_phases_accumulate(self, dist):
        profile = PhaseProfiler(dist).run(6)
        assert profile.steps == 6
        assert (profile.seconds["stream"] > 0).all()
        assert (profile.seconds["collide"] > 0).all()
        assert profile.seconds["exchange"].sum() > 0
        assert profile.total_seconds > 0

    def test_summary_triplet(self, dist):
        profile = PhaseProfiler(dist).run(4)
        mn, med, mx = profile.summary("stream")
        assert mn <= med <= mx

    def test_comm_fraction_bounded(self, dist):
        profile = PhaseProfiler(dist).run(4)
        assert 0 < profile.comm_fraction() < 1

    def test_exchange_period_respected(self, dist):
        profiler = PhaseProfiler(dist)
        profiler.run(6)
        # depth 2 -> 3 exchanges in 6 steps
        assert dist.exchange_count == 3
