"""Read-side guarantees: aggregation equals the live profiler on both
kernels, comm bytes reconcile exactly, and the disabled recorder keeps
the hot loops zero-allocation."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.core import Simulation, shear_wave
from repro.parallel import DistributedSimulation, PhaseProfiler
from repro.parallel.instrumentation import PHASES, PhaseProfile
from repro.telemetry import Telemetry, filter_events, format_event, load_run

SHAPE = (24, 6, 6)


def make_dist(kernel=None, telemetry=None):
    dist = DistributedSimulation(
        "D3Q19",
        SHAPE,
        tau=0.8,
        num_ranks=3,
        ghost_depth=2,
        kernel=kernel,
        telemetry=telemetry,
    )
    rho, u = shear_wave(SHAPE)
    dist.initialize(rho, u)
    return dist


class TestAggregationMatchesProfiler:
    @pytest.mark.parametrize("kernel", [None, "planned"])
    def test_phase_profile_equals_live_profiler(self, tmp_path, kernel):
        """load_run().phase_profile() and the live PhaseProfiler fold
        the very same span events — equal arrays, not just close."""
        dist = make_dist(
            kernel=kernel, telemetry=Telemetry.to_dir(tmp_path, process="driver")
        )
        profiler = PhaseProfiler(dist)
        live = profiler.run(6)
        dist.telemetry.flush()

        aggregate = load_run(tmp_path)
        assert aggregate.num_ranks() == 3
        replayed = aggregate.phase_profile()
        assert replayed.steps == live.steps == 6
        for phase in PHASES:
            assert np.array_equal(replayed.seconds[phase], live.seconds[phase])

    @pytest.mark.parametrize("kernel", [None, "planned"])
    def test_comm_bytes_reconcile_exactly(self, tmp_path, kernel):
        """Summed comm.bytes counters equal the fabric ledger's total —
        both are emitted from the same payload.nbytes."""
        dist = make_dist(
            kernel=kernel, telemetry=Telemetry.to_dir(tmp_path, process="driver")
        )
        dist.run(6)
        dist.telemetry.flush()

        aggregate = load_run(tmp_path)
        assert aggregate.comm_bytes == dist.total_comm_bytes()
        assert aggregate.comm_bytes > 0
        assert (
            aggregate.counters["comm.messages"] == dist.mpi.ledger.message_count
        )

    def test_physics_identical_with_telemetry_enabled(self, tmp_path):
        """Instrumented stepping is observation, not perturbation."""
        ref = make_dist()
        ref.run(6)
        instrumented = make_dist(telemetry=Telemetry.to_dir(tmp_path))
        instrumented.run(6)
        assert np.array_equal(instrumented.gather(), ref.gather())


class TestSingleDomainSpans:
    def test_run_emits_per_phase_spans(self, tmp_path):
        recorder = Telemetry.to_dir(tmp_path, process="solo")
        sim = Simulation("D3Q19", (8, 8, 4), tau=0.8, telemetry=recorder)
        rho, u = shear_wave((8, 8, 4))
        sim.initialize(rho, u)
        sim.run(5)
        recorder.flush()

        aggregate = load_run(tmp_path)
        stream = aggregate.spans("phase.stream")
        assert len(stream) == 1
        assert stream[0]["attrs"] == {"rank": 0, "steps": 5}
        seconds = aggregate.phase_seconds()
        # Spans are derived from the same StepTimings clocks.
        assert seconds["stream"] == sim.timings.stream_seconds
        assert seconds["collide"] == sim.timings.collide_seconds
        assert seconds["boundary"] == sim.timings.boundary_seconds

    def test_each_run_call_gets_its_own_spans(self):
        recorder = Telemetry.in_memory()
        sim = Simulation("D3Q19", (8, 8, 4), tau=0.8, telemetry=recorder)
        rho, u = shear_wave((8, 8, 4))
        sim.initialize(rho, u)
        sim.run(2)
        sim.run(3)
        steps = [
            e["attrs"]["steps"]
            for e in recorder.events()
            if e.get("name") == "phase.stream"
        ]
        assert steps == [2, 3]


class TestEventFiltering:
    def test_filter_and_format(self):
        recorder = Telemetry.in_memory(process="w1")
        recorder.count("cache.hit")
        recorder.record_span("variant", 0.5, fingerprint="abc")
        events = recorder.events()
        assert [e["name"] for e in filter_events(events, name="cache")] == [
            "cache.hit"
        ]
        assert filter_events(events, etype="span")[0]["name"] == "variant"
        assert filter_events(events, process="nope") == []
        line = format_event(filter_events(events, etype="span")[0])
        assert "[w1]" in line and "variant" in line and "0.500000s" in line


class TestDisabledZeroAllocation:
    """The PR 4/5 zero-allocation guarantees survive instrumentation:
    with the default (null) recorder the hot loops never call into
    telemetry, only guard on one attribute."""

    def test_single_domain_planned_run_allocates_nothing(self):
        sim = Simulation("D3Q19", (16, 8, 8), tau=0.8, kernel="planned")
        rho, u = shear_wave((16, 8, 8))
        sim.initialize(rho, u)
        assert not sim.telemetry.enabled
        sim.run(3)  # warm every lazy cache
        tracemalloc.start()
        sim.run(5)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < sim.f.nbytes // 50, f"disabled-path run allocated {peak} B"

    def test_distributed_planned_run_stays_zero_alloc(self):
        # Same geometry/budget as the seed zero-alloc test in
        # tests/parallel/test_planned_slab.py: the fixed per-step
        # bookkeeping (Request objects) must stay under 1% of slab bytes.
        dist = DistributedSimulation(
            "D3Q19", (32, 16, 16), tau=0.8, num_ranks=4, ghost_depth=2,
            kernel="planned",
        )
        rho, u = shear_wave((32, 16, 16))
        dist.initialize(rho, u)
        assert not dist.telemetry.enabled
        dist.run(4)
        slab_bytes = sum(slab.data.nbytes for slab in dist.slabs)
        tracemalloc.start()
        dist.run(6)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < slab_bytes // 100, f"disabled-path step allocated {peak} B"


class TestRollupEdgeCases:
    def test_empty_aggregate(self, tmp_path):
        aggregate = load_run(tmp_path)
        assert aggregate.events == []
        assert aggregate.counters == {}
        assert math.isnan(aggregate.cache_hit_rate())
        assert math.isnan(aggregate.eta_seconds(3))
        assert aggregate.eta_seconds(0) == 0.0
        assert aggregate.summary_lines() == []

    def test_empty_phase_profile_comm_fraction_is_nan(self):
        assert math.isnan(PhaseProfile(2).comm_fraction())
