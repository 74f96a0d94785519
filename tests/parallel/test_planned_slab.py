"""Planned distributed stepping: the dtype x depth x schedule x split
equivalence matrix against the planned single domain, the
zero-allocation property, and dtype-honest communication byte
accounting."""

import tracemalloc

import numpy as np
import pytest

from repro.core import Simulation, shear_wave
from repro.core.plan import KernelPlan, build_slab_gather_table
from repro.errors import HaloValidityError, LatticeError
from repro.parallel import (
    DistributedSimulation,
    ExchangeSchedule,
    HaloSpec,
    PlannedSlabKernel,
)


def _assert_matches(dtype, got, ref):
    """Planned slabs collide by the same op sequence as the planned single
    domain, elementwise whatever the window width: byte for byte."""
    assert got.dtype == np.dtype(dtype)
    assert np.array_equal(got, ref)


def _run_pair(lname, shape, tau, steps, *, ranks, depth, schedule, dtype):
    """(planned single-domain f, distributed simulation) under one
    configuration."""
    rho, u = shear_wave(shape)
    ref = Simulation(lname, shape, tau=tau, kernel="planned", dtype=dtype)
    ref.initialize(rho, u)
    ref.run(steps)
    dist = DistributedSimulation(
        lname,
        shape,
        tau=tau,
        num_ranks=ranks,
        ghost_depth=depth,
        schedule=schedule,
        dtype=dtype,
    )
    dist.initialize(rho, u)
    dist.run(steps)
    return ref.f, dist


class TestEquivalenceMatrix:
    """The correctness contract: gather() equals the planned single-domain
    solver bit for bit in every dtype x ghost-depth x schedule cell."""

    @pytest.mark.parametrize("schedule", list(ExchangeSchedule))
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matrix_d3q19(self, dtype, depth, schedule):
        ref, dist = _run_pair(
            "D3Q19",
            (24, 5, 5),
            0.8,
            10,
            ranks=3,
            depth=depth,
            schedule=schedule,
            dtype=dtype,
        )
        _assert_matches(dtype, dist.gather(), ref)

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matrix_d3q39(self, dtype, depth):
        ref, dist = _run_pair(
            "D3Q39",
            (30, 4, 4),
            0.9,
            9,
            ranks=3,
            depth=depth,
            schedule=ExchangeSchedule.NONBLOCKING_GC,
            dtype=dtype,
        )
        _assert_matches(dtype, dist.gather(), ref)

    @pytest.mark.parametrize(
        "ranks,nx,depth", [(3, 31, 2), (4, 38, 1)], ids=["3x31-d2", "4x38-d1"]
    )
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matrix_d3q39_uneven(self, dtype, ranks, nx, depth):
        """Three-plane hops over uneven splits (11,10,10 and 10,10,9,9):
        two slab geometries, two plan sets, still bit-exact."""
        ref, dist = _run_pair(
            "D3Q39",
            (nx, 4, 3),
            0.9,
            7,
            ranks=ranks,
            depth=depth,
            schedule=ExchangeSchedule.NONBLOCKING_GC,
            dtype=dtype,
        )
        assert len(dist._slab_kernels) == 2
        _assert_matches(dtype, dist.gather(), ref)

    def test_uneven_decomposition_planned(self):
        """23 planes over 4 ranks (6,6,6,5): two slab geometries, two
        plan sets, still bit-exact."""
        ref, dist = _run_pair(
            "D3Q19",
            (23, 4, 4),
            0.8,
            7,
            ranks=4,
            depth=1,
            schedule=ExchangeSchedule.BLOCKING,
            dtype="float64",
        )
        assert np.array_equal(dist.gather(), ref)


class TestZeroAllocation:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_step_and_exchange_allocate_nothing(self, dtype, collide_path):
        """The acceptance property: after warmup, the planned distributed
        loop — stepping *and* halo exchange — makes no heap allocations
        beyond O(1) request bookkeeping (a single hidden payload or
        window copy would exceed the budget ~100-fold), on the compiled
        loop and on the reference."""
        dist = DistributedSimulation(
            "D3Q39",
            (32, 16, 16),
            tau=0.8,
            num_ranks=4,
            ghost_depth=2,
            dtype=dtype,
        )
        rho, u = shear_wave((32, 16, 16))
        dist.initialize(rho, u)
        dist.run(4)  # warmup: two full exchange macro-cycles
        plans = [p for k in dist._slab_kernels.values() for p in k._plans.values()]
        assert {p.compiled for p in plans} == {collide_path == "compiled"}
        slab_bytes = sum(slab.data.nbytes for slab in dist.slabs)
        tracemalloc.start()
        dist.run(6)  # three macro-cycles including their exchanges
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < slab_bytes // 100, f"peak {peak} B vs slabs {slab_bytes} B"


class TestCommBytes:
    def test_float32_halves_ledger_bytes(self):
        """B(Q) on the wire: the ledger must reflect the real payload
        width, so float32 halves total_comm_bytes exactly."""
        totals = {}
        for dtype in ("float64", "float32"):
            _, dist = _run_pair(
                "D3Q19",
                (24, 4, 4),
                0.8,
                8,
                ranks=4,
                depth=2,
                schedule=ExchangeSchedule.NONBLOCKING_GC,
                dtype=dtype,
            )
            totals[dtype] = dist.total_comm_bytes()
        assert totals["float64"] == 2 * totals["float32"]

    def test_bytes_match_halo_geometry_float32(self):
        shape = (24, 5, 6)
        dist = DistributedSimulation(
            "D3Q39",
            shape,
            tau=0.8,
            num_ranks=2,
            ghost_depth=1,
            dtype="float32",
        )
        rho, u = shear_wave(shape)
        dist.initialize(rho, u)
        dist.run(1)
        # one exchange: 2 ranks x 2 directions = 4 messages of k*area*Q*4
        assert dist.message_count() == 4
        assert dist.total_comm_bytes() == 4 * 3 * 5 * 6 * 39 * 4

    def test_deep_halo_message_ledger_invariants(self):
        """§VI-A holds on the planned slab path: d-fold fewer messages,
        same bytes per macro-cycle."""
        counts, totals = {}, {}
        for depth in (1, 2, 3):
            _, dist = _run_pair(
                "D3Q19",
                (48, 4, 4),
                0.8,
                12,
                ranks=4,
                depth=depth,
                schedule=ExchangeSchedule.NONBLOCKING_GC,
                dtype="float64",
            )
            counts[depth] = dist.message_count()
            totals[depth] = dist.total_comm_bytes()
        assert counts[1] == 2 * counts[2] == 3 * counts[3]
        assert totals[1] == totals[2] == totals[3]


class TestPlannedSlabKernel:
    def test_dtype_mismatch_rejected(self, q19):
        from repro.parallel import HaloSlab

        spec = HaloSpec.for_lattice(q19, 1)
        kernel = PlannedSlabKernel(q19, 8, 4, 4, spec, tau=0.8, dtype="float32")
        slab = HaloSlab(q19, 8, 4, 4, spec)  # float64 storage
        slab.mark_exchanged()
        with pytest.raises(LatticeError, match="float32"):
            kernel.step(slab)

    def test_exhausted_halo_rejected(self, q19):
        from repro.parallel import HaloSlab

        spec = HaloSpec.for_lattice(q19, 1)
        kernel = PlannedSlabKernel(q19, 8, 4, 4, spec, tau=0.8)
        slab = HaloSlab(q19, 8, 4, 4, spec)
        assert slab.validity == 0
        with pytest.raises(HaloValidityError, match="exhausted"):
            kernel.step(slab)

    def test_one_window_plan_per_substep(self, q39):
        spec = HaloSpec.for_lattice(q39, 2)  # width 6, k 3
        kernel = PlannedSlabKernel(q39, 12, 3, 3, spec, tau=0.8)
        assert sorted(kernel._plans) == [0, 3]
        assert kernel._plans[3].shape == (12 + 2 * 3, 3, 3)
        assert kernel._plans[0].shape == (12, 3, 3)
        assert kernel.nbytes > 0

    def test_mismatched_slab_geometry_rejected(self, q19):
        from repro.parallel import HaloSlab

        depth2 = HaloSpec.for_lattice(q19, 2)
        depth3 = HaloSpec.for_lattice(q19, 3)
        kernel = PlannedSlabKernel(q19, 8, 4, 4, depth2, tau=0.8)
        slab = HaloSlab(q19, 8, 4, 4, depth3)
        slab.mark_exchanged()
        with pytest.raises(HaloValidityError, match="window plan"):
            kernel.step(slab)


class TestSlabGatherTable:
    def test_matches_padded_streaming_inside_window(self, q39):
        """The fused gather equals push-streaming restricted to a window
        that keeps k planes of slack per side: periodic along y/z (a
        roll), non-wrapping along x (a slice of the source planes)."""
        lat = q39
        padded = (14, 4, 5)
        window = slice(3, 11)
        rng = np.random.default_rng(3)
        f = rng.standard_normal((lat.q, *padded))
        expected = np.empty((lat.q, window.stop - window.start, *padded[1:]))
        for i, (cx, cy, cz) in enumerate(lat.velocities.tolist()):
            source = f[i, window.start - cx : window.stop - cx]
            expected[i] = np.roll(source, (cy, cz), axis=(1, 2))
        table = build_slab_gather_table(lat, padded, window)
        got = np.take(f.reshape(-1), table).reshape(
            lat.q, window.stop - window.start, *padded[1:]
        )
        assert np.array_equal(got, expected)

    def test_window_too_close_to_edge_rejected(self, q39):
        with pytest.raises(LatticeError, match="outside the padded"):
            build_slab_gather_table(q39, (14, 4, 5), slice(2, 12))

    def test_empty_window_rejected(self, q19):
        with pytest.raises(LatticeError, match="empty"):
            build_slab_gather_table(q19, (10, 4, 4), slice(5, 5))

    def test_for_window_plan_geometry(self, q19):
        plan = KernelPlan.for_window(q19, (12, 4, 4), slice(2, 10))
        assert plan.shape == (8, 4, 4)
        assert plan.source_shape == (12, 4, 4)
        assert plan.window == slice(2, 10)
        # default periodic plans keep source == compute
        whole = KernelPlan(q19, (8, 4, 4))
        assert whole.window is None
        assert whole.source_shape == (8, 4, 4)


class TestProfilerAndFailureSafety:
    def test_mismatch_leaves_validity_ledger_intact(self, q19):
        """A geometry-mismatch failure must be side-effect-free: the
        validity ledger may not record a step that never computed."""
        from repro.parallel import HaloSlab

        kernel = PlannedSlabKernel(q19, 8, 4, 4, HaloSpec.for_lattice(q19, 2), tau=0.8)
        slab = HaloSlab(q19, 8, 4, 4, HaloSpec.for_lattice(q19, 3))
        slab.mark_exchanged()
        before = slab.validity
        with pytest.raises(HaloValidityError, match="window plan"):
            kernel.step(slab)
        assert slab.validity == before

    def test_phase_profiler_drives_the_planned_slab_kernel(self):
        """PhaseProfiler must step through the simulation's planned slab
        kernels: profiled physics equals the uninstrumented driver's,
        bit for bit."""
        from repro.parallel import PhaseProfiler

        shape = (24, 5, 5)
        rho, u = shear_wave(shape)

        def build():
            dist = DistributedSimulation(
                "D3Q19", shape, tau=0.8, num_ranks=3, ghost_depth=2
            )
            dist.initialize(rho, u)
            return dist

        plain = build()
        plain.run(7)
        profiled = build()
        profile = PhaseProfiler(profiled).run(7)
        assert np.array_equal(profiled.gather(), plain.gather())
        assert profile.steps == 7
        assert profile.seconds["stream"].sum() > 0
        assert profile.seconds["collide"].sum() > 0
        assert profile.seconds["exchange"].sum() > 0
