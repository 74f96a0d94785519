"""Real measured MFlup/s of the kernels (not the machine model).

This is the *executable* analogue of the paper's single-node study: the
same stream+collide update measured on this host, across the kernel
ladder (roll -> fused-gather -> planned), lattices (D3Q19 vs D3Q39),
equilibrium orders and population dtypes (float32 halves the paper's
bytes-per-cell figure).  The planned rows time the compiled collide
where this host built it (their ``collide`` column says which path
ran); the ``test_reference_collide_throughput`` rows time its numpy
reference, the path of a host without a C compiler.  Absolute numbers
depend on the host; the shapes that must hold are (a) D3Q39 costs ~2x
D3Q19 per cell, (b) all kernels agree, and (c) the planned kernel's
zero-allocation update beats the roll kernel by the acceptance margins
below.
"""

import time

import numpy as np
import pytest

from repro.core import (
    FusedGatherKernel,
    PlannedKernel,
    RollKernel,
    compiled,
    equilibrium,
    make_kernel,
)
from repro.lattice import get_lattice
from repro.machine.roofline import copy_bandwidth
from repro.perf import mflups

SHAPE = (32, 32, 32)

#: (kernel class, dtype) rungs of the measured ladder.  The allocating
#: kernels are measured at float64 (their historic configuration); the
#: planned kernel at both dtype-policy ends.
LADDER = [
    (RollKernel, "float64"),
    (FusedGatherKernel, "float64"),
    (PlannedKernel, "float64"),
    (RollKernel, "float32"),
    (PlannedKernel, "float32"),
]


def _state(lattice, dtype="float64"):
    rng = np.random.default_rng(0)
    rho = 1.0 + 0.01 * rng.standard_normal(SHAPE)
    u = 0.01 * rng.standard_normal((3, *SHAPE))
    return np.ascontiguousarray(equilibrium(lattice, rho, u), dtype=np.dtype(dtype))


def _make(kernel_cls, lattice, dtype):
    # make_kernel owns the per-kernel construction dispatch (which
    # kernels take dtype/shape at build time).
    return make_kernel(kernel_cls.name, lattice, tau=0.8, dtype=dtype, shape=SHAPE)


def _measure(kernel, f, reps=5):
    """Mean seconds per step over ``reps`` (after one warmup step)."""
    g = f.copy()
    g = kernel.step(g)
    start = time.perf_counter()
    for _ in range(reps):
        g = kernel.step(g)
    return (time.perf_counter() - start) / reps


@pytest.mark.parametrize("lname", ["D3Q19", "D3Q39"])
@pytest.mark.parametrize(
    "kernel_cls,dtype",
    LADDER,
    ids=[f"{cls.name}-{dt}" for cls, dt in LADDER],
)
def test_kernel_throughput(benchmark, lname, kernel_cls, dtype):
    lattice = get_lattice(lname)
    kernel = _make(kernel_cls, lattice, dtype)
    f = _state(lattice, dtype)
    kernel.step(f.copy())  # warm the gather tables / buffers / arena

    state = {"f": f.copy()}

    def step():
        state["f"] = kernel.step(state["f"])

    benchmark(step)
    cells = int(np.prod(SHAPE))
    achieved = mflups(1, cells, benchmark.stats["mean"])
    benchmark.extra_info["mflups"] = round(achieved, 2)
    benchmark.extra_info["kernel"] = kernel.name
    benchmark.extra_info["dtype"] = dtype
    benchmark.extra_info["bytes_per_cell"] = lattice.bytes_per_cell * (
        1 if dtype == "float64" else 0.5
    )
    if isinstance(kernel, PlannedKernel):
        plan = kernel.plan_for(SHAPE)
        benchmark.extra_info["collide"] = "compiled" if plan.compiled else "arena"
    assert np.isfinite(state["f"]).all()


@pytest.mark.parametrize("lname", ["D3Q19", "D3Q39"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_reference_collide_throughput(benchmark, monkeypatch, lname, dtype):
    """The planned kernel on its numpy reference collide (the loader
    patched to report no compiler): what a host without ``cc`` runs.
    Named apart from ``planned`` so no planned-row gate absorbs it."""
    monkeypatch.setattr(compiled, "load", lambda dtype: None)
    lattice = get_lattice(lname)
    kernel = PlannedKernel(lattice, tau=0.8, dtype=dtype, shape=SHAPE)
    assert not kernel.plan_for(SHAPE).compiled
    state = {"f": kernel.step(_state(lattice, dtype))}

    def step():
        state["f"] = kernel.step(state["f"])

    benchmark(step)
    cells = int(np.prod(SHAPE))
    benchmark.extra_info["mflups"] = round(mflups(1, cells, benchmark.stats["mean"]), 2)
    benchmark.extra_info["kernel"] = "numpy-reference"
    benchmark.extra_info["dtype"] = dtype
    benchmark.extra_info["bytes_per_cell"] = lattice.bytes_per_cell * (
        1 if dtype == "float64" else 0.5
    )
    assert np.isfinite(state["f"]).all()


def test_copy_bandwidth(benchmark):
    """The host's ``Bm`` (Eq. 5) in bytes/s, measured in this run so
    ``compare_bench.py`` can hold every throughput row above to its
    ceiling ``Bm / B(Q)``.  The probe times itself (best of several
    copies), so the benchmark's round limits cannot skew it."""
    benchmark.extra_info["copy_bandwidth"] = round(copy_bandwidth())
    benchmark(lambda: None)  # register a timing so --benchmark-only keeps this


def test_planned_beats_roll_acceptance(benchmark):
    """The PR-4 acceptance ratios on D3Q39 at 32^3: the zero-allocation
    planned kernel must reach >= 1.3x the roll kernel's MFLUP/s at
    float64 and >= 1.7x at float32 (vs roll at float64).  Measured
    margins on a quiet host are ~2.5x/4x, so the thresholds leave CI
    noise plenty of headroom."""
    lattice = get_lattice("D3Q39")
    f64 = _state(lattice, "float64")
    roll = _measure(RollKernel(lattice, tau=0.8), f64)
    planned64 = _measure(PlannedKernel(lattice, tau=0.8, shape=SHAPE), f64)
    planned32 = _measure(
        PlannedKernel(lattice, tau=0.8, dtype="float32", shape=SHAPE),
        f64.astype(np.float32),
    )
    benchmark.extra_info["speedup_float64"] = round(roll / planned64, 2)
    benchmark.extra_info["speedup_float32"] = round(roll / planned32, 2)
    assert roll / planned64 >= 1.3
    assert roll / planned32 >= 1.7
    benchmark(lambda: None)  # register a timing so --benchmark-only keeps this


#: Grid of the planned cost ratio (the ROADMAP's bare-kernel shape).
RATIO_SHAPE = (32, 32, 4)


def test_d3q39_costs_about_double(benchmark):
    """The paper's headline cost ratio: B(Q39)/B(Q19) = 936/456 ~ 2.05.

    Recorded for the roll kernel at 32^3 (the gated ratio) and for the
    planned kernel at 32x32x4 (``planned_ratio``, recorded only)."""
    times, planned = {}, {}
    for lname in ("D3Q19", "D3Q39"):
        lattice = get_lattice(lname)
        times[lname] = _measure(RollKernel(lattice, tau=0.8), _state(lattice), reps=3)
        rng = np.random.default_rng(0)
        rho = 1.0 + 0.01 * rng.standard_normal(RATIO_SHAPE)
        u = 0.01 * rng.standard_normal((3, *RATIO_SHAPE))
        kernel = PlannedKernel(lattice, tau=0.8, shape=RATIO_SHAPE)
        planned[lname] = _measure(kernel, equilibrium(lattice, rho, u), reps=20)

    ratio = times["D3Q39"] / times["D3Q19"]
    planned_ratio = planned["D3Q39"] / planned["D3Q19"]
    benchmark.extra_info["measured_ratio"] = round(ratio, 2)
    benchmark.extra_info["planned_ratio"] = round(planned_ratio, 2)
    benchmark.extra_info["paper_ratio"] = round(936 / 456, 2)
    # Shape check: D3Q39 costs a small multiple of D3Q19.  The paper's C
    # kernel sits exactly at the byte ratio 2.05 (bandwidth-bound); the
    # numpy kernel pays extra for Q39's larger working set and its
    # 3-plane shifts, so the measured ratio lands above it (and the
    # slice-assign streaming path helps the 1-plane D3Q19 shifts more,
    # pushing the ratio further up).
    assert 1.4 < ratio < 6.5
    benchmark(lambda: None)  # register a timing so --benchmark-only keeps this test


def test_distributed_overhead(benchmark):
    """Halo exchange overhead of the in-process distributed solver
    relative to the single-domain path (4 ranks, depth 2).  Kept under
    its historic name/configuration as the cross-PR baseline the
    distributed ladder below is gated against."""
    from repro.core import Simulation, shear_wave
    from repro.parallel import DistributedSimulation

    shape = (32, 16, 16)
    rho, u = shear_wave(shape)
    dist = DistributedSimulation("D3Q19", shape, tau=0.8, num_ranks=4, ghost_depth=2)
    dist.initialize(rho, u)
    dist.run(2)  # warm up

    benchmark(dist.run, 1)
    ref = Simulation("D3Q19", shape, tau=0.8)
    ref.initialize(rho, u)
    ref.run(3)
    benchmark.extra_info["messages_so_far"] = dist.message_count()
    assert dist.gather().shape == (19, *shape)


# -- distributed slab ladder (PR 5) -----------------------------------------

DIST_SHAPE = (32, 16, 16)

#: (slab kernel, dtype) rungs of the distributed ladder: the legacy
#: stream_padded + BGKCollision pair at its historic float64, then the
#: planned windowed kernel at both dtype-policy ends.
DIST_LADDER = [
    ("legacy", "float64"),
    ("planned", "float64"),
    ("planned", "float32"),
]


def _dist_sim(lname, kernel, dtype):
    from repro.core import shear_wave
    from repro.parallel import DistributedSimulation

    dist = DistributedSimulation(
        lname,
        DIST_SHAPE,
        tau=0.8,
        num_ranks=4,
        ghost_depth=2,
        kernel=kernel,
        dtype=dtype,
    )
    rho, u = shear_wave(DIST_SHAPE)
    dist.initialize(rho, u)
    dist.run(2)  # warm up: plans/buffers built, one full exchange cycle
    return dist


@pytest.mark.parametrize("lname", ["D3Q19", "D3Q39"])
@pytest.mark.parametrize(
    "kernel,dtype", DIST_LADDER, ids=[f"{k}-{d}" for k, d in DIST_LADDER]
)
def test_distributed_throughput(benchmark, lname, kernel, dtype):
    """Measured MFLUP/s of one distributed step (4 ranks, depth 2),
    exchange cost amortised in — the slab-parallel analogue of the
    single-domain ladder above."""
    dist = _dist_sim(lname, kernel, dtype)
    benchmark(dist.run, 1)
    cells = int(np.prod(DIST_SHAPE))
    achieved = mflups(1, cells, benchmark.stats["mean"])
    benchmark.extra_info["mflups"] = round(achieved, 2)
    benchmark.extra_info["kernel"] = kernel
    benchmark.extra_info["dtype"] = dtype
    benchmark.extra_info["comm_bytes"] = dist.total_comm_bytes()
    assert np.isfinite(dist.gather()).all()


def test_planned_slab_beats_legacy_acceptance(benchmark):
    """The PR-5 acceptance ratio: the planned distributed step must
    reach >= 1.5x the legacy slab path's MFLUP/s on both paper lattices
    at float64.  Measured margins on a quiet host are ~3-5x, so the
    threshold leaves CI noise plenty of headroom."""

    def _measure(dist, reps=5):
        start = time.perf_counter()
        dist.run(reps)
        return (time.perf_counter() - start) / reps

    speedups = {}
    for lname in ("D3Q19", "D3Q39"):
        legacy = _measure(_dist_sim(lname, "legacy", "float64"))
        planned = _measure(_dist_sim(lname, "planned", "float64"))
        speedups[lname] = legacy / planned
        benchmark.extra_info[f"speedup_{lname}"] = round(speedups[lname], 2)
    assert speedups["D3Q19"] >= 1.5
    assert speedups["D3Q39"] >= 1.5
    benchmark(lambda: None)  # register a timing so --benchmark-only keeps this
