"""Real measured MFLUP/s of the sparse (indirect-addressing) kernels.

The executable analogue of the paper's sparse-geometry discussion: the
same stream+collide update on a :class:`~repro.core.sparse.SparseDomain`
at several fluid fills, across the sparse kernel ladder (legacy
fancy-index baseline -> planned flat-gather).  MFLUP/s counts *fluid*
lattice updates only — that is the whole point of sparse storage — and
every row is stamped with its ``fill`` (bench schema 5), which keys the
per-fill regression gate of ``compare_bench.py`` and keeps these rows
out of its dense Eq. 5 efficiency check: the fill-extended B(Q) of
:func:`~repro.machine.roofline.sparse_bytes_per_cell` is a model, not
a bound.

Shapes that must hold on any host: (a) both kernels agree bitwise-close
at every fill, (b) the planned kernel's zero-allocation flat gather
beats the legacy baseline by the acceptance margin below at <= 50%
fill (the regime vascular geometries live in: the bifurcating-vessel
case fills ~22% of its bounding box).
"""

import time

import numpy as np
import pytest

from repro.core.sparse import SparseDomain, make_sparse_kernel
from repro.lattice import get_lattice
from repro.machine.roofline import sparse_bytes_per_cell
from repro.perf import mflups

SHAPE = (32, 32, 32)
LATTICE = "D3Q19"
DTYPE = "float64"

#: Fluid fills of the measured ladder.  1.0 degenerates to a fully
#: periodic box (the dense limit of the gather); 0.25 is vascular
#: territory.  Masks are seeded random scatters — the worst case for
#: gather locality, so measured speedups are conservative.
FILLS = (0.25, 0.5, 1.0)

KERNELS = ("sparse-legacy", "sparse-planned")


def _domain(fill, shape=SHAPE):
    lattice = get_lattice(LATTICE)
    size = int(np.prod(shape))
    solid = np.zeros(size, dtype=bool)
    if fill < 1.0:
        rng = np.random.default_rng(7)
        num_solid = size - int(round(fill * size))
        solid[rng.permutation(size)[:num_solid]] = True
    return SparseDomain(lattice, solid.reshape(shape))


def _state(domain, dtype=DTYPE):
    rng = np.random.default_rng(1)
    w = domain.lattice.weights.astype(np.dtype(dtype))
    noise = 1.0 + 0.01 * rng.standard_normal((domain.lattice.q, domain.num_fluid))
    return np.ascontiguousarray(w[:, None] * noise, dtype=np.dtype(dtype))


def _measure(kernel, f, reps=5):
    """Mean seconds per step over ``reps`` (after one warmup step)."""
    g = f.copy()
    g = kernel.step(g)
    start = time.perf_counter()
    for _ in range(reps):
        g = kernel.step(g)
    return (time.perf_counter() - start) / reps


@pytest.mark.parametrize("fill", FILLS, ids=[f"fill{f:g}" for f in FILLS])
@pytest.mark.parametrize("kernel_name", KERNELS)
def test_sparse_kernel_throughput(benchmark, kernel_name, fill):
    domain = _domain(fill)
    kernel = make_sparse_kernel(kernel_name, domain, tau=0.8, dtype=DTYPE)
    f = _state(domain)
    kernel.step(f.copy())  # warm the gather table / scratch arena

    state = {"f": f.copy()}

    def step():
        state["f"] = kernel.step(state["f"])

    benchmark(step)
    achieved = mflups(1, domain.num_fluid, benchmark.stats["mean"])
    benchmark.extra_info["mflups"] = round(achieved, 2)
    benchmark.extra_info["kernel"] = kernel.name
    benchmark.extra_info["dtype"] = DTYPE
    # The parametrized names carry no lattice token, so stamp it: the
    # fitter and the regression gate both fall back to this field.
    benchmark.extra_info["lattice"] = LATTICE
    benchmark.extra_info["fill"] = round(domain.fill_fraction, 4)
    benchmark.extra_info["bytes_per_cell"] = round(
        sparse_bytes_per_cell(domain.lattice, DTYPE, fill=domain.fill_fraction), 2
    )
    assert np.isfinite(state["f"]).all()


def test_planned_beats_legacy_sparse_acceptance(benchmark):
    """The PR-9 acceptance ratio: at <= 50% fill on D3Q19, the planned
    flat-gather kernel must reach >= 1.5x the legacy fancy-index
    baseline's MFLUP/s.  Measured margins on a quiet host are ~2-3x,
    so the threshold leaves CI noise plenty of headroom."""
    domain = _domain(0.5)
    assert domain.fill_fraction <= 0.5
    f = _state(domain)
    legacy = _measure(make_sparse_kernel("sparse-legacy", domain, tau=0.8), f)
    planned = _measure(make_sparse_kernel("sparse-planned", domain, tau=0.8), f)
    benchmark.extra_info["speedup"] = round(legacy / planned, 2)
    benchmark.extra_info["fill"] = round(domain.fill_fraction, 4)
    assert legacy / planned >= 1.5
    benchmark(lambda: None)  # register a timing so --benchmark-only keeps this


def test_kernels_agree_at_every_fill(benchmark):
    """Both rungs are the same physics: after 10 steps from the same
    state, populations agree to accumulation-rounding tolerance."""
    for fill in FILLS:
        domain = _domain(fill)
        a = _state(domain)
        b = a.copy()
        legacy = make_sparse_kernel("sparse-legacy", domain, tau=0.8)
        planned = make_sparse_kernel("sparse-planned", domain, tau=0.8)
        for _ in range(10):
            a = legacy.step(a)
            b = planned.step(b)
        assert np.allclose(a, b, atol=1e-13)
    benchmark(lambda: None)
