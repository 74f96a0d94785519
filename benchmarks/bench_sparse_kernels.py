"""Real measured MFLUP/s of the sparse (indirect-addressing) kernel.

The executable analogue of the paper's sparse-geometry discussion: the
planned flat-gather stream+collide update on a
:class:`~repro.core.sparse.SparseDomain` at several fluid fills (the
vascular regime sits at <= 50%: the bifurcating-vessel case fills ~22%
of its bounding box).  MFLUP/s counts *fluid*
lattice updates only — that is the whole point of sparse storage — and
every row is stamped with its ``fill`` (bench schema 5), which keys the
per-fill regression gate of ``compare_bench.py`` and keeps these rows
out of its dense Eq. 5 efficiency check: the fill-extended B(Q) of
:func:`~repro.machine.roofline.sparse_bytes_per_cell` is a model, not
a bound.
"""

import numpy as np
import pytest

from repro.core.sparse import PlannedSparseKernel, SparseDomain
from repro.lattice import get_lattice
from repro.machine.roofline import sparse_bytes_per_cell
from repro.perf import mflups

SHAPE = (32, 32, 32)
LATTICE = "D3Q19"
DTYPE = "float64"

#: Fluid fills of the measured rows.  1.0 degenerates to a fully
#: periodic box (the dense limit of the gather); 0.25 is vascular
#: territory.  Masks are seeded random scatters — the worst case for
#: gather locality, so measured rates are conservative.
FILLS = (0.25, 0.5, 1.0)


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


# Row ids keep the ``sparse-planned-`` prefix the committed records and
# the sparse-planned gate of compare_bench.py match on.
@pytest.mark.parametrize(
    "fill", FILLS, ids=[f"{PlannedSparseKernel.name}-fill{f:g}" for f in FILLS]
)
def test_sparse_kernel_throughput(benchmark, fill):
    domain = _domain(fill)
    kernel = PlannedSparseKernel(domain, tau=0.8, dtype=DTYPE)
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
