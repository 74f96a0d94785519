"""Every stepping path against the naive executable spec.

``naive`` transcribes the paper's Fig. 3/4 pseudocode literally.  Each
remaining production path must reproduce it on a periodic BGK box,
across lattice x equilibrium order x dtype:

* the legacy pair (``Simulation(kernel=None)``);
* ``planned`` on array-of-structs storage (``layout="aos"``);
* ``SparseSimulation`` on a box with no solid node (k = 1 lattices: its
  half-way bounce-back is single-speed);
* the planned slab's ``DistributedSimulation.gather()``.

``roll`` and ``planned`` on SoA storage are checked against ``naive`` by
``test_plan.py::TestPlannedEquivalence::test_every_kernel_matches_naive``.
"""

import functools

import numpy as np
import pytest

from repro.core import NaiveKernel, Simulation, SparseSimulation, equilibrium
from repro.lattice import get_lattice
from repro.parallel import DistributedSimulation

#: Two D3Q39 slabs of k = 3 planes each fit along x.
SHAPE = (6, 3, 3)
STEPS = 3
TAU = 0.8
#: Absolute bounds (no relative slack): populations are O(0.1-0.4), and
#: float32 carries ~1e-7 relative rounding per operation.
ATOL = {"float64": 1e-13, "float32": 1e-5}


def _initial():
    rng = np.random.default_rng(7)
    rho = 1.0 + 0.02 * rng.standard_normal(SHAPE)
    u = 0.02 * rng.standard_normal((3, *SHAPE))
    return rho, u


@functools.lru_cache(maxsize=None)
def _naive(lname, order):
    """The spec's populations after STEPS steps, in float64 (computed
    once per lattice and order, shared by every path and dtype)."""
    lattice = get_lattice(lname)
    f = equilibrium(lattice, *_initial(), order=order)
    kernel = NaiveKernel(lattice, tau=TAU, order=order)
    for _ in range(STEPS):
        f = kernel.step(f)
    f.flags.writeable = False
    return f


def _legacy_pair(lname, order, dtype):
    sim = Simulation(lname, SHAPE, tau=TAU, order=order, dtype=dtype)
    sim.initialize(*_initial())
    sim.run(STEPS)
    return sim.f


def _planned_aos(lname, order, dtype):
    sim = Simulation(
        lname, SHAPE, tau=TAU, order=order, kernel="planned", dtype=dtype,
        layout="aos",
    )
    sim.initialize(*_initial())
    sim.run(STEPS)
    return sim.f


def _sparse(lname, order, dtype):
    sim = SparseSimulation(
        lname, np.zeros(SHAPE, dtype=bool), tau=TAU, order=order, dtype=dtype
    )
    sim.initialize(*_initial())
    sim.run(STEPS)
    return sim.f.reshape(-1, *SHAPE)


def _planned_slab(lname, order, dtype):
    dist = DistributedSimulation(
        lname, SHAPE, tau=TAU, num_ranks=2, order=order, dtype=dtype
    )
    dist.initialize(*_initial())
    dist.run(STEPS)
    return dist.gather()


PATHS = {
    "legacy-pair": _legacy_pair,
    "planned-aos": _planned_aos,
    "sparse": _sparse,
    "planned-slab": _planned_slab,
}

CELLS = [
    pytest.param(path, lname, order, dtype, id=f"{path}-{lname}-o{order}-{dtype}")
    for path in PATHS
    for lname in ("D3Q15", "D3Q19", "D3Q27", "D3Q39")
    for order in range(1, get_lattice(lname).equilibrium_order + 1)
    for dtype in ("float64", "float32")
    if path != "sparse" or get_lattice(lname).max_displacement == 1
]


@pytest.mark.parametrize("path,lname,order,dtype", CELLS)
def test_path_matches_naive(path, lname, order, dtype):
    got = PATHS[path](lname, order, dtype)
    assert got.dtype == np.dtype(dtype)
    assert got.shape == _naive(lname, order).shape
    assert np.allclose(
        got.astype(np.float64), _naive(lname, order), rtol=0, atol=ATOL[dtype]
    )
