"""Every stepping path against the naive executable spec.

``naive`` transcribes the paper's Fig. 3/4 pseudocode literally.  Each
remaining production path must reproduce it on a periodic BGK box,
across lattice x equilibrium order x dtype:

* ``planned`` through :class:`Simulation`, on struct-of-arrays storage
  (the default) and on array-of-structs storage (``layout="aos"``);
* ``SparseSimulation`` on a box with no solid node (k = 1 lattices: its
  half-way bounce-back is single-speed);
* the planned slab's ``DistributedSimulation.gather()``.

Walls and forcing, across lattice x dtype: ``planned`` (static walls
folded into its gather table, Guo forcing fused into its collide, a
moving lid after streaming) against ``naive`` (every wall after
streaming, the generic Guo-forced collide).

The fused planned step, one ``KernelPlan.advance`` pass per step, is
held to ``naive`` on its own across D3Q19/D3Q39 x order x dtype: on a
periodic box, with static walls folded into its table, and forced
(``test_fused_step_matches_naive``).
"""

import functools

import numpy as np
import pytest

from repro.core import (
    BounceBackWalls,
    GuoForcing,
    MovingWallBounceBack,
    NaiveKernel,
    Simulation,
    SparseSimulation,
    equilibrium,
)
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


def _planned_soa(lname, order, dtype):
    sim = Simulation(lname, SHAPE, tau=TAU, order=order, kernel="planned", dtype=dtype)
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
    "planned-soa": _planned_soa,
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


#: A channel for the walled cells: static walls on both y faces leave
#: four fluid planes.
WALL_SHAPE = (4, 6, 3)
FORCE = (1e-4, -5e-5, 2e-5)
WALL_CELLS = ("walls-forcing", "lid")


def _walled(lname, cell, kernel, dtype):
    """``walls-forcing``: static walls and a Guo body force.  ``lid``:
    static walls and a moving lid on the top z plane, unforced (so
    naive's own per-cell collide runs)."""
    lattice = get_lattice(lname)
    solid = np.zeros(WALL_SHAPE, dtype=bool)
    solid[:, 0, :] = solid[:, -1, :] = True
    walls = [BounceBackWalls(lattice, solid)]
    forcing = GuoForcing(lattice, FORCE)
    if cell == "lid":
        top = np.zeros(WALL_SHAPE, dtype=bool)
        top[:, 1:-1, -1] = True
        walls.append(MovingWallBounceBack(lattice, top, wall_velocity=(0.05, 0.0, 0.0)))
        forcing = None
    sim = Simulation(
        lattice, WALL_SHAPE, tau=TAU, boundaries=walls, forcing=forcing,
        kernel=kernel, dtype=dtype,
    )
    rng = np.random.default_rng(7)
    rho = 1.0 + 0.02 * rng.standard_normal(WALL_SHAPE)
    sim.initialize(rho, 0.02 * rng.standard_normal((3, *WALL_SHAPE)))
    sim.run(STEPS)
    return sim


@functools.lru_cache(maxsize=None)
def _naive_walled(lname, cell):
    """The spec's walled populations in float64, once per lattice and
    cell: every wall after streaming, the generic forced collide."""
    sim = _walled(lname, cell, "naive", "float64")
    assert sim.effective_path == {
        "stream": "generic",
        "walls": "post-stream",
        "collide": "generic",
        "forcing": "generic" if cell == "walls-forcing" else "none",
    }
    f = sim.f
    f.flags.writeable = False
    return f


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("lname", ["D3Q15", "D3Q19", "D3Q27", "D3Q39"])
@pytest.mark.parametrize("cell", WALL_CELLS)
def test_walled_planned_matches_naive(cell, lname, dtype, expected_collide):
    sim = _walled(lname, cell, "planned", dtype)
    collide = expected_collide(dtype)
    assert sim.effective_path == {
        # the moving lid runs between streaming and collision
        "stream": "fused" if cell == "walls-forcing" else "gather",
        "walls": "folded",
        "collide": collide,
        "forcing": collide if cell == "walls-forcing" else "none",
    }
    assert sim._post_stream == sim.boundaries[1:]
    assert sim.f.dtype == np.dtype(dtype)
    assert np.allclose(
        sim.f.astype(np.float64), _naive_walled(lname, cell), rtol=0, atol=ATOL[dtype]
    )


FUSED_CELLS = ("periodic", "walled", "forced")


def _fused_case(lname, cell, order, kernel, dtype):
    """A simulation whose planned step is one fused pass: no boundary
    after streaming (``walled`` folds static walls; ``forced`` adds a
    Guo body force to them)."""
    lattice = get_lattice(lname)
    walls, forcing = [], None
    if cell != "periodic":
        solid = np.zeros(WALL_SHAPE, dtype=bool)
        solid[:, 0, :] = solid[:, -1, :] = True
        walls = [BounceBackWalls(lattice, solid)]
    if cell == "forced":
        forcing = GuoForcing(lattice, FORCE)
    sim = Simulation(
        lattice, WALL_SHAPE, tau=TAU, order=order, boundaries=walls,
        forcing=forcing, kernel=kernel, dtype=dtype,
    )
    rng = np.random.default_rng(11)
    rho = 1.0 + 0.02 * rng.standard_normal(WALL_SHAPE)
    sim.initialize(rho, 0.02 * rng.standard_normal((3, *WALL_SHAPE)))
    sim.run(STEPS)
    return sim


@functools.lru_cache(maxsize=None)
def _naive_fused(lname, cell, order):
    f = _fused_case(lname, cell, order, "naive", "float64").f
    f.flags.writeable = False
    return f


@pytest.mark.parametrize(
    "cell,lname,order,dtype",
    [
        pytest.param(cell, lname, order, dtype, id=f"{cell}-{lname}-o{order}-{dtype}")
        for cell in FUSED_CELLS
        for lname in ("D3Q19", "D3Q39")
        for order in range(1, get_lattice(lname).equilibrium_order + 1)
        for dtype in ("float64", "float32")
    ],
)
def test_fused_step_matches_naive(cell, lname, order, dtype, expected_collide):
    sim = _fused_case(lname, cell, order, "planned", dtype)
    collide = expected_collide(dtype)
    assert sim.effective_path == {
        "stream": "fused",
        "walls": "none" if cell == "periodic" else "folded",
        "collide": collide,
        "forcing": collide if cell == "forced" else "none",
    }
    assert sim.timings.stream_seconds == 0 and sim.timings.collide_seconds > 0
    assert sim.f.dtype == np.dtype(dtype)
    assert np.allclose(
        sim.f.astype(np.float64),
        _naive_fused(lname, cell, order),
        rtol=0,
        atol=ATOL[dtype],
    )
