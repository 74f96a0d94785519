"""Indirect-addressing (sparse) fluid domains.

The paper stores its distributions so as to "set the code up for an
easy transition to the use of indirect addressing necessary for
irregular domains" (§IV) — production artery geometries keep only the
fluid nodes and walk neighbor lists instead of dense array offsets.
This module implements that representation:

* only fluid nodes are stored (populations shape ``(Q, N_fluid)``);
* streaming is one gather through a precomputed neighbor-index table;
* links that would enter a solid node are replaced by *half-way
  bounce-back* links (the index points back to the source node with the
  opposite velocity), giving no-slip walls located half a cell outside
  the last fluid node — the standard irregular-domain LBM formulation.

For a fully fluid periodic box the sparse solver reproduces the dense
planned :class:`~repro.core.simulation.Simulation` byte for byte (the
two share the plan's collide; unit-tested); with
walls it conserves mass exactly and produces the expected channel
profiles.  Memory drops from ``Q * nx * ny * nz`` to ``Q * N_fluid`` —
the win that matters when an artery occupies a few percent of its
bounding box — and the repo's population dtype policy applies
(``dtype="float32"`` halves the per-node bytes again).

One kernel implements the update, :class:`PlannedSparseKernel`
(``"sparse-planned"``; a sparse case spells it ``planned`` or ``auto``):
the domain's per-velocity neighbor lists are flattened at plan time into
one contiguous gather table driving a :class:`~repro.core.plan.KernelPlan`,
so stream + collide (bounce-back links included — they are just more
gather indices) is one :meth:`~repro.core.plan.KernelPlan.advance` with
zero per-step heap allocations, exactly like the dense planned kernel.
:class:`SparseSimulation` always builds it.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..errors import LatticeError, StabilityError
from ..lattice import VelocitySet, get_lattice
from ..telemetry.recorder import get_telemetry
from .collision import BGKCollision
from .equilibrium import equilibrium
from .fields import resolve_dtype
from .forcing import GuoForcing
from .plan import SPARSE_KERNEL, KernelPlan, index_dtype
from .simulation import StepTimings, _Driver

__all__ = [
    "PlannedSparseKernel",
    "SparseDomain",
    "SparseSimulation",
    "build_sparse_gather_table",
]


class SparseDomain:
    """Fluid-node list + per-velocity pull-neighbor table.

    Parameters
    ----------
    lattice:
        Velocity set.
    solid_mask:
        Boolean array over the bounding box; ``True`` = solid.  The
        complement is the fluid set.  The box is periodic; solid nodes
        block links with half-way bounce-back.
    """

    def __init__(self, lattice: VelocitySet, solid_mask: np.ndarray) -> None:
        solid_mask = np.asarray(solid_mask, dtype=bool)
        if solid_mask.ndim != lattice.dim:
            raise LatticeError(f"mask must be {lattice.dim}-D")
        if solid_mask.all():
            raise LatticeError("domain has no fluid nodes")
        self.lattice = lattice
        self.shape = solid_mask.shape
        self.solid_mask = solid_mask
        self.fluid_index = np.flatnonzero(~solid_mask.ravel())
        self.num_fluid = len(self.fluid_index)
        # dense -> sparse id (or -1 for solid)
        dense_to_sparse = np.full(solid_mask.size, -1, dtype=np.int64)
        dense_to_sparse[self.fluid_index] = np.arange(self.num_fluid)

        coords = np.array(
            np.unravel_index(self.fluid_index, self.shape)
        ).T  # (N, D)
        q = lattice.q
        self.pull_from = np.empty((q, self.num_fluid), dtype=np.int64)
        self.pull_velocity = np.empty((q, self.num_fluid), dtype=np.int64)
        opposite = lattice.opposite
        for i, c in enumerate(lattice.velocities):
            src = (coords - c[None, :]) % np.array(self.shape)[None, :]
            src_flat = np.ravel_multi_index(src.T, self.shape)
            src_sparse = dense_to_sparse[src_flat]
            blocked = src_sparse < 0
            # open links pull population i from the upstream fluid node;
            # blocked links bounce back: pull the *opposite* population
            # from this very node (half-way bounce-back).
            self.pull_from[i] = np.where(
                blocked, np.arange(self.num_fluid), src_sparse
            )
            self.pull_velocity[i] = np.where(blocked, opposite[i], i)
        #: Number of wall links (diagnostics / surface area estimate).
        self.num_wall_links = int(
            sum((self.pull_velocity[i] != i).sum() for i in range(q))
        )

    @property
    def fill_fraction(self) -> float:
        """Fluid nodes as a fraction of the bounding box (B(Q)'s fill
        term: low fill wastes dense cache lines, sparse storage does
        not — this is the knob the fill-aware perf model keys on)."""
        return self.num_fluid / self.solid_mask.size

    # -- dense <-> sparse -------------------------------------------------

    def scatter(self, sparse_values: np.ndarray, fill: float = np.nan) -> np.ndarray:
        """Sparse per-node values -> dense array over the bounding box.

        The dense result keeps the values' floating dtype, so a float32
        solve scatters to a float32 box.
        """
        sparse_values = np.asarray(sparse_values)
        dtype = sparse_values.dtype if sparse_values.dtype.kind == "f" else np.float64
        dense = np.full(self.solid_mask.size, fill, dtype=dtype)
        dense[self.fluid_index] = sparse_values
        return dense.reshape(self.shape)

    def gather_from_dense(self, dense: np.ndarray) -> np.ndarray:
        """Dense spatial array -> per-fluid-node values."""
        return dense.reshape(-1)[self.fluid_index]


def build_sparse_gather_table(
    domain: SparseDomain, index: "np.dtype | type" = np.intp
) -> np.ndarray:
    """The domain's neighbor lists flattened to one contiguous gather.

    ``table[i * N + n] = pull_velocity[i, n] * N + pull_from[i, n]``
    over the flattened ``(Q * N_fluid,)`` populations, so one
    ``np.take(f.reshape(-1), table, out=...)`` performs streaming *and*
    half-way bounce-back in the same gather — a blocked link is simply
    an index pointing at the opposite population of the source node.
    Written in the ``index`` dtype (see
    :func:`~repro.core.plan.index_dtype`).  Writable on purpose:
    ``np.take(mode="clip")`` copies read-only index arrays into a fresh
    buffer on every call.
    """
    table = np.empty(domain.pull_from.shape, dtype=index)
    np.multiply(domain.pull_velocity, domain.num_fluid, out=table, casting="same_kind")
    np.add(table, domain.pull_from, out=table, casting="same_kind")
    return table.reshape(-1)


class PlannedSparseKernel:
    """Zero-allocation planned sparse update.

    At plan time the domain's neighbor lists become one flat gather
    table (:func:`build_sparse_gather_table`) driving a
    :class:`~repro.core.plan.KernelPlan` whose "grid" is the 1-D fluid
    list — the one-pass :meth:`~repro.core.plan.KernelPlan.advance` is
    shared verbatim with the dense planned kernel, so the sparse hot
    loop inherits its zero-per-step-heap guarantee (tracemalloc-asserted
    in the tests).  The update is not in place: ``step`` writes the
    other array of a pair, the caller's first array and the plan's
    :attr:`~repro.core.plan.KernelPlan.buffer`, and returns it, so the
    two alternate step by step.
    """

    name = SPARSE_KERNEL

    def __init__(
        self,
        domain: SparseDomain,
        tau: float,
        order: int | None = None,
        dtype: "np.dtype | str | None" = None,
    ) -> None:
        self.domain = domain
        self.lattice = domain.lattice
        self.dtype = resolve_dtype(dtype)
        self.collision = BGKCollision(self.lattice, tau, order=order)
        index = index_dtype(self.lattice.q * domain.num_fluid, self.dtype)
        self.plan = KernelPlan(
            self.lattice,
            (domain.num_fluid,),
            order=self.collision.order,
            dtype=self.dtype,
            gather=build_sparse_gather_table(domain, index),
        )
        self._partner: np.ndarray | None = None

    def _check_input(self, f: np.ndarray) -> None:
        if f.dtype != self.dtype:
            raise LatticeError(
                f"planned sparse kernel is built for {self.dtype.name}, got "
                f"{f.dtype.name} populations (rebuild the kernel or cast "
                "the field explicitly)"
            )
        if not f.flags.c_contiguous:
            raise LatticeError(
                "planned sparse kernel requires C-contiguous populations "
                "(got a strided view; pass np.ascontiguousarray(f))"
            )
        if f.shape != (self.lattice.q, self.domain.num_fluid):
            raise LatticeError(
                f"populations shape {f.shape} does not match the planned "
                f"domain ({self.lattice.q}, {self.domain.num_fluid})"
            )

    def step(self, f: np.ndarray) -> np.ndarray:
        self._check_input(f)
        buffer = self.plan.buffer
        if f is buffer:
            out = self._partner
        else:
            self._partner, out = f, buffer
        self.plan.advance(f, out, self.collision.omega)
        return out


class SparseSimulation(_Driver):
    """BGK LBM on a :class:`SparseDomain` (indirect addressing).

    The update is *pull*-form: for every fluid node and velocity, the
    post-streaming population is gathered through the neighbor table,
    then collided, by a :class:`PlannedSparseKernel` (zero per-step
    allocations).  :meth:`run` is the dense driver's loop: with the
    ambient recorder enabled (:func:`repro.telemetry.get_telemetry`) it
    emits the same ``phase.*`` spans, and since walls are gather
    indices the fused step books all its time as collide, so
    ``phase.stream`` and ``phase.boundary`` read 0 s.
    """

    def __init__(
        self,
        lattice: VelocitySet | str,
        solid_mask: np.ndarray,
        tau: float = 1.0,
        order: int | None = None,
        force: Sequence[float] | None = None,
        dtype: "np.dtype | str | None" = None,
    ) -> None:
        self.lattice = get_lattice(lattice) if isinstance(lattice, str) else lattice
        if self.lattice.max_displacement != 1:
            raise LatticeError(
                "sparse half-way bounce-back supports k=1 lattices "
                f"(got {self.lattice.name} with k={self.lattice.max_displacement}); "
                "multi-speed lattices need multi-layer wall handling"
            )
        self.dtype = resolve_dtype(dtype)
        self.domain = SparseDomain(self.lattice, solid_mask)
        self.kernel = PlannedSparseKernel(
            self.domain, tau, order=order, dtype=self.dtype
        )
        self.collision = self.kernel.collision
        self.f = np.zeros((self.lattice.q, self.domain.num_fluid), dtype=self.dtype)
        #: Guo body force, fused into the plan's collide as on dense grids.
        self.forcing = (
            None if force is None else GuoForcing(self.lattice, tuple(force))
        )
        if self.forcing is not None:
            self.kernel.plan.set_forcing(self.forcing.force, self.collision.omega)
        self.time_step = 0
        self.timings = StepTimings()
        self.telemetry = get_telemetry()

    # -- setup ------------------------------------------------------------

    def initialize(self, rho: float | np.ndarray, u: np.ndarray | None = None) -> None:
        """Equilibrium initialisation on the fluid nodes.

        ``rho``/``u`` may be dense arrays over the bounding box or
        constants (``u=None`` = fluid at rest).
        """
        n = self.domain.num_fluid
        if np.isscalar(rho):
            rho_s = np.full(n, float(rho))
        else:
            rho_s = self.domain.gather_from_dense(np.asarray(rho, dtype=np.float64))
        if u is None:
            u_s = np.zeros((self.lattice.dim, n))
        else:
            u = np.asarray(u, dtype=np.float64)
            u_s = np.stack([self.domain.gather_from_dense(u[a]) for a in range(3)])
        self.f = equilibrium(
            self.lattice, rho_s, u_s, order=self.collision.order, dtype=self.dtype
        )
        self.time_step = 0
        self.timings = StepTimings()

    # -- stepping ------------------------------------------------------------

    def step(self) -> None:
        """One pull-stream + collide (+ Guo forcing) update."""
        t0 = time.perf_counter()
        self.f = self.kernel.step(self.f)
        self.time_step += 1
        # The sparse update is fused (no separate boundary phase — walls
        # are gather indices), so the whole step books as collide time.
        self.timings.steps += 1
        self.timings.collide_seconds += time.perf_counter() - t0

    def _check_finite(self) -> None:
        if not np.isfinite(self.f).all():
            raise StabilityError(
                f"non-finite populations at step {self.time_step} "
                f"(tau={self.collision.tau}, lattice={self.lattice.name}, "
                "sparse domain)"
            )

    # -- observables --------------------------------------------------------------

    def density_dense(self) -> np.ndarray:
        """Density scattered back onto the bounding box (NaN on solid)."""
        rho, _ = self.macroscopic()
        return self.domain.scatter(rho)

    def velocity_dense(self) -> np.ndarray:
        """Velocity scattered back onto the box, shape ``(D, *shape)``."""
        _, u = self.macroscopic()
        return np.stack([self.domain.scatter(u[a], fill=0.0) for a in range(3)])

    @property
    def num_cells(self) -> int:
        """Fluid sites — the N in the sparse MFLUP/s figure."""
        return self.domain.num_fluid

    def mflups(self) -> float:
        """Measured throughput so far (paper Eq. 4, fluid sites only)."""
        return self.timings.mflups(self.num_cells)

    @property
    def total_mass(self) -> float:
        return float(self.f.sum())

    @property
    def memory_bytes(self) -> int:
        """Population storage: Q x fluid nodes x itemsize (the sparse
        win; float32 halves it again, compounding with the node cut)."""
        return self.f.nbytes
