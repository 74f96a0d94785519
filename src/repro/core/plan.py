"""Planned, zero-allocation stream+collide kernel and kernel selection.

The endpoint of the paper's §V single-node optimization ladder is a
kernel in which *everything that can be computed once is computed once*:
index arithmetic is precomputed (LoBr), loops are fused, and the hot
loop touches only preallocated memory.  :class:`KernelPlan` is the
Python analogue — at construction it builds

* the flat gather table for pull-streaming (one ``np.take`` per step,
  indices computed once per shape), into which static bounce-back walls
  can be folded (:meth:`KernelPlan.fold_bounce_back`),
* dtype-cast velocity/weight tables (cached per lattice, see
  :meth:`~repro.lattice.VelocitySet.velocities_as`), plus the Guo
  forcing constants when a body force is fused in
  (:meth:`KernelPlan.set_forcing`),
* a scratch arena (``adv``, ``rho``, ``u``, ``term``, ``work``,
  ``cell``, and ``cu`` at third order) sized for the grid,

so :meth:`PlannedKernel.step` performs the full stream + moments +
equilibrium + relax (+ forcing) update exclusively through ``out=``
ufunc calls: zero per-step heap allocations (tracemalloc-asserted in
the tests).  :class:`~repro.core.simulation.Simulation` installs its
walls and forcing into the plan, so forced, walled cases run here too.

The plan also carries the **dtype policy**: built for float32, the
whole update runs in single precision, halving the paper's
bytes-per-cell figure B(Q) — the knob its roofline model (Table II)
says roughly doubles bandwidth-bound throughput.

:func:`make_kernel` is the registry every layer above selects kernels
through (``Simulation(kernel=...)``, ``CaseSpec.kernel``, the CLI
``--kernel`` flag).  ``kernel="auto"`` is a fixed alias for the
production rung, :data:`AUTO_RUNG` (``planned``; ``sparse-planned`` on
a sparse domain): it consults no per-host state and runs no timed
step, so an ``auto`` request is the same workload, with the same
fingerprint, on every host.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import LatticeError
from ..lattice import VelocitySet
from .equilibrium import equilibrium_order_for
from .fields import LAYOUT_AOS, LAYOUT_SOA, resolve_dtype, resolve_layout
from .kernels import FusedGatherKernel, LBMKernel, NaiveKernel, RollKernel
from .streaming import pull_gather_rows

__all__ = [
    "AUTO_KERNEL",
    "AUTO_RUNG",
    "KernelPlan",
    "PlannedKernel",
    "available_kernels",
    "build_aos_gather_table",
    "build_gather_table",
    "build_slab_gather_table",
    "make_kernel",
]


def build_gather_table(lattice: VelocitySet, shape: Sequence[int]) -> np.ndarray:
    """Flat pull indices over the flattened ``(Q * N,)`` populations.

    ``table[i * N + flat(x)] = i * N + flat(x - c_i)`` (periodic), so one
    ``np.take(f.reshape(-1), table, out=...)`` advects every population —
    the paper's "minimize index calculation" transformation taken to its
    limit: a single gather with no per-step index arithmetic at all.
    The index math itself is :func:`~repro.core.streaming.pull_gather_rows`
    (shared with :class:`~repro.core.kernels.FusedGatherKernel`), which
    fills the ``(Q, N)`` table in place with the row offsets included.
    """
    shape = tuple(int(s) for s in shape)
    n = int(np.prod(shape))
    # Deliberately left writable: np.take(mode="clip") copies read-only
    # index arrays into a fresh buffer on every call, which would turn
    # each step into a hidden field-sized allocation.
    return pull_gather_rows(lattice, shape, row_step=n).reshape(-1)


def build_aos_gather_table(lattice: VelocitySet, shape: Sequence[int]) -> np.ndarray:
    """Flat pull indices from an **array-of-structs** source buffer.

    AoS stores the populations of one cell contiguously — the flat index
    of ``(cell x, velocity i)`` is ``flat(x) * Q + i`` instead of SoA's
    ``i * N + flat(x)``.  ``table[i * N + flat(x)] = flat(x - c_i) * Q + i``,
    so one ``np.take`` through it streams out of AoS storage *and*
    transposes into the plan's struct-of-arrays scratch in the same
    gather — the "plan-time index-table remapping" that lets both
    layouts share one kernel body (paper §IV's layout study).
    """
    shape = tuple(int(s) for s in shape)
    return pull_gather_rows(lattice, shape, scale=lattice.q, row_step=1).reshape(-1)


def build_slab_gather_table(
    lattice: VelocitySet, padded_shape: Sequence[int], window: slice
) -> np.ndarray:
    """Flat pull indices from a halo-padded slab into an x-window of it.

    ``table[i * Nw + flat_w(x)] = i * Npad + flat_pad(x - c_i)``, where
    destinations range over the compute ``window`` (an x-slice of the
    padded array) and sources live in the *full* padded array: periodic
    along y/z, **non-wrapping** along x — the 1-D slab decomposition
    axis, where wrap-around data arrives by halo exchange instead.  One
    ``np.take`` through this table therefore streams *and* extracts the
    valid window in a single gather, the halo-padded counterpart of
    :func:`build_gather_table`.

    Every source must lie inside the padded array; that holds exactly
    when the window leaves ``k = max_displacement`` planes of padding on
    each side (the deep-halo validity invariant), and is verified here
    so a mis-sized window fails at plan build, not as silent clipping.
    """
    padded_shape = tuple(int(s) for s in padded_shape)
    px = padded_shape[0]
    start, stop, _ = window.indices(px)
    if stop <= start:
        raise LatticeError(f"empty compute window {window} in {padded_shape}")
    coords = np.indices((stop - start, *padded_shape[1:]))
    n_pad = int(np.prod(padded_shape))
    rows = []
    for i, c in enumerate(lattice.velocities):
        sx = coords[0] + start - int(c[0])  # non-wrapping decomposed axis
        if sx.min() < 0 or sx.max() >= px:
            raise LatticeError(
                f"window {start}:{stop} needs sources outside the padded "
                f"array (x extent {px}); widen the padding by "
                f"{lattice.max_displacement} planes per side"
            )
        flat = sx
        for axis in range(1, len(padded_shape)):
            src = (coords[axis] - int(c[axis])) % padded_shape[axis]
            flat = flat * padded_shape[axis] + src
        rows.append((flat + i * n_pad).ravel())
    return np.ascontiguousarray(np.concatenate(rows))


class KernelPlan:
    """Precomputed state for one ``(lattice, shape, order, dtype)`` hot loop.

    Everything :meth:`PlannedKernel.step` needs that does not change
    between steps: the gather table, the cast constant tables, and the
    scratch arena.  Plans are cheap to hold and safe to share between
    steps; they must not be shared between concurrently stepping kernels
    (the arena is mutable state).

    ``shape`` is the plan's *compute* extent.  By default it is also the
    streaming source extent (periodic single domain); a plan built via
    :meth:`for_window` instead computes a movable x-window of a larger
    halo-padded array, gathering its sources from the padded array —
    the extension :class:`~repro.parallel.plan.PlannedSlabKernel` rides.
    """

    def __init__(
        self,
        lattice: VelocitySet,
        shape: Sequence[int],
        order: int | None = None,
        dtype: "np.dtype | str | None" = None,
        gather: np.ndarray | None = None,
        layout: str | None = None,
    ) -> None:
        self.lattice = lattice
        self.shape = tuple(int(s) for s in shape)
        # An explicit gather table may address any source topology (a
        # sparse fluid-site list is a 1-D "shape"); only default periodic
        # tables require the full lattice dimensionality.
        if any(s <= 0 for s in self.shape) or (
            gather is None and len(self.shape) != lattice.dim
        ):
            raise LatticeError(f"bad spatial shape {self.shape} for {lattice.name}")
        self.order = equilibrium_order_for(lattice, order)
        self.dtype = resolve_dtype(dtype)
        self.layout = resolve_layout(layout)
        q = lattice.q
        n = int(np.prod(self.shape))
        self.num_cells = n
        #: x-slice of the source array this plan computes (None = whole).
        self.window: slice | None = None
        #: Spatial shape of the streaming *source* array (== shape for
        #: periodic plans; the padded shape for window plans).
        self.source_shape: tuple[int, ...] = self.shape
        if gather is None:
            builder = (
                build_aos_gather_table
                if self.layout == LAYOUT_AOS
                else build_gather_table
            )
            gather = builder(lattice, self.shape)
        self.gather = gather
        # AoS exit path: the collision writes a contiguous (Q, N) scratch
        # and one take through this transpose permutation scatters it
        # back into cell-major order.  Writing the strided AoS view
        # directly would be exact too, but numpy routes badly-strided
        # ufunc outputs through its buffered iterator — a per-call heap
        # allocation the planned discipline forbids.
        if self.layout == LAYOUT_AOS:
            self._aos_out = np.empty((q, n), dtype=self.dtype)
            self._aos_out_flat = self._aos_out.reshape(-1)
            self._soa_index = np.ascontiguousarray(
                np.arange(q * n, dtype=np.int64).reshape(q, n).T.reshape(-1)
            )
        else:
            self._aos_out = None
            self._aos_out_flat = None
            self._soa_index = None
        # Constant tables, cast once (velocities_as caches per lattice).
        self.c = lattice.velocities_as(self.dtype)  # (Q, D)
        self.c_t = np.ascontiguousarray(self.c.T)  # (D, Q)
        self.w = lattice.weights_as(self.dtype)  # (Q,)
        # Scratch arena: the only memory the per-step update ever writes
        # besides the caller's field itself.  The post-streaming buffer
        # `adv` serves only the fused step_into path (the split
        # stream/collide path streams into the caller's own buffer), so
        # it is allocated lazily on the first fused step.
        self._adv: np.ndarray | None = None
        self._adv_flat: np.ndarray | None = None
        self.rho = np.empty(n, dtype=self.dtype)  # density
        self.u = np.empty((lattice.dim, n), dtype=self.dtype)  # velocity
        # c_i . u is needed on its own only by the third-order term; at
        # order <= 2 one dot with the pre-divided c / cs2 table writes
        # cu / cs2 straight into `work`, saving a (Q, N) buffer.
        if self.order >= 3:
            self.cu: np.ndarray | None = np.empty((q, n), dtype=self.dtype)
            self._c_over_cs2 = None
        else:
            self.cu = None
            self._c_over_cs2 = np.ascontiguousarray(
                lattice.velocities_as(np.float64) / lattice.cs2_float,
                dtype=self.dtype,
            )
        self.term = np.empty((q, n), dtype=self.dtype)  # Hermite series / feq
        self.work = np.empty((q, n), dtype=self.dtype)  # (Q, N) scratch
        self.cell = np.empty(n, dtype=self.dtype)  # per-cell scratch (u^2)
        # Row views + scalar weights, prebuilt so the hot loop's
        # per-velocity operations are same-shape contiguous ufunc calls.
        # Broadcast in-place ops ((Q, N) ⊙ (N,)) would be correct too,
        # but numpy routes them through its ufunc buffer whenever N is
        # below the buffer size — a per-step heap allocation.
        self._u_rows = tuple(self.u[a] for a in range(lattice.dim))
        self._term_rows = tuple(self.term[i] for i in range(q))
        self._work_rows = tuple(self.work[i] for i in range(q))
        self._w_scalars = tuple(float(w) for w in self.w)
        #: How many static bounce-back masks are folded into ``gather``.
        self.folded_walls = 0
        # Guo forcing (set_forcing): the relaxation it was fixed for, the
        # (u row, F_a / 2) momentum shifts, and the source S = M u + b.
        self._force_omega: float | None = None
        self._half_force: tuple = ()
        self._force_matrix: np.ndarray | None = None
        self._force_bias: tuple = ()

    @classmethod
    def for_window(
        cls,
        lattice: VelocitySet,
        padded_shape: Sequence[int],
        window: slice,
        order: int | None = None,
        dtype: "np.dtype | str | None" = None,
    ) -> "KernelPlan":
        """A plan computing one x-window of a halo-padded slab array.

        ``stream_into`` then expects the *padded* array as its source
        and the plan's window-sized buffer as its destination; the
        collision arena is sized for the window.  Used per validity
        level by :class:`~repro.parallel.plan.PlannedSlabKernel` (each
        deep-halo sub-step computes a different, shrinking window).
        """
        padded_shape = tuple(int(s) for s in padded_shape)
        start, stop, _ = window.indices(padded_shape[0])
        shape = (stop - start, *padded_shape[1:])
        plan = cls(
            lattice,
            shape,
            order=order,
            dtype=dtype,
            gather=build_slab_gather_table(lattice, padded_shape, window),
        )
        plan.window = slice(start, stop)
        plan.source_shape = padded_shape
        return plan

    @property
    def nbytes(self) -> int:
        """Bytes held by the arena + gather table (diagnostics)."""
        arrays = (
            self.gather,
            self.rho,
            self.u,
            self.term,
            self.work,
            self.cell,
        )
        extra = 0 if self._adv is None else self._adv.nbytes
        if self.cu is not None:
            extra += self.cu.nbytes
        if self._aos_out is not None:
            extra += self._aos_out.nbytes + self._soa_index.nbytes
        return int(sum(a.nbytes for a in arrays)) + extra

    def _fused_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """The (adv, adv_flat) pair for the fused path, allocated once."""
        if self._adv is None:
            self._adv = np.empty(
                (self.lattice.q, self.num_cells), dtype=self.dtype
            )
            self._adv_flat = self._adv.reshape(-1)
        return self._adv, self._adv_flat

    # -- walls and forcing carried by the plan ---------------------------

    def fold_bounce_back(self, solid_mask: np.ndarray) -> None:
        """Fold full-way bounce-back at ``solid_mask`` into the gather table.

        At every solid cell ``x`` the entry for velocity ``i`` takes the
        entry of ``opp(i)``, so the gather that streams also reverses the
        populations sitting on solid nodes: byte-identical to streaming
        followed by :meth:`BounceBackWalls.apply
        <repro.core.boundary.BounceBackWalls.apply>`, at no per-step
        cost.  The fold is a pure index permutation done as pairwise row
        swaps over the solid cells, so it needs no table-sized copy.
        Masks fold in call order, matching the order the boundary
        operators would have run in.
        """
        mask = np.asarray(solid_mask, dtype=bool)
        if mask.shape != self.shape:
            raise LatticeError(
                f"solid mask shape {mask.shape} != plan grid {self.shape}"
            )
        cells = np.flatnonzero(mask)
        table = self.gather.reshape(self.lattice.q, self.num_cells)
        for i, j in enumerate(self.lattice.opposite):
            if i < j:
                held = table[i, cells]
                table[i, cells] = table[j, cells]
                table[j, cells] = held
        self.folded_walls += 1

    @property
    def forced(self) -> bool:
        """Whether :meth:`set_forcing` fused a body force into the arena."""
        return self._force_omega is not None

    def set_forcing(self, force: Sequence[float], omega: float) -> None:
        """Fuse Guo et al. (2002) forcing into :meth:`collide_into`.

        The collision then shifts the momentum by ``F/2`` before the
        equilibrium and adds the source term after relaxation — the
        scheme of :class:`~repro.core.forcing.GuoForcing`, rewritten as
        ``S_i = A_i cu_i + B_i - C_i (u . F)`` with the per-velocity
        constants ``C_i = (1 - omega/2) w_i / cs2``,
        ``B_i = C_i (c_i . F)`` and ``A_i = B_i / cs2``.  Being linear
        in ``u``, the source is one ``(Q, D) x (D, N)`` product into the
        arena plus the constant ``B``, so a forced step stays
        allocation-free.  ``omega`` is fixed here, with the constants.
        """
        lat = self.lattice
        force = np.asarray(force, dtype=np.float64)
        if force.shape != (lat.dim,):
            raise LatticeError(
                f"force must have {lat.dim} components, got {force.shape}"
            )
        c = lat.velocities_as(np.float64)
        cs2 = lat.cs2_float
        scale = (1.0 - 0.5 * omega) * lat.weights / cs2  # C_i
        c_dot_f = c @ force
        # S_i = sum_a M_ia u_a + b_i with M_ia = C_i ((c_i.F) c_ia / cs2 - F_a)
        matrix = scale[:, None] * (c_dot_f[:, None] * c / cs2 - force[None, :])
        bias = scale * c_dot_f
        self._force_matrix = np.ascontiguousarray(matrix, dtype=self.dtype)
        self._force_bias = tuple(
            (row, float(b)) for row, b in zip(self._work_rows, bias) if b
        )
        self._half_force = tuple(
            (row, 0.5 * float(fa)) for row, fa in zip(self._u_rows, force) if fa
        )
        self._force_omega = float(omega)

    # -- the planned update --------------------------------------------

    def _flat_source(self, f: np.ndarray) -> np.ndarray:
        """``f`` as the flat buffer the gather table indexes.

        SoA plans index the array's own C order.  AoS plans index the
        cell-major physical buffer — ``f`` arrives as the logical
        ``(Q, *shape)`` transposed view over it, and ``moveaxis`` back
        recovers the contiguous buffer without copying.
        """
        if self.layout == LAYOUT_AOS:
            return np.moveaxis(f, 0, -1).reshape(-1)
        return f.reshape(-1)

    def collide_native(self, src: np.ndarray, out: np.ndarray, omega: float) -> None:
        """Collide SoA ``src`` into the layout-native logical array ``out``.

        SoA writes straight through :meth:`collide_into`.  AoS collides
        into the plan's contiguous scratch and scatters it back through
        the transpose permutation in one ``np.take`` — an exact
        permutation (bytes unchanged), so both layouts produce identical
        populations per dtype; the extra pass is the layout's genuine,
        measurable scatter cost.
        """
        if self.layout == LAYOUT_AOS:
            self.collide_into(src, self._aos_out, omega)
            np.take(
                self._aos_out_flat,
                self._soa_index,
                out=np.moveaxis(out, 0, -1).reshape(-1),
                mode="clip",
            )
        else:
            self.collide_into(src, out.reshape(self.lattice.q, -1), omega)

    def stream_into(self, f: np.ndarray, out: np.ndarray) -> None:
        """Advect ``f`` into ``out`` via the precomputed gather table.

        ``mode="clip"`` writes straight into ``out``; the default
        ``mode="raise"`` routes through a full-size bounce buffer (a
        hidden field-sized allocation per step).  The table's indices
        are in-bounds by construction, so clipping never fires.  ``out``
        is always struct-of-arrays (the scratch side), whatever the
        plan's source layout.
        """
        np.take(self._flat_source(f), self.gather, out=out.reshape(-1), mode="clip")

    def collide_into(self, src: np.ndarray, out_flat: np.ndarray, omega: float) -> None:
        """Relax post-streaming populations ``src`` (shape ``(Q, N)``)
        into ``out_flat`` using only ``out=`` ufunc calls on the arena.

        ``src`` may be the arena's own ``adv`` (the fused path) or any
        ``(Q, N)`` view of a caller-owned buffer (the split path the
        simulation driver uses so boundary conditions can run between
        streaming and collision).  ``src`` is read-only here; the result
        is ``(1 - omega) src + omega feq(src)``, plus the Guo source
        when :meth:`set_forcing` installed a body force.
        """
        rho, u, cu = self.rho, self.u, self.cu
        term, work, cell = self.term, self.work, self.cell
        cs2 = self.lattice.cs2_float
        inv_cs2 = 1.0 / cs2
        if self._force_omega is not None and omega != self._force_omega:
            raise LatticeError(
                f"plan forcing was fixed for omega={self._force_omega}, "
                f"collide called with omega={omega}"
            )

        # moments: rho = sum_i f_i ; u = (c^T f + F/2) / rho
        src.sum(axis=0, out=rho)
        np.dot(self.c_t, src, out=u)
        for u_row, half_force in self._half_force:
            u_row += half_force
        for u_row in self._u_rows:  # u /= rho without broadcast buffering
            u_row /= rho
        # work = cu/cs2 with cu_i = c_i . u (kept apart only at order 3)
        if cu is None:
            np.dot(self._c_over_cs2, u, out=work)
        else:
            np.dot(self.c, u, out=cu)
            np.multiply(cu, inv_cs2, out=work)
        # cell = u^2, squared row by row through a term row (free until
        # the series below) so u itself survives for the forcing source
        u_rows = self._u_rows
        squares = self._term_rows[0]
        np.multiply(u_rows[0], u_rows[0], out=cell)
        for u_row in u_rows[1:]:
            np.multiply(u_row, u_row, out=squares)
            cell += squares

        # Hermite series at the plan's order (paper Eqs. 2/3)
        if self.order >= 2:
            np.multiply(work, work, out=term)  # (cu/cs2)^2
            term *= 0.5
            term += work
            term += 1.0
            cell *= 0.5 * inv_cs2  # cell = u^2/(2 cs2)
            for term_row in self._term_rows:
                term_row -= cell
        else:
            np.add(work, 1.0, out=term)
        if self.order >= 3:
            cell *= 6.0 * cs2  # cell = 3 u^2 (undoes the 1/(2 cs2))
            np.multiply(cu, cu, out=work)
            work *= inv_cs2  # cu^2/cs2
            for work_row in self._work_rows:
                work_row -= cell
            work *= cu
            work *= inv_cs2 * inv_cs2 / 6.0
            term += work

        # feq = w rho term (into term), then out = (1-omega) src + omega feq
        for term_row, weight in zip(self._term_rows, self._w_scalars):
            term_row *= weight
            term_row *= rho
        np.multiply(src, 1.0 - omega, out=out_flat)
        term *= omega
        out_flat += term
        if self._force_matrix is not None:  # Guo source S = M u + b
            np.dot(self._force_matrix, u, out=work)
            for work_row, bias in self._force_bias:
                work_row += bias
            out_flat += work

    def step_into(self, f: np.ndarray, omega: float) -> np.ndarray:
        """One fused stream+collide step, result written back into ``f``."""
        adv, adv_flat = self._fused_buffers()
        self.stream_into(f, adv_flat)
        self.collide_native(adv, f, omega)
        return f


class PlannedKernel(LBMKernel):
    """Zero-allocation planned kernel (the ladder's measured endpoint).

    Holds a :class:`KernelPlan` built lazily for the first shape it
    sees (or eagerly when ``shape`` is given) and replays it every
    step.  Input populations must match the kernel's dtype — silently
    casting would reintroduce exactly the hidden full-lattice copies
    this kernel exists to eliminate.
    """

    name = "planned"

    def __init__(
        self,
        lattice: VelocitySet,
        tau: float,
        order: int | None = None,
        dtype: "np.dtype | str | None" = None,
        shape: Sequence[int] | None = None,
        layout: str | None = None,
    ) -> None:
        super().__init__(lattice, tau, order)
        self.dtype = resolve_dtype(dtype)
        self.layout = resolve_layout(layout)
        self._plan: KernelPlan | None = None
        if shape is not None:
            self._plan = KernelPlan(
                lattice,
                shape,
                order=self.collision.order,
                dtype=self.dtype,
                layout=self.layout,
            )

    def plan_for(self, shape: Sequence[int]) -> KernelPlan:
        """The plan for ``shape``, rebuilding only on a shape change."""
        shape = tuple(int(s) for s in shape)
        if self._plan is None or self._plan.shape != shape:
            self._plan = KernelPlan(
                self.lattice,
                shape,
                order=self.collision.order,
                dtype=self.dtype,
                layout=self.layout,
            )
        return self._plan

    def _check_dtype(self, f: np.ndarray) -> None:
        if f.dtype != self.dtype:
            raise LatticeError(
                f"planned kernel is built for {self.dtype.name}, got "
                f"{f.dtype.name} populations (rebuild the kernel or cast "
                "the field explicitly)"
            )

    def _check_input(self, f: np.ndarray) -> None:
        """Validate a *layout-native* persistent field array."""
        self._check_dtype(f)
        native = f if self.layout == LAYOUT_SOA else np.moveaxis(f, 0, -1)
        if not native.flags.c_contiguous:
            # reshape(-1) on a strided view returns a *copy*; the out=
            # writes would then land in a throwaway buffer and the
            # caller's array would silently keep its pre-step values.
            raise LatticeError(
                f"planned kernel ({self.layout} layout) requires "
                "layout-contiguous populations (got a strided view; pass "
                "an array whose physical order matches the layout)"
            )

    def _check_soa(self, f: np.ndarray) -> None:
        """Validate a struct-of-arrays scratch-side array."""
        self._check_dtype(f)
        if not f.flags.c_contiguous:
            raise LatticeError(
                "planned kernel requires C-contiguous populations "
                "(got a strided view; pass np.ascontiguousarray(f))"
            )

    def step(self, f: np.ndarray) -> np.ndarray:
        self._check_input(f)
        return self.plan_for(f.shape[1:]).step_into(f, self.collision.omega)

    def stream(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gather-table streaming into SoA ``out`` (split path for drivers)."""
        self._check_input(f)
        self._check_soa(out)
        self.plan_for(f.shape[1:]).stream_into(f, out)
        return out

    def collide(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Planned collision from SoA ``f`` into layout-native ``out``."""
        self._check_soa(f)
        if out is None:
            if self.layout == LAYOUT_AOS:
                raise LatticeError(
                    "aos planned kernel cannot collide in place: the "
                    "source is struct-of-arrays scratch; pass out="
                )
            out = f
        else:
            self._check_input(out)
        plan = self.plan_for(f.shape[1:])
        plan.collide_native(
            f.reshape(self.lattice.q, -1), out, self.collision.omega
        )
        return out


# -- kernel selection -------------------------------------------------------

#: Name -> kernel class; the single registry every selection path uses.
KERNELS: dict[str, type[LBMKernel]] = {
    "naive": NaiveKernel,
    "roll": RollKernel,
    "fused-gather": FusedGatherKernel,
    "planned": PlannedKernel,
}

#: The selector name that aliases :data:`AUTO_RUNG`.
AUTO_KERNEL = "auto"

#: The rung ``kernel="auto"`` names.  ``planned`` wins every committed
#: bench row (every lattice x dtype cell, and ``sparse-planned`` every
#: fill), so the alias is fixed: resolving it reads no per-host state,
#: and an ``auto`` spec fingerprints like a ``planned`` one everywhere.
AUTO_RUNG = "planned"


def available_kernels() -> tuple[str, ...]:
    """Names of all selectable kernels, sorted (excludes ``"auto"``)."""
    return tuple(sorted(KERNELS))


def make_kernel(
    kernel: "str | LBMKernel",
    lattice: VelocitySet,
    tau: float,
    order: int | None = None,
    dtype: "np.dtype | str | None" = None,
    shape: Sequence[int] | None = None,
    layout: str | None = None,
    domain=None,
) -> LBMKernel:
    """Resolve a kernel selection to a ready instance.

    ``kernel`` may be an :class:`LBMKernel` instance (returned as-is), a
    registry name, or ``"auto"`` (the :data:`AUTO_RUNG` alias).
    ``dtype`` and ``shape`` matter only to the planned kernel — the
    other kernels adapt to whatever dtype the populations carry.

    ``layout`` selects the persistent field's physical order; only the
    planned kernel supports ``"aos"`` (its plan remaps the gather
    table).

    ``domain`` (a :class:`~repro.core.sparse.SparseDomain`) switches to
    the sparse rung of the ladder: ``legacy``/``planned``/``auto`` (and
    the registry names ``sparse-legacy``/``sparse-planned``) resolve to
    indirect-addressing kernels streaming that domain's fluid sites.
    """
    layout = resolve_layout(layout)
    if isinstance(kernel, LBMKernel):
        if getattr(kernel, "layout", LAYOUT_SOA) != layout:
            raise LatticeError(
                f"kernel instance uses layout={getattr(kernel, 'layout', LAYOUT_SOA)!r}"
                f" but layout={layout!r} was requested"
            )
        return kernel
    key = str(kernel).lower()
    if domain is not None:
        if layout != LAYOUT_SOA:
            raise LatticeError(
                "sparse kernels store populations per fluid site "
                "(struct-of-arrays only); layout='aos' is a dense-grid axis"
            )
        from .sparse import make_sparse_kernel  # late: sparse builds on plan

        return make_sparse_kernel(key, domain, tau, order=order, dtype=dtype)
    if key.startswith("sparse-"):
        raise LatticeError(
            f"kernel {kernel!r} streams a SparseDomain; pass domain= "
            "(or select it through SparseSimulation(kernel=...))"
        )
    if key == AUTO_KERNEL:
        key = AUTO_RUNG
    if key not in KERNELS:
        raise LatticeError(
            f"unknown kernel {kernel!r}; available: "
            f"{', '.join(available_kernels())} (or 'auto')"
        )
    cls = KERNELS[key]
    if cls is PlannedKernel:
        return PlannedKernel(
            lattice, tau, order=order, dtype=dtype, shape=shape, layout=layout
        )
    if layout == LAYOUT_AOS:
        raise LatticeError(
            f"layout='aos' requires the planned kernel (got {kernel!r}); "
            "only its plan can remap the gather table per layout"
        )
    return cls(lattice, tau, order=order)
