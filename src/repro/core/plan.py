"""Planned, zero-allocation stream+collide kernel and kernel selection.

The endpoint of the paper's §V single-node optimization ladder is a
kernel in which *everything that can be computed once is computed once*:
index arithmetic is precomputed (LoBr), loops are fused, and the hot
loop touches only preallocated memory.  :class:`KernelPlan` is the
Python analogue — before the first step it builds

* the flat gather table for pull-streaming (indices computed once per
  shape and process: periodic plans share one table per ``(lattice,
  shape, layout, index dtype)``, resolved on first use), into which
  static bounce-back walls can be folded
  (:meth:`KernelPlan.fold_bounce_back`, on a private copy); compiled
  plans index through int32 while every index fits
  (:func:`index_dtype`), plans without a compiler through ``np.intp``,
  the index type ``np.take`` reads without a per-call copy,
* dtype-cast velocity/weight tables (cached per lattice, see
  :meth:`~repro.lattice.VelocitySet.velocities_as`) and scalar
  constants, plus the Guo forcing constants when a body force is fused
  in (:meth:`KernelPlan.set_forcing`),
* the collide: the compiled C loop of ``collide.c`` with its block
  scratch, built once per process and dtype by
  :mod:`repro.core.compiled`, or — on a host without a C compiler —
  the numpy reference and its arena (``rho``, ``u``, ``cell``,
  ``term``, ``work``, and ``cu`` at third order), allocated on first
  use.  Every array the plan allocates for the loop (the scratch, the
  population :attr:`~KernelPlan.buffer`, the AoS collide target) starts
  on a cache line (:func:`aligned_empty`), so a step's speed does not
  depend on where the heap happened to place them.

:meth:`KernelPlan.advance` is the whole step in one call: the
compiled loop loads each block of cells through the gather table and
collides it into a second buffer, one pass over memory (the paper's
Fig. 2 loop with ``distr_adv`` never written); without a compiler
``np.take`` into that buffer and the reference collide in place write
the same bytes.  The index width changes the bytes read, never a value
loaded.  An AoS plan's table addresses the cell-major buffer,
so its step is that pass into a struct-of-arrays scratch plus one
scatter back (:meth:`KernelPlan.advance_aos`).
:meth:`PlannedKernel.step` alternates the caller's SoA
array with one plan-owned buffer; drivers that run boundaries between
streaming and collision call :meth:`KernelPlan.stream_into` and
:meth:`KernelPlan.collide_into` instead.  Either way a step makes zero
per-step heap allocations on either collide path (tracemalloc-asserted
in the tests).  Both collide paths perform the op sequence written
down in ``collide.c`` — elementwise IEEE operations in a fixed order,
no BLAS — so they write the same bytes, whatever the grid size; that
is also why a planned slab window matches the planned single domain
bit for bit.  :class:`~repro.core.simulation.Simulation` installs its
walls and forcing into the plan, so forced, walled cases run here too;
a custom collision operator (regularized, MRT) streams through the
plan and replaces only its collide.

:class:`KernelPlan` is the one optimized update of every domain kind:
dense grids step through :class:`PlannedKernel` (SoA or AoS), sparse
domains through :class:`~repro.core.sparse.PlannedSparseKernel` (a plan
over the fluid-site list) and halo-padded slabs through
:class:`~repro.parallel.plan.PlannedSlabKernel` (one window plan per
validity level).

The plan also carries the **dtype policy**: built for float32, the
whole update runs in single precision, halving the paper's
bytes-per-cell figure B(Q) — the knob its roofline model (Table II)
says roughly doubles bandwidth-bound throughput.

:func:`make_kernel` is the registry every layer above selects kernels
through (``Simulation(kernel=...)``, ``CaseSpec.kernel``, the CLI
``--kernel`` flag): ``naive`` (the executable spec) and ``planned``.
``kernel="auto"`` is a fixed alias for the production rung,
:data:`AUTO_RUNG` (``planned``): it consults no per-host state and runs
no timed step, so an ``auto`` request is the same workload, with the
same fingerprint, on every host.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import LatticeError
from ..lattice import VelocitySet
from . import compiled
from .equilibrium import equilibrium_order_for
from .fields import (
    LAYOUT_AOS,
    LAYOUT_SOA,
    resolve_dtype,
    resolve_layout,
    shared_table,
)
from .kernels import LBMKernel, NaiveKernel
from .streaming import pull_gather_rows

__all__ = [
    "AUTO_KERNEL",
    "AUTO_RUNG",
    "INDEX_LIMIT",
    "KernelPlan",
    "PlannedKernel",
    "aligned_empty",
    "available_kernels",
    "build_aos_gather_table",
    "build_gather_table",
    "build_slab_gather_table",
    "index_dtype",
    "make_kernel",
]


def aligned_empty(shape: Sequence[int], dtype: "np.dtype | str") -> np.ndarray:
    """An uninitialised C-contiguous array starting on a
    :data:`~repro.core.compiled.ALIGNMENT`-byte boundary.

    The one allocator of every array a :class:`KernelPlan` hands the
    compiled loop.  ``np.empty`` guarantees 16 bytes only, and the loop's
    speed depended on which of the four 16-byte offsets in a cache line
    its block scratch drew (``collide.c``'s alignment contract).
    """
    shape = tuple(int(s) for s in shape)
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    raw = np.empty(nbytes + compiled.ALIGNMENT, dtype=np.uint8)
    start = -raw.ctypes.data % compiled.ALIGNMENT
    return raw[start : start + nbytes].view(dtype).reshape(shape)


#: Source populations from which a gather table needs int64 indices:
#: below it every index fits int32.
INDEX_LIMIT = 2**31


def index_dtype(populations: int, dtype: "np.dtype | str | None") -> np.dtype:
    """The dtype of a gather table over ``populations`` source populations
    for a plan of population ``dtype``.

    int32 when this process runs the compiled loop for ``dtype`` and
    ``populations < INDEX_LIMIT``: half the bytes of an int64 table,
    which the one-pass step reads beside the populations.  Otherwise
    ``np.intp``: above the limit the loop takes int64, and the numpy
    reference streams with ``np.take``, which copies any other index
    type on every call.
    """
    if populations < INDEX_LIMIT and compiled.load(resolve_dtype(dtype)) is not None:
        return np.dtype(np.int32)
    return np.dtype(np.intp)


def build_gather_table(
    lattice: VelocitySet, shape: Sequence[int], index: "np.dtype | type" = np.intp
) -> np.ndarray:
    """Flat pull indices over the flattened ``(Q * N,)`` populations.

    ``table[i * N + flat(x)] = i * N + flat(x - c_i)`` (periodic), so one
    ``np.take(f.reshape(-1), table, out=...)`` advects every population —
    the paper's "minimize index calculation" transformation taken to its
    limit: a single gather with no per-step index arithmetic at all.
    The index math itself is :func:`~repro.core.streaming.pull_gather_rows`,
    which fills the ``(Q, N)`` table in place with the row offsets
    included, in the ``index`` dtype (see :func:`index_dtype`).
    """
    shape = tuple(int(s) for s in shape)
    n = int(np.prod(shape))
    # Deliberately left writable: np.take(mode="clip") copies read-only
    # index arrays into a fresh buffer on every call, which would turn
    # each step into a hidden field-sized allocation.
    return pull_gather_rows(lattice, shape, row_step=n, index=index).reshape(-1)


def build_aos_gather_table(
    lattice: VelocitySet, shape: Sequence[int], index: "np.dtype | type" = np.intp
) -> np.ndarray:
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
    rows = pull_gather_rows(lattice, shape, scale=lattice.q, row_step=1, index=index)
    return rows.reshape(-1)


def build_slab_gather_table(
    lattice: VelocitySet,
    padded_shape: Sequence[int],
    window: slice,
    index: "np.dtype | type" = np.intp,
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
    The table is written row by row in the ``index`` dtype.
    """
    padded_shape = tuple(int(s) for s in padded_shape)
    px = padded_shape[0]
    start, stop, _ = window.indices(px)
    if stop <= start:
        raise LatticeError(f"empty compute window {window} in {padded_shape}")
    coords = np.indices((stop - start, *padded_shape[1:]))
    n_pad = int(np.prod(padded_shape))
    rows = np.empty((lattice.q, coords[0].size), dtype=index)
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
        rows[i] = (flat + i * n_pad).ravel()
    return rows.reshape(-1)


#: Indices into a plan's constants array, in the order of ``collide.c``'s
#: ``K_*`` enum.
_K_KEEP, _K_OMEGA, _K_INV_CS2, _K_HALF_INV_CS2, _K_SIX_CS2, _K_CUBIC = range(6)


def _rule_terms(coefficients: np.ndarray, dtype: np.dtype) -> tuple:
    """The non-zero terms of one linear sum, as ``(index, kind, coef)``.

    Terms come in ascending index order; ``coef`` is cast to ``dtype``
    and ``kind`` is ``1``/``-1`` for a unit coefficient (a plain add or
    subtract) and ``0`` for any other (a product, then an add) — the
    "rule" of ``collide.c``'s op sequence.
    """
    terms = []
    for j, coef in enumerate(np.asarray(coefficients, dtype=dtype)):
        if coef != 0:
            terms.append((j, 1 if coef == 1 else -1 if coef == -1 else 0, coef))
    return tuple(terms)


def _rule_sum(acc: np.ndarray, rows, terms: tuple, tmp: np.ndarray) -> None:
    """``acc = sum(coef * rows[j])`` over ``terms``, by the rule.

    The first term initialises ``acc`` (a copy, a negation or a
    product); later unit terms add or subtract, and any other term is
    multiplied into ``tmp`` first and then added.  No terms give 0.
    """
    if not terms:
        acc.fill(0)
        return
    j, kind, coef = terms[0]
    if kind == 1:
        np.copyto(acc, rows[j])
    elif kind == -1:
        np.negative(rows[j], out=acc)
    else:
        np.multiply(rows[j], coef, out=acc)
    for j, kind, coef in terms[1:]:
        if kind == 1:
            np.add(acc, rows[j], out=acc)
        elif kind == -1:
            np.subtract(acc, rows[j], out=acc)
        else:
            np.multiply(rows[j], coef, out=tmp)
            np.add(acc, tmp, out=acc)


class _Arena:
    """Scratch of the numpy reference collide, allocated on its first call.

    Row views are prebuilt so the per-velocity operations are
    same-shape contiguous ufunc calls: broadcast in-place ops
    ((Q, N) ⊙ (N,)) would be correct too, but numpy routes them through
    its ufunc buffer whenever N is below the buffer size — a per-step
    heap allocation.
    """

    def __init__(self, q: int, d: int, n: int, order: int, dtype: np.dtype) -> None:
        self.rho = np.empty(n, dtype=dtype)  # density
        self.u = np.empty((d, n), dtype=dtype)  # momentum, then velocity
        self.cell = np.empty(n, dtype=dtype)  # |u|^2 terms; a sum's scratch
        self.term = np.empty((q, n), dtype=dtype)  # Hermite series, then feq
        self.work = np.empty((q, n), dtype=dtype)  # cu / cs2, then the source
        # cu_i = c_i . u is needed apart from cu / cs2 only at order 3
        self.cu = np.empty((q, n), dtype=dtype) if order >= 3 else None
        self.u_rows = tuple(self.u)
        self.term_rows = tuple(self.term)
        self.work_rows = tuple(self.work)
        self.cu_rows = self.work_rows if self.cu is None else tuple(self.cu)

    @property
    def nbytes(self) -> int:
        arrays = (self.rho, self.u, self.cell, self.term, self.work, self.cu)
        return int(sum(a.nbytes for a in arrays if a is not None))


class KernelPlan:
    """Precomputed state for one ``(lattice, shape, order, dtype)`` hot loop.

    Everything :meth:`PlannedKernel.step` needs that does not change
    between steps: the gather table, the cast constant tables, and the
    collide's scratch.  Plans are cheap to hold and safe to share
    between steps; they must not be shared between concurrently
    stepping kernels (the scratch is mutable state).

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
        q, d = lattice.q, lattice.dim
        n = int(np.prod(self.shape))
        self.num_cells = n
        #: x-slice of the source array this plan computes (None = whole).
        self.window: slice | None = None
        #: Spatial shape of the streaming *source* array (== shape for
        #: periodic plans; the padded shape for window plans).
        self.source_shape: tuple[int, ...] = self.shape
        # The compiled loop, built once per process and dtype (None: no
        # compiler, the numpy reference runs instead).
        self._native = compiled.load(self.dtype)
        # An explicit table (slab window, sparse domain) is the plan's
        # own; the periodic one is resolved on first use (see `gather`).
        if gather is None:
            #: dtype of the gather table's indices (see :func:`index_dtype`).
            self.index_dtype = index_dtype(q * n, self.dtype)
        else:
            self.index_dtype = self._check_table(gather, q * n)
        self._gather = gather
        self._shared_gather = False
        # AoS exit path: the collision writes a contiguous (Q, N) scratch
        # and one take through this transpose permutation scatters it
        # back into cell-major order.  Writing the strided AoS view
        # directly would be exact too, but numpy routes badly-strided
        # ufunc outputs through its buffered iterator — a per-call heap
        # allocation the planned discipline forbids.
        if self.layout == LAYOUT_AOS:
            self._aos_out = aligned_empty((q, n), self.dtype)
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
        self.w = lattice.weights_as(self.dtype)  # (Q,)
        # Scalar constants: computed in float64, cast to the dtype once
        # (as numpy casts a Python float operand); the omega pair is
        # filled by the first collide (see _set_omega).
        cs2 = lattice.cs2_float
        inv_cs2 = 1.0 / cs2
        self._k = np.zeros(6, dtype=self.dtype)
        self._k[_K_INV_CS2] = inv_cs2
        self._k[_K_HALF_INV_CS2] = 0.5 * inv_cs2
        self._k[_K_SIX_CS2] = 6.0 * cs2
        self._k[_K_CUBIC] = inv_cs2 * inv_cs2 / 6.0
        self._omega: float | None = None
        # The plan-owned population buffer (see `buffer`) and the numpy
        # reference's arena are allocated on first use.
        self._buffer: np.ndarray | None = None
        self._arena: _Arena | None = None
        #: How many static bounce-back masks are folded into ``gather``.
        self.folded_walls = 0
        # Guo forcing (set_forcing): the relaxation it was fixed for, the
        # momentum shift h = F/2 and the source S = M u + b, cast to the
        # dtype, plus the non-zero terms of M's rows for the reference.
        self._force_omega: float | None = None
        self._half_force: np.ndarray | None = None
        self._force_matrix: np.ndarray | None = None
        self._force_bias: np.ndarray | None = None
        self._force_terms: tuple = ()
        self._scratch: np.ndarray | None = None
        if self._native is not None:
            size = self._native.scratch_size(q, d)
            self._scratch = aligned_empty((size,), self.dtype)
            self._bind_native()

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
        collision scratch is sized for the window.  Used per validity
        level by :class:`~repro.parallel.plan.PlannedSlabKernel` (each
        deep-halo sub-step computes a different, shrinking window).
        """
        padded_shape = tuple(int(s) for s in padded_shape)
        start, stop, _ = window.indices(padded_shape[0])
        shape = (stop - start, *padded_shape[1:])
        index = index_dtype(lattice.q * int(np.prod(padded_shape)), dtype)
        plan = cls(
            lattice,
            shape,
            order=order,
            dtype=dtype,
            gather=build_slab_gather_table(lattice, padded_shape, window, index),
        )
        plan.window = slice(start, stop)
        plan.source_shape = padded_shape
        return plan

    @property
    def compiled(self) -> bool:
        """Whether :meth:`collide_into` runs the compiled C loop (else the
        byte-identical numpy reference)."""
        return self._native is not None

    @property
    def gather(self) -> np.ndarray:
        """The flat pull table the plan streams through, of
        :attr:`index_dtype`.

        A periodic plan takes the process's one table for its
        ``(lattice, shape, layout, index dtype)``
        (:func:`~repro.core.fields.shared_table`), resolved here on first
        use so that a plan whose walls fold in (:meth:`fold_bounce_back`)
        never builds or holds a shared one.
        """
        if self._gather is None:
            key = (
                "gather",
                self.lattice.velocities.tobytes(),
                self.shape,
                self.layout,
                self.index_dtype.str,
            )
            self._gather = shared_table(key, self._periodic_table)
            self._shared_gather = True
        return self._gather

    def _periodic_table(self) -> np.ndarray:
        if self.layout == LAYOUT_AOS:
            return build_aos_gather_table(self.lattice, self.shape, self.index_dtype)
        return build_gather_table(self.lattice, self.shape, self.index_dtype)

    def _check_table(self, table: np.ndarray, size: int) -> np.dtype:
        """The index dtype of an explicit gather table, refused unless
        this plan's path streams through it as it is: a C-contiguous
        ``(Q * N,)`` array of int32 or int64 for the compiled loop, of
        ``np.intp`` for ``np.take``."""
        accepted = (np.int32, np.int64) if self._native is not None else (np.intp,)
        names = " or ".join(np.dtype(t).name for t in accepted)
        if (
            table.dtype not in accepted
            or table.shape != (size,)
            or not table.flags.c_contiguous
        ):
            raise LatticeError(
                f"this plan streams through a C-contiguous {names} table of "
                f"shape ({size},), got {table.dtype.name} {table.shape} "
                f"(contiguous: {table.flags.c_contiguous})"
            )
        return np.dtype(table.dtype)

    @property
    def nbytes(self) -> int:
        """Bytes held by the gather table and the scratch (diagnostics).

        A shared periodic table counts in the ``nbytes`` of every plan
        that streams through it.
        """
        arrays = (
            self.gather,
            self._buffer,
            self._aos_out,
            self._soa_index,
            self._scratch,
        )
        total = sum(a.nbytes for a in arrays if a is not None)
        if self._arena is not None:
            total += self._arena.nbytes
        return int(total)

    @property
    def buffer(self) -> np.ndarray:
        """A plan-owned C-contiguous ``(Q, *shape)`` population array of
        the plan's dtype, allocated on first use: the second array of
        :meth:`PlannedKernel.step`'s pair, or a window's scratch."""
        if self._buffer is None:
            self._buffer = aligned_empty((self.lattice.q, *self.shape), self.dtype)
        return self._buffer

    def _bind_native(self) -> None:
        """The compiled loop's fixed arguments: sizes and the addresses of
        the plan-owned tables (the plan keeps each array alive).

        The loop assumes its scratch starts on a cache line, so a
        scratch that does not is refused here, before the loop can see
        it (undefined behaviour in C, not merely a slower step).
        """
        if self._scratch.ctypes.data % compiled.ALIGNMENT:
            raise LatticeError(
                f"the compiled collide's scratch must start on a "
                f"{compiled.ALIGNMENT}-byte boundary, got address "
                f"{self._scratch.ctypes.data:#x}"
            )
        lat = self.lattice
        forced = self._force_matrix is not None
        self._native_args = (
            self.num_cells,
            lat.q,
            lat.dim,
            self.order,
            self.c.ctypes.data,
            self.w.ctypes.data,
            self._k.ctypes.data,
            self._half_force.ctypes.data if forced else None,
            self._force_matrix.ctypes.data if forced else None,
            self._force_bias.ctypes.data if forced else None,
            self._scratch.ctypes.data,
        )

    # -- walls and forcing carried by the plan ---------------------------

    def fold_bounce_back(self, solid_mask: np.ndarray) -> None:
        """Fold full-way bounce-back at ``solid_mask`` into the gather table.

        At every solid cell ``x`` the entry for velocity ``i`` takes the
        entry of ``opp(i)``, so the gather that streams also reverses the
        populations sitting on solid nodes: byte-identical to streaming
        followed by :meth:`BounceBackWalls.apply
        <repro.core.boundary.BounceBackWalls.apply>`, at no per-step
        cost.  The fold is a pure index permutation done as pairwise row
        swaps over the solid cells.  It swaps rows of the plan's own
        table: a plan that has not resolved its periodic table builds a
        private one, and one that streams through the shared table
        copies it first.  Masks fold in call order, matching the order
        the boundary operators would have run in.
        """
        mask = np.asarray(solid_mask, dtype=bool)
        if mask.shape != self.shape:
            raise LatticeError(
                f"solid mask shape {mask.shape} != plan grid {self.shape}"
            )
        if self._gather is None:
            self._gather = self._periodic_table()
        elif self._shared_gather:
            self._gather = self._gather.copy()
            self._shared_gather = False
        cells = np.flatnonzero(mask)
        table = self._gather.reshape(self.lattice.q, self.num_cells)
        for i, j in enumerate(self.lattice.opposite):
            if i < j:
                held = table[i, cells]
                table[i, cells] = table[j, cells]
                table[j, cells] = held
        self.folded_walls += 1

    @property
    def forced(self) -> bool:
        """Whether :meth:`set_forcing` fused a body force into the collide."""
        return self._force_omega is not None

    def set_forcing(self, force: Sequence[float], omega: float) -> None:
        """Fuse Guo et al. (2002) forcing into :meth:`collide_into`.

        The collision then shifts the momentum by ``F/2`` before the
        equilibrium and adds the source term after relaxation — the
        scheme of :class:`~repro.core.forcing.GuoForcing`, rewritten as
        ``S_i = A_i cu_i + B_i - C_i (u . F)`` with the per-velocity
        constants ``C_i = (1 - omega/2) w_i / cs2``,
        ``B_i = C_i (c_i . F)`` and ``A_i = B_i / cs2``.  Being linear
        in ``u``, the source is ``S_i = sum_a M_ia u_a + b_i``, summed
        per velocity by the op sequence's rule.  ``omega`` is fixed
        here, with the constants.
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
        self._force_matrix = np.ascontiguousarray(matrix, dtype=self.dtype)
        self._force_bias = np.ascontiguousarray(scale * c_dot_f, dtype=self.dtype)
        self._half_force = np.ascontiguousarray(0.5 * force, dtype=self.dtype)
        self._force_terms = tuple(
            _rule_terms(row, self.dtype) for row in self._force_matrix
        )
        self._force_omega = float(omega)
        if self._native is not None:
            self._bind_native()

    # -- the planned update --------------------------------------------

    def _source(self, f: np.ndarray) -> np.ndarray:
        """``f`` in the physical order the gather table indexes.

        SoA plans index the array's own C order.  AoS plans index the
        cell-major physical buffer — ``f`` arrives as the logical
        ``(Q, *shape)`` transposed view over it, and ``moveaxis`` back
        recovers the contiguous buffer without copying.
        """
        return np.moveaxis(f, 0, -1) if self.layout == LAYOUT_AOS else f

    def _scatter(self, out: np.ndarray) -> None:
        """Copy the AoS plan's struct-of-arrays scratch into the logical
        AoS array ``out``, through the transpose permutation in one
        ``np.take``: an exact permutation (bytes unchanged), so both
        layouts produce identical populations per dtype; the pass is the
        layout's genuine, measurable scatter cost."""
        np.take(
            self._aos_out_flat,
            self._soa_index,
            out=np.moveaxis(out, 0, -1).reshape(-1),
            mode="clip",
        )

    def collide_native(self, src: np.ndarray, out: np.ndarray, omega: float) -> None:
        """Collide SoA ``src`` into the layout-native logical array ``out``.

        SoA writes straight through :meth:`collide_into`.  AoS collides
        into the plan's contiguous scratch and scatters it back
        (:meth:`_scatter`).
        """
        if self.layout == LAYOUT_AOS:
            self.collide_into(src, self._aos_out, omega)
            self._scatter(out)
        else:
            self.collide_into(src, out.reshape(self.lattice.q, -1), omega)

    def stream_into(self, f: np.ndarray, out: np.ndarray) -> None:
        """Advect ``f`` into ``out`` via the precomputed gather table.

        ``f`` is the layout-native pre-stream array (as for
        :meth:`advance`); ``out`` is any C-contiguous array of the plan's
        dtype with ``Q * N`` elements, filled in struct-of-arrays order
        (the scratch side), whatever the plan's source layout, and
        sharing no memory with ``f``.  A compiled plan gathers in C
        (``repro_gather``), which reads its int32 table as it is; the
        reference takes ``np.take`` through its ``np.intp`` table, with
        ``mode="clip"``, which writes straight into ``out`` (the default
        ``mode="raise"`` routes through a full-size bounce buffer, a
        hidden field-sized allocation per step).  The table's indices
        are in-bounds by construction, so clipping never fires.
        """
        q, n = self.lattice.q, self.num_cells
        source = self._source(f)
        # a view for any C-contiguous out; anything else fails the check
        fits = out.flags.c_contiguous and out.size == q * n
        rows = out.reshape(q, n) if fits else out
        self._check_buffers("stream", source, self._source_layout, rows, (q, n))
        if np.may_share_memory(source, out):
            raise LatticeError("stream f and out must not overlap")
        table = self.gather
        if self._native is None:
            np.take(source.reshape(-1), table, out=rows.reshape(-1), mode="clip")
        else:
            self._native.gather(
                source.ctypes.data,
                table.ctypes.data,
                table.itemsize,
                rows.ctypes.data,
                table.size,
            )

    @property
    def _source_layout(self) -> tuple[int, ...]:
        """Shape of the layout-native source :meth:`_source` returns."""
        if self.layout == LAYOUT_AOS:
            return (*self.source_shape, self.lattice.q)
        return (self.lattice.q, *self.source_shape)

    def _set_omega(self, omega: float) -> None:
        self._k[_K_KEEP] = 1.0 - omega
        self._k[_K_OMEGA] = omega
        self._omega = omega

    def _check_omega(self, omega: float) -> None:
        if self._force_omega is not None and omega != self._force_omega:
            raise LatticeError(
                f"plan forcing was fixed for omega={self._force_omega}, "
                f"collide called with omega={omega}"
            )

    def _check_buffers(self, call: str, src, src_shape, out, out_shape) -> None:
        """Refuse arrays the loop cannot address as plain rows of the
        plan's dtype (checked before any pointer is passed)."""
        for role, array, shape in (("src", src, src_shape), ("out", out, out_shape)):
            if (
                array.shape != shape
                or array.dtype != self.dtype
                or not array.flags.c_contiguous
            ):
                raise LatticeError(
                    f"{call} {role} must be a C-contiguous {self.dtype.name} "
                    f"array of shape {shape}, got {array.dtype.name} "
                    f"{array.shape}"
                )
        if not out.flags.writeable:
            raise LatticeError(f"{call} out is read-only")

    def advance(self, src: np.ndarray, out: np.ndarray, omega: float) -> None:
        """One whole step: stream ``src`` through the gather table and
        collide the streamed populations into ``out``.

        ``src`` is the layout-native ``(Q, *source_shape)`` pre-stream
        array: C-contiguous under SoA, the logical view over a
        C-contiguous cell-major buffer under AoS (the AoS table addresses
        that buffer).  ``out`` is a C-contiguous struct-of-arrays
        ``(Q, *shape)`` array sharing no memory with it; both have the
        plan's dtype.  The compiled loop loads each block of cells
        through the plan's table (int32 or int64, :attr:`index_dtype`),
        so streaming and collision are one pass and the post-stream
        populations are never stored.  Without a compiler, ``np.take``
        into ``out`` and then :meth:`_collide_reference` in place write
        the same bytes.
        """
        self._check_omega(omega)
        q = self.lattice.q
        source = self._source(src)
        self._check_buffers(
            "advance", source, self._source_layout, out, (q, *self.shape)
        )
        # The table reads any cell of src at any point of the pass.
        if np.may_share_memory(src, out):
            raise LatticeError("advance src and out must not overlap")
        if omega != self._omega:
            self._set_omega(omega)
        table = self.gather
        if self._native is None:
            rows = out.reshape(q, self.num_cells)
            np.take(source.reshape(-1), table, out=rows.reshape(-1), mode="clip")
            self._collide_reference(rows, rows)
        else:
            self._native.fn(
                source.ctypes.data,
                table.ctypes.data,
                table.itemsize,
                out.ctypes.data,
                *self._native_args,
            )

    def advance_aos(self, f: np.ndarray, omega: float) -> None:
        """One whole step of an AoS plan, in place and in two passes:
        :meth:`advance` from the cell-major ``f`` into the plan's
        struct-of-arrays scratch, then :meth:`_scatter` back into ``f``."""
        self.advance(f, self._aos_out.reshape(self.lattice.q, *self.shape), omega)
        self._scatter(f)

    def collide_into(self, src: np.ndarray, out_flat: np.ndarray, omega: float) -> None:
        """Relax post-streaming populations ``src`` (shape ``(Q, N)``)
        into ``out_flat``.

        ``src`` may be any ``(Q, N)`` view of a caller-owned buffer (the
        split path the simulation driver uses so boundary conditions can
        run between streaming and collision), or ``out_flat`` itself (an
        in-place collide, as the slab's window does).  The result is
        ``(1 - omega) src + omega feq(src)``, plus the Guo source when
        :meth:`set_forcing` installed a body force, computed by the op
        sequence written down in ``collide.c``: by the compiled loop when
        this process built it, else by :meth:`_collide_reference` — the
        same bytes either way.
        """
        self._check_omega(omega)
        shape = (self.lattice.q, self.num_cells)
        self._check_buffers("collide", src, shape, out_flat, shape)
        if omega != self._omega:
            self._set_omega(omega)
        if self._native is None:
            self._collide_reference(src, out_flat)
        else:
            self._native.fn(
                src.ctypes.data, None, 0, out_flat.ctypes.data, *self._native_args
            )

    def _collide_reference(self, src: np.ndarray, out_flat: np.ndarray) -> None:
        """The numpy reference: ``collide.c``'s op sequence, one ``out=``
        ufunc call per step, over the lazily allocated arena."""
        if self._arena is None:
            lat = self.lattice
            self._arena = _Arena(lat.q, lat.dim, self.num_cells, self.order, self.dtype)
            # The sums of the op sequence: momentum over velocities, per
            # axis, and c_i . u over axes, per velocity.
            self._moment_terms = tuple(_rule_terms(col, self.dtype) for col in self.c.T)
            self._cu_terms = tuple(_rule_terms(row, self.dtype) for row in self.c)
        ar, k, order = self._arena, self._k, self.order
        rho, cell, term, work, cu = ar.rho, ar.cell, ar.term, ar.work, ar.cu
        u_rows, term_rows, work_rows = ar.u_rows, ar.term_rows, ar.work_rows

        # 1. rho = f_0 + f_1 + ..., rows added in ascending i
        np.copyto(rho, src[0])
        for i in range(1, self.lattice.q):
            np.add(rho, src[i], out=rho)
        # 2-3. u_a = (m_a + F_a/2) / rho, m_a = sum_i c_ia f_i by the rule
        forced = self._force_omega is not None
        for a, (u_row, terms) in enumerate(zip(u_rows, self._moment_terms)):
            _rule_sum(u_row, src, terms, cell)
            if forced and self._half_force[a] != 0:
                np.add(u_row, self._half_force[a], out=u_row)
            np.divide(u_row, rho, out=u_row)
        # 4. cell = |u|^2 / (2 cs2), squared row by row through a term row
        if order >= 2:
            squares = term_rows[0]
            np.multiply(u_rows[0], u_rows[0], out=cell)
            for u_row in u_rows[1:]:
                np.multiply(u_row, u_row, out=squares)
                np.add(cell, squares, out=cell)
            np.multiply(cell, k[_K_HALF_INV_CS2], out=cell)

        # 5. cu_i = c_i . u by the rule, then the Hermite series at the
        # plan's order (paper Eqs. 2/3) with work = cu / cs2
        for cu_row, terms in zip(ar.cu_rows, self._cu_terms):
            _rule_sum(cu_row, u_rows, terms, term_rows[0])
        np.multiply(work if cu is None else cu, k[_K_INV_CS2], out=work)
        if order >= 2:
            np.multiply(work, work, out=term)
            np.multiply(term, 0.5, out=term)
            np.add(term, work, out=term)
            np.add(term, 1.0, out=term)
            for term_row in term_rows:
                np.subtract(term_row, cell, out=term_row)
        else:
            np.add(work, 1.0, out=term)
        if order >= 3:
            np.multiply(cell, k[_K_SIX_CS2], out=cell)  # 3 |u|^2
            np.multiply(cu, cu, out=work)
            np.multiply(work, k[_K_INV_CS2], out=work)
            for work_row in work_rows:
                np.subtract(work_row, cell, out=work_row)
            np.multiply(work, cu, out=work)
            np.multiply(work, k[_K_CUBIC], out=work)
            np.add(term, work, out=term)

        # feq = term w_i rho, then out = (1 - omega) src + omega feq
        for term_row, weight in zip(term_rows, self.w):
            np.multiply(term_row, weight, out=term_row)
            np.multiply(term_row, rho, out=term_row)
        np.multiply(src, k[_K_KEEP], out=out_flat)
        np.multiply(term, k[_K_OMEGA], out=term)
        np.add(out_flat, term, out=out_flat)
        if forced:  # Guo source S = M u + b
            sources = zip(work_rows, self._force_terms, self._force_bias)
            for work_row, terms, bias in sources:
                _rule_sum(work_row, u_rows, terms, cell)
                if bias != 0:
                    np.add(work_row, bias, out=work_row)
            np.add(out_flat, work, out=out_flat)


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
        # The caller's array of the pair step() alternates (SoA).
        self._partner: np.ndarray | None = None
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
        """One stream+collide step.  SoA populations take one
        :meth:`KernelPlan.advance` into the other array of a pair, the
        caller's first array and the plan's :attr:`~KernelPlan.buffer`,
        which alternate; AoS populations are advanced back into ``f``
        (:meth:`KernelPlan.advance_aos`)."""
        self._check_input(f)
        plan = self.plan_for(f.shape[1:])
        if self.layout == LAYOUT_AOS:
            plan.advance_aos(f, self.collision.omega)
            return f
        buffer = plan.buffer
        if f is buffer:
            out = self._partner
        else:
            self._partner, out = f, buffer
        plan.advance(f, out, self.collision.omega)
        return out

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

#: Name -> kernel class of the kernels :func:`make_kernel` builds.
KERNELS: dict[str, type[LBMKernel]] = {
    "naive": NaiveKernel,
    "planned": PlannedKernel,
}

#: Name of :class:`~repro.core.sparse.PlannedSparseKernel`.  It streams a
#: :class:`~repro.core.sparse.SparseDomain`, which only
#: :class:`~repro.core.sparse.SparseSimulation` builds, so it is listed
#: here by name: :func:`available_kernels` names it whether or not
#: ``repro.core.sparse`` has been imported, and :func:`make_kernel`
#: refuses it.
SPARSE_KERNEL = "sparse-planned"

#: The selector name that aliases :data:`AUTO_RUNG`.
AUTO_KERNEL = "auto"

#: The rung ``kernel="auto"`` names.  ``planned`` wins every committed
#: bench row (every lattice x dtype cell), so the alias is fixed:
#: resolving it reads no per-host state, and an ``auto`` spec
#: fingerprints like a ``planned`` one everywhere.
AUTO_RUNG = "planned"


def available_kernels() -> tuple[str, ...]:
    """Names of all selectable kernels, sorted (excludes ``"auto"``)."""
    return tuple(sorted((*KERNELS, SPARSE_KERNEL)))


def make_kernel(
    kernel: "str | LBMKernel",
    lattice: VelocitySet,
    tau: float,
    order: int | None = None,
    dtype: "np.dtype | str | None" = None,
    shape: Sequence[int] | None = None,
    layout: str | None = None,
) -> LBMKernel:
    """Resolve a kernel selection to a ready instance.

    ``kernel`` may be an :class:`LBMKernel` instance (returned as-is), a
    registry name, or ``"auto"`` (the :data:`AUTO_RUNG` alias).
    ``dtype`` and ``shape`` matter only to the planned kernel — the
    naive kernel adapts to whatever dtype the populations carry.

    ``layout`` selects the persistent field's physical order; only the
    planned kernel supports ``"aos"`` (its plan remaps the gather
    table).

    :data:`SPARSE_KERNEL` is available but streams a
    :class:`~repro.core.sparse.SparseDomain`, which only
    :class:`~repro.core.sparse.SparseSimulation` builds; it is refused
    here.
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
    if key == AUTO_KERNEL:
        key = AUTO_RUNG
    if key == SPARSE_KERNEL:
        raise LatticeError(
            f"kernel {kernel!r} streams a SparseDomain; SparseSimulation "
            "builds it"
        )
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
