"""Planned, zero-allocation stepping for halo-padded slab subdomains.

:class:`~repro.core.plan.PlannedKernel` makes the single-domain hot loop
allocation-free; this module carries the same transformation to the
paper's actual subject, the slab-parallel deep-halo algorithm
(§V-A/§V-E), and is the only way a slab steps.  The deep-halo update
is *windowed*: after an exchange the ghost planes are valid for
``depth`` streaming steps, and each sub-step may legally compute a
window that shrinks by ``k`` planes per side.  A
:class:`PlannedSlabKernel` therefore precomputes one
:meth:`~repro.core.plan.KernelPlan.for_window` plan per validity level:

* a gather table that streams **and** extracts the valid window in a
  single ``np.take`` (periodic along y/z, non-wrapping along the
  decomposed x axis — every source is in-bounds by the validity
  invariant, so no fill values are ever needed),
* a window-sized buffer for the plan's collide (the compiled loop, or
  its byte-identical numpy reference).

One step is then gather -> collide -> one strided write-back of the
window into the slab's padded array: zero per-step heap allocations
(tracemalloc-asserted in the tests).  The collide is the single-domain
planned kernel's op sequence, so the gathered slabs equal the planned
single domain bit for bit.

Planes outside the written window keep stale values; the validity check
that runs before every step (:meth:`PlannedSlabKernel.step` raises
:class:`~repro.errors.HaloValidityError` on an exhausted halo) and the
ledger in :class:`~repro.parallel.halo.HaloSlab` guarantee they are
never read before the next exchange overwrites them (property-tested
against the planned single domain across dtypes, depths and
schedules).
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..core.collision import BGKCollision
from ..core.fields import resolve_dtype
from ..core.plan import KernelPlan
from ..errors import HaloValidityError, LatticeError
from ..lattice import VelocitySet
from .halo import HaloSlab, HaloSpec

__all__ = ["PlannedSlabKernel"]


class PlannedSlabKernel:
    """Zero-allocation stream+collide for one slab geometry.

    Parameters
    ----------
    lattice:
        Velocity set.
    local_nx / ny / nz:
        Owned planes and cross-section of the slab this kernel serves.
    spec:
        Deep-halo geometry (width ``depth * k`` per side).
    tau / order / dtype:
        BGK relaxation time, equilibrium order, population dtype.

    A kernel instance may be shared by several slabs of identical
    geometry **stepped sequentially** (the SPMD emulation's execution
    model): the window arenas are mutable scratch, so concurrent steps
    through one instance would race.

    Each validity level owns an independent arena (``depth`` arenas per
    geometry).  Sharing one max-window arena across levels would shave
    that factor but requires carving every buffer from a flat pool to
    keep the BLAS-facing views contiguous; with the paper's depths of
    1-4 the simpler layout costs a few window-sized buffers.
    """

    name = "planned"

    def __init__(
        self,
        lattice: VelocitySet,
        local_nx: int,
        ny: int,
        nz: int,
        spec: HaloSpec,
        tau: float,
        order: int | None = None,
        dtype: "np.dtype | str | None" = None,
    ) -> None:
        self.lattice = lattice
        self.spec = spec
        self.collision = BGKCollision(lattice, tau, order=order)
        self.dtype = resolve_dtype(dtype)
        padded = (local_nx + 2 * spec.width, ny, nz)
        # One window plan per post-stream validity level: sub-step s of a
        # macro-cycle computes x in [width - v, width + local_nx + v) with
        # v = width - s*k, down to the bare interior at v = 0.
        self._plans: dict[int, KernelPlan] = {}
        #: (adv_2d, adv_4d) per validity level — the window plan's buffer
        #: and a prebuilt (Q, N) view of it, so the hot loop performs no
        #: per-step reshape bookkeeping.
        self._views: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for s in range(1, spec.depth + 1):
            v = spec.width - s * spec.k
            window = slice(spec.width - v, spec.width + local_nx + v)
            plan = KernelPlan.for_window(
                lattice,
                padded,
                window,
                order=self.collision.order,
                dtype=self.dtype,
            )
            self._plans[v] = plan
            self._views[v] = (plan.buffer.reshape(lattice.q, -1), plan.buffer)

    @property
    def nbytes(self) -> int:
        """Bytes held by all window plans (arena + gather tables)."""
        return int(sum(plan.nbytes for plan in self._plans.values()))

    def _plan_for(self, slab: HaloSlab) -> KernelPlan:
        """The window plan for the slab's *next* sub-step, validated
        before any state is touched (a mismatched slab must fail
        side-effect-free, with the validity ledger intact)."""
        if slab.data.dtype != self.dtype:
            raise LatticeError(
                f"planned slab kernel is built for {self.dtype.name}, got "
                f"{slab.data.dtype.name} slab populations"
            )
        if slab.validity < self.spec.k:
            raise HaloValidityError(
                f"halo exhausted: validity {slab.validity} < k {self.spec.k}; "
                "exchange required before stepping"
            )
        after = slab.validity - self.spec.k
        try:
            return self._plans[after]
        except KeyError:  # geometry mismatch: wrong slab for this kernel
            raise HaloValidityError(
                f"no window plan for validity {after} (built for "
                f"depth {self.spec.depth}, k {self.spec.k})"
            ) from None

    def step(self, slab: HaloSlab) -> None:
        """One windowed stream+collide, written back into ``slab.data``.

        Consumes one step of halo validity (raising
        :class:`~repro.errors.HaloValidityError` when exhausted — the
        caller must exchange first).
        """
        plan = self._plan_for(slab)
        slab.consume_step()
        adv, adv_4d = self._views[slab.validity]
        plan.stream_into(slab.data, adv)
        # In-place relax is aliasing-safe: collide_into reads src only
        # for the moments, before the first write to out.
        plan.collide_into(adv, adv, self.collision.omega)
        slab.data[:, plan.window] = adv_4d

    def timed_step(
        self, slab: HaloSlab, clock: Callable[[], float] = time.perf_counter
    ) -> tuple[float, float]:
        """:meth:`step` with per-phase timing for :class:`PhaseProfiler`.

        Returns ``(stream_seconds, collide_seconds)``; the window
        write-back is attributed to the collide phase.
        """
        plan = self._plan_for(slab)
        slab.consume_step()
        adv, adv_4d = self._views[slab.validity]
        t0 = clock()
        plan.stream_into(slab.data, adv)
        t1 = clock()
        plan.collide_into(adv, adv, self.collision.omega)
        slab.data[:, plan.window] = adv_4d
        t2 = clock()
        return t1 - t0, t2 - t1
