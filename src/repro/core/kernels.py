"""Interchangeable stream+collide kernel implementations.

The paper's §V is a ladder of single-node code transformations (data
handling, loop restructuring, branch removal, SIMD).  The analogous
transformations available to *Python* code are implemented here as three
kernels with identical semantics and very different machine behaviour:

* :class:`NaiveKernel` — the paper's Fig. 3/4 pseudocode transcribed
  literally: per-cell, per-velocity Python loops.  Only usable on tiny
  grids; serves as the executable specification the fast kernels are
  validated against.
* :class:`RollKernel` — velocity-major vectorization: one
  ``numpy.roll`` per velocity, then a fused vectorized collide.  It
  runs the same stream and collide code as
  :class:`~repro.core.simulation.Simulation`'s legacy default pair
  (``kernel=None``), so the two produce identical bytes.
* :class:`FusedGatherKernel` — stream and collide in one pass over a
  precomputed flat gather-index table (the Python analogue of the
  paper's loop-fusion/index-precomputation optimizations: indices
  computed once, no per-step index arithmetic).
* :class:`~repro.core.plan.PlannedKernel` (in :mod:`repro.core.plan`) —
  the ladder's endpoint: precomputed gather table *and* a preallocated
  scratch arena, so a step makes zero heap allocations; also the kernel
  that carries the float32/float64 dtype policy, static walls and Guo
  forcing, and the one registered cases run by default.

Kernel selection (by name, or ``"auto"``, a fixed alias for the planned
kernel) lives in :func:`repro.core.plan.make_kernel`.
``benchmarks/bench_kernels_real.py`` measures the real MFlup/s of each,
giving a measured (not simulated) optimization-ladder analogue.
"""

from __future__ import annotations

import numpy as np

from ..lattice import VelocitySet
from .collision import BGKCollision
from .streaming import pull_gather_rows, stream_periodic

__all__ = ["LBMKernel", "NaiveKernel", "RollKernel", "FusedGatherKernel"]


class LBMKernel:
    """One time step of periodic stream+BGK-collide.

    Subclasses implement :meth:`step`, which consumes the populations
    ``f`` of shape ``(Q, *spatial)`` and returns the post-collision
    populations (a new array or a reused internal buffer — callers must
    treat the input as consumed).
    """

    name = "abstract"

    def __init__(self, lattice: VelocitySet, tau: float, order: int | None = None):
        self.lattice = lattice
        self.collision = BGKCollision(lattice, tau, order=order)

    def step(self, f: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    # Split API: drivers that apply boundary conditions between
    # streaming and collision (`Simulation`) call these instead of the
    # fused `step`, so every kernel stays usable under any boundary set.

    def stream(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Advect ``f`` into ``out`` (periodic); kernels may override."""
        return stream_periodic(self.lattice, f, out=out)

    def collide(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Relax ``f`` toward equilibrium; kernels may override."""
        return self.collision.apply(f, out=out)


class RollKernel(LBMKernel):
    """Vectorized reference kernel: roll-stream then fused collide."""

    name = "roll"

    def __init__(self, lattice: VelocitySet, tau: float, order: int | None = None):
        super().__init__(lattice, tau, order)
        self._buffer: np.ndarray | None = None

    def step(self, f: np.ndarray) -> np.ndarray:
        if (
            self._buffer is None
            or self._buffer.shape != f.shape
            or self._buffer.dtype != f.dtype
        ):
            self._buffer = np.empty_like(f)
        adv = stream_periodic(self.lattice, f, out=self._buffer)
        self.collision.apply(adv, out=f)
        return f


class FusedGatherKernel(LBMKernel):
    """Stream+collide in one pass via a precomputed gather table.

    For each velocity ``i`` the pull-gather ``f_i(x - c_i)`` is a single
    fancy-index ``take`` with indices computed once at construction —
    the Python analogue of the paper's "minimize index calculation"
    (LoBr) optimization.
    """

    name = "fused-gather"

    def __init__(self, lattice: VelocitySet, tau: float, order: int | None = None):
        super().__init__(lattice, tau, order)
        self._shape: tuple[int, ...] | None = None
        self._gather: np.ndarray | None = None

    def _build_gather(self, shape: tuple[int, ...]) -> None:
        """Flat pull indices: gather[i, x_flat] = flat(x - c_i) (periodic)."""
        self._gather = pull_gather_rows(self.lattice, shape)  # (Q, N)
        self._shape = shape

    def step(self, f: np.ndarray) -> np.ndarray:
        shape = f.shape[1:]
        if self._shape != shape:
            self._build_gather(shape)
        flat = f.reshape(self.lattice.q, -1)
        adv = np.take_along_axis(flat, self._gather, axis=1)
        out = adv.reshape(f.shape)
        self.collision.apply(out, out=out)
        return out

    def stream(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gather-table streaming (the split path runs the same index
        precomputation as the fused step, not the roll fallback)."""
        shape = f.shape[1:]
        if self._shape != shape:
            self._build_gather(shape)
        flat = f.reshape(self.lattice.q, -1)
        adv = np.take_along_axis(flat, self._gather, axis=1)
        # copyto honours out's strides; `out.reshape(...)[...] =` would
        # silently write into a throwaway copy for non-contiguous out.
        np.copyto(out, adv.reshape(f.shape))
        return out


class NaiveKernel(LBMKernel):
    """Literal transcription of the paper's Fig. 3/4 pseudocode.

    Triple spatial loop, inner velocity loop, scalar arithmetic.  Runs in
    O(minutes) beyond ~12^3 grids; exists as the executable specification
    (tests assert the fast kernels reproduce it exactly) and as the
    baseline of the measured kernel ladder.
    """

    name = "naive"

    def stream(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Push-streaming, literal: distr_adv[is][x + c] = distr[is][x]."""
        lat = self.lattice
        nx, ny, nz = f.shape[1:]
        for i in range(lat.q):
            cx, cy, cz = (int(v) for v in lat.velocities[i])
            for ix in range(nx):
                for iy in range(ny):
                    for iz in range(nz):
                        out[i, (ix + cx) % nx, (iy + cy) % ny, (iz + cz) % nz] = f[
                            i, ix, iy, iz
                        ]
        return out

    def collide(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per-cell scalar moments + equilibrium + relax, literal.

        Element-aliasing-safe: each ``f[i, cell]`` is read before the
        same element of ``out`` is written, so ``out is f`` works.
        """
        lat = self.lattice
        q = lat.q
        nx, ny, nz = f.shape[1:]
        c = lat.velocities
        w = lat.weights
        cs2 = lat.cs2_float
        omega = self.collision.omega
        order = self.collision.order
        if out is None:
            out = f
        for ix in range(nx):
            for iy in range(ny):
                for iz in range(nz):
                    rho = 0.0
                    ux = uy = uz = 0.0
                    for i in range(q):
                        fi = f[i, ix, iy, iz]
                        rho += fi
                        ux += c[i, 0] * fi
                        uy += c[i, 1] * fi
                        uz += c[i, 2] * fi
                    ux /= rho
                    uy /= rho
                    uz /= rho
                    u2 = ux * ux + uy * uy + uz * uz
                    for i in range(q):
                        cu = c[i, 0] * ux + c[i, 1] * uy + c[i, 2] * uz
                        term = 1.0 + cu / cs2
                        if order >= 2:
                            term += 0.5 * (cu / cs2) ** 2 - 0.5 * u2 / cs2
                        if order >= 3:
                            term += cu / (6.0 * cs2 * cs2) * (cu * cu / cs2 - 3.0 * u2)
                        feq = w[i] * rho * term
                        out[i, ix, iy, iz] = f[i, ix, iy, iz] - omega * (
                            f[i, ix, iy, iz] - feq
                        )
        return out

    def step(self, f: np.ndarray) -> np.ndarray:
        adv = self.stream(f, np.empty_like(f))
        return self.collide(adv, out=np.empty_like(f))
