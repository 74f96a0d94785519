"""Streaming (advection) step.

Propagates each population along its discrete velocity: the *push*
scheme of the paper's Fig. 3, ``distr_adv[x + c_i] = distr[x]``.  Two
implementations:

* :func:`stream_periodic` — fully periodic domain via ``numpy.roll``
  (the production path for single-domain simulations; matches the
  paper's cubic periodic test systems).
* :func:`stream_padded` — non-wrapping slice shifts for halo-padded slab
  subdomains.  Values that would enter from outside the pad are filled
  with ``fill_value``; they only ever land in the outermost ``k`` planes,
  which the deep-halo validity window has already expired (enforced by
  :mod:`repro.parallel.halo`).

Both advance populations by exactly one time step; for D3Q39 a
population may hop up to ``k = 3`` planes.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..lattice import VelocitySet

__all__ = ["pull_gather_rows", "stream_periodic", "stream_padded"]


def pull_gather_rows(
    lattice: VelocitySet,
    shape: tuple[int, ...],
    scale: int = 1,
    row_step: int = 0,
) -> np.ndarray:
    """Per-velocity flat pull indices: ``rows[i, flat(x)] = flat(x - c_i)``.

    The periodic pull formulation of streaming as precomputed index
    arithmetic (the paper's "minimize index calculation" optimization):
    gathering ``f[i].ravel()[rows[i]]`` equals push-streaming ``f[i]``.
    Shared by :class:`~repro.core.kernels.FusedGatherKernel` and
    :class:`~repro.core.plan.KernelPlan`, so there is exactly one copy
    of the index math.  Shape ``(Q, N)``, ``N = prod(shape)``.

    ``scale`` and ``row_step`` map the spatial index into a flat
    population buffer, ``rows[i, flat(x)] = flat(x - c_i) * scale +
    i * row_step`` (``row_step=N`` addresses struct-of-arrays storage,
    ``scale=Q, row_step=1`` array-of-structs).  Each velocity's row is
    one periodically shifted copy of the base grid ``flat(x) * scale``
    plus its offset, written in one pass: the window at ``-c_i`` of the
    base grid wrapped ``k = max_displacement`` cells deep on every side
    (``ext[k + j] = base[j mod n]``, extents below ``k`` included).
    Building the table holds that small wrapped grid beside the table.
    """
    shape = tuple(int(s) for s in shape)
    n = int(np.prod(shape))
    k = lattice.max_displacement
    base = np.arange(0, n * scale, scale, dtype=np.intp).reshape(shape)
    ext = np.pad(base, k, mode="wrap")
    rows = np.empty((lattice.q, n), dtype=np.intp)
    for i, c in enumerate(lattice.velocities.tolist()):
        window = tuple(slice(k - ci, k - ci + s) for ci, s in zip(c, shape))
        np.add(ext[window], i * row_step, out=rows[i].reshape(shape))
    return rows


def _roll_into(src: np.ndarray, dst: np.ndarray, shift: tuple[int, ...]) -> None:
    """``dst[(x + shift) mod n] = src[x]`` without intermediate copies.

    ``np.roll`` allocates a rolled temporary which the caller then copies
    into its destination — every population is moved through memory
    twice.  Writing the (at most ``2^D``) wrapped regions directly from
    ``src`` into ``dst`` moves each value exactly once, which measurably
    helps the bandwidth-bound streaming step (D3Q39 shifts cross up to
    three axes, so the roll path was 2 full copies x 39 velocities).
    """
    per_axis: list[list[tuple[slice, slice]]] = []
    for axis, s in enumerate(shift):
        n = src.shape[axis]
        s %= n
        if s == 0:
            per_axis.append([(slice(None), slice(None))])
        else:
            per_axis.append(
                [
                    (slice(0, n - s), slice(s, n)),  # body moves forward
                    (slice(n - s, n), slice(0, s)),  # tail wraps to front
                ]
            )
    for regions in itertools.product(*per_axis):
        src_idx = tuple(r[0] for r in regions)
        dst_idx = tuple(r[1] for r in regions)
        dst[dst_idx] = src[src_idx]


def stream_periodic(
    lattice: VelocitySet, f: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Periodic push-streaming: ``out[i, x + c_i] = f[i, x]`` (wrapping).

    Each population is moved with direct slice assignments into ``out``
    (single copy per value; see :func:`_roll_into`), not ``np.roll``.

    Parameters
    ----------
    lattice:
        Velocity set supplying the ``(Q, D)`` displacement table.
    f:
        Populations, shape ``(Q, *spatial)``.
    out:
        Optional destination (must not alias ``f``).
    """
    if out is None:
        out = np.empty_like(f)
    if out is f:
        raise ValueError("stream_periodic cannot operate in place")
    for i, c in enumerate(lattice.velocities):
        if not any(c):
            out[i] = f[i]
        else:
            _roll_into(f[i], out[i], tuple(int(s) for s in c))
    return out


def _shift_mixed(
    src: np.ndarray,
    shift: tuple[int, ...],
    nowrap_axes: tuple[int, ...],
    fill_value: float,
) -> np.ndarray:
    """Shift ``src``: periodic on most axes, non-wrapping on ``nowrap_axes``.

    Vacated cells along the non-wrapping axes receive ``fill_value``.
    """
    wrap_axes = [a for a in range(src.ndim) if a not in nowrap_axes and shift[a]]
    if wrap_axes:
        src = np.roll(src, shift=[shift[a] for a in wrap_axes], axis=wrap_axes)
    active = [a for a in nowrap_axes if shift[a]]
    if not active:
        return src if wrap_axes else src.copy()
    out = np.full_like(src, fill_value)
    src_slices: list[slice] = [slice(None)] * src.ndim
    dst_slices: list[slice] = [slice(None)] * src.ndim
    for axis in active:
        s = shift[axis]
        n = src.shape[axis]
        if abs(s) >= n:
            return out
        if s >= 0:
            src_slices[axis] = slice(0, n - s)
            dst_slices[axis] = slice(s, n)
        else:
            src_slices[axis] = slice(-s, n)
            dst_slices[axis] = slice(0, n + s)
    out[tuple(dst_slices)] = src[tuple(src_slices)]
    return out


def stream_padded(
    lattice: VelocitySet,
    f: np.ndarray,
    out: np.ndarray | None = None,
    fill_value: float = np.nan,
    nowrap_axes: tuple[int, ...] = (0,),
) -> np.ndarray:
    """Push-streaming for halo-padded slab subdomains.

    Periodic along the non-decomposed axes; *non-wrapping* along
    ``nowrap_axes`` (default: x, the paper's 1-D decomposition axis).
    Cells within ``k`` planes of a non-wrapping edge receive
    ``fill_value`` where the source would lie outside the array.  Using
    NaN as the default fill makes any read of expired halo data
    immediately visible in tests.
    """
    if out is None:
        out = np.empty_like(f)
    if out is f:
        raise ValueError("stream_padded cannot operate in place")
    for i, c in enumerate(lattice.velocities):
        shift = tuple(int(x) for x in c)
        if not any(shift):
            out[i] = f[i]
        else:
            out[i] = _shift_mixed(f[i], shift, nowrap_axes, fill_value)
    return out
