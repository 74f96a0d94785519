"""Streaming (advection) step.

Propagates each population along its discrete velocity: the *push*
scheme of the paper's Fig. 3, ``distr_adv[x + c_i] = distr[x]``, on a
fully periodic domain (the paper's cubic periodic test systems).

* :func:`stream_periodic` — one shifted slice copy per velocity (the
  legacy pair's and ``roll``'s stream).
* :func:`pull_gather_rows` — the same update as precomputed pull
  indices, the index math behind every planned gather table.  Halo
  padded slabs stream through
  :func:`~repro.core.plan.build_slab_gather_table`, which is
  non-wrapping along the decomposed axis.

For D3Q39 a population may hop up to ``k = 3`` planes per step.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..lattice import VelocitySet

__all__ = ["pull_gather_rows", "stream_periodic"]


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
    The dense gather tables of :class:`~repro.core.plan.KernelPlan` are
    built here, so there is exactly one copy of the index math.  Shape
    ``(Q, N)``, ``N = prod(shape)``.

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
