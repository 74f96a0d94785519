"""Truncated Hermite equilibria (paper Eqs. 2 and 3).

The local equilibrium is a Hermite expansion of the Maxwellian about zero
mean velocity (Grad / Shan–Yuan–Chen).  With ``cu = c_i . u``:

second order (Eq. 2, recovers Navier–Stokes)::

    feq_i = w_i rho [ 1 + cu/cs2 + cu^2/(2 cs2^2) - u^2/(2 cs2) ]

third order (Eq. 3, D3Q39, beyond Navier–Stokes)::

    feq_i = second order
            + w_i rho * cu/(6 cs2^2) * ( cu^2/cs2 - 3 u^2 )

The printed equations in the paper have ``u^2/c_s`` where dimensional
consistency (and the original Shan–Yuan–Chen derivation) requires
``u^2/c_s^2``; we implement the standard forms, which exactly conserve
mass and momentum on any lattice whose quadrature is of sufficient
degree (unit-tested for all four lattices).
"""

from __future__ import annotations

import numpy as np

from ..errors import LatticeError
from ..lattice import VelocitySet

__all__ = ["equilibrium", "equilibrium_order_for"]


def equilibrium_order_for(lattice: VelocitySet, order: int | None) -> int:
    """Resolve the expansion order for ``lattice``.

    ``None`` selects the lattice's native order (2 for D3Q19, 3 for
    D3Q39).  Requesting an order above what the lattice's quadrature
    supports raises :class:`LatticeError` — e.g. a third-order expansion
    on D3Q19, whose fourth-order isotropy cannot represent the extra
    Hermite mode (this is exactly why the paper moves to D3Q39).
    """
    if order is None:
        order = lattice.equilibrium_order
    if not 1 <= order <= 3:
        raise LatticeError(f"equilibrium order must be 1..3, got {order}")
    if order > lattice.equilibrium_order:
        raise LatticeError(
            f"{lattice.name} supports expansion order {lattice.equilibrium_order}; "
            f"order {order} requires a higher-isotropy lattice (e.g. D3Q39)"
        )
    return order


def equilibrium(
    lattice: VelocitySet,
    rho: np.ndarray,
    u: np.ndarray,
    order: int | None = None,
    out: np.ndarray | None = None,
    dtype: "np.dtype | str | None" = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate the truncated Hermite equilibrium on a grid.

    Parameters
    ----------
    lattice:
        Velocity set.
    rho:
        Density, spatial shape ``S`` (scalars and 0-d arrays broadcast).
    u:
        Velocity, shape ``(D, *S)``.
    order:
        Hermite truncation order 1–3; ``None`` = lattice native order.
    out:
        Optional output array of shape ``(Q, *S)`` (avoids allocation in
        the hot loop).
    dtype:
        Population dtype to evaluate in.  ``None`` follows the dtype
        policy: ``out``'s dtype when given, else float32 iff every
        floating array input is float32, else float64.
    work:
        Optional C-contiguous scratch of shape ``(Q, *S)`` in the
        evaluated dtype, overwritten: the one intermediate the series
        needs beside ``out`` (allocated per call otherwise).  Below third
        order ``c . u`` itself is computed into it, so the call allocates
        no ``(Q, *S)`` array.

    Returns
    -------
    numpy.ndarray
        Populations of shape ``(Q, *S)``.
    """
    from .fields import compute_dtype, resolve_dtype

    order = equilibrium_order_for(lattice, order)
    if dtype is not None:
        dtype = resolve_dtype(dtype)
    elif out is not None:
        dtype = resolve_dtype(out.dtype)
    else:
        dtype = compute_dtype(rho, u)
    rho = np.asarray(rho, dtype=dtype)
    u = np.asarray(u, dtype=dtype)
    if u.shape[0] != lattice.dim:
        raise LatticeError(f"u must have leading dim {lattice.dim}, got {u.shape}")
    cs2 = lattice.cs2_float
    c = lattice.velocities_as(dtype)  # (Q, D)
    w = lattice.weights_as(dtype)  # (Q,)
    spatial_shape = u.shape[1:]
    field_shape = (lattice.q, *spatial_shape)
    if work is not None and (
        work.shape != field_shape
        or work.dtype != dtype
        or not work.flags.c_contiguous
    ):
        raise LatticeError(
            f"work must be a C-contiguous {dtype} array of shape {field_shape}, "
            f"got {work.dtype} {work.shape}"
        )

    # cu[i, ...] = c_i . u, the product np.tensordot computes, written
    # into the work buffer when the series needs no copy of it beside x;
    # u2[...] = |u|^2
    if work is not None and order < 3:
        cu = work
        np.dot(c, u.reshape(lattice.dim, -1), out=work.reshape(lattice.q, -1))
    else:
        cu = np.tensordot(c, u, axes=([1], [0]))
    u2 = np.einsum("a...,a...->...", u, u)

    expand = (slice(None),) + (None,) * len(spatial_shape)
    if out is None:
        out = np.empty(field_shape, dtype=dtype)

    # The series, with x = cu / cs2, is summed left to right as
    #   term = (1 + x) + (x^2/2 - u2/(2 cs2)) + cu/(6 cs2^2) (cu^2/cs2 - 3 u2)
    # by the same elementwise operations as the expression form (IEEE
    # addition and multiplication commute exactly, so operand order is
    # free and the bytes match it), but in place: ``term`` (the output
    # unless that casts), ``cu`` and ``x`` hold every intermediate.  x is
    # the work buffer when one is given (below third order it already
    # holds cu, divided in place); without one it is cu itself below
    # third order and a fresh array at it.
    term = out if out.dtype == dtype else np.empty_like(cu)
    if work is not None:
        x = work
    else:
        x = cu if order < 3 else np.empty_like(cu)
    np.divide(cu, cs2, out=x)
    np.add(x, 1.0, out=term)
    if order >= 2:
        np.square(x, out=x)
        x *= 0.5
        x -= 0.5 * (u2 / cs2)
        term += x
    if order >= 3:
        np.multiply(cu, cu, out=x)
        x /= cs2
        x -= 3.0 * u2
        cu /= 6.0 * cs2 * cs2
        x *= cu
        term += x

    np.multiply(term, w[expand], out=out)
    out *= rho[None]
    return out
