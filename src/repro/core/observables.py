"""Diagnostics computed from the macroscopic fields.

The velocity-based diagnostics share one moments pass inside a
:func:`shared_moments` block: a case records several of them per
observable row, and each would otherwise recompute ``(rho, u)`` from
the same populations.
"""

from __future__ import annotations

import contextlib
import threading
import weakref

import numpy as np

from ..lattice import VelocitySet
from .moments import macroscopic

__all__ = [
    "shared_moments",
    "total_mass",
    "total_momentum",
    "kinetic_energy",
    "max_speed",
    "mach_number_field",
    "enstrophy",
    "velocity_profile",
]


_row = threading.local()


@contextlib.contextmanager
def shared_moments():
    """Evaluate ``(rho, u)`` once per population array inside the block.

    Meant for one observable row: every diagnostic below reads the
    moments of the same unchanged populations, so they share one
    :func:`~repro.core.moments.macroscopic` pass (same bytes as their
    own).  Only the latest array's moments are held, under a weak
    reference to the array (matched by identity, and never keeping a
    copy alive), and they are dropped when the block exits: populations
    written after it (a step, ``initialize``, a restore) are read
    afresh.
    """
    outer = getattr(_row, "held", None)
    _row.held = ()
    try:
        yield
    finally:
        _row.held = outer


def _moments(lattice: VelocitySet, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``macroscopic(lattice, f)``, shared within a :func:`shared_moments`
    block."""
    held = getattr(_row, "held", None)
    if held is None:
        return macroscopic(lattice, f)
    if held and held[0]() is f and held[1] is lattice:
        return held[2]
    moments = macroscopic(lattice, f)
    _row.held = (weakref.ref(f), lattice, moments)
    return moments


def total_mass(f: np.ndarray) -> float:
    """Sum of all populations — conserved exactly by collision+streaming."""
    return float(f.sum())


def total_momentum(lattice: VelocitySet, f: np.ndarray) -> np.ndarray:
    """Global momentum vector, shape ``(D,)``."""
    c = lattice.velocities_as(np.float64)
    spatial_axes = tuple(range(1, f.ndim))
    return np.tensordot(c.T, f.sum(axis=spatial_axes), axes=([1], [0]))


def kinetic_energy(lattice: VelocitySet, f: np.ndarray) -> float:
    """Total macroscopic kinetic energy ``1/2 sum rho |u|^2``."""
    rho, u = _moments(lattice, f)
    return float(0.5 * (rho * np.einsum("a...,a...->...", u, u)).sum())


def max_speed(lattice: VelocitySet, f: np.ndarray) -> float:
    """Maximum flow speed (for Mach/stability monitoring)."""
    _, u = _moments(lattice, f)
    return float(np.sqrt(np.einsum("a...,a...->...", u, u)).max())


def mach_number_field(lattice: VelocitySet, f: np.ndarray) -> np.ndarray:
    """Local Mach number field ``|u| / c_s``."""
    _, u = _moments(lattice, f)
    return np.sqrt(np.einsum("a...,a...->...", u, u) / lattice.cs2_float)


def enstrophy(lattice: VelocitySet, f: np.ndarray) -> float:
    """Total enstrophy ``1/2 sum |curl u|^2`` (periodic finite differences).

    Diagnoses vortical structure decay in the Taylor–Green example.
    """
    _, u = _moments(lattice, f)
    if u.shape[0] != 3:
        raise ValueError("enstrophy requires a 3-D velocity field")

    def d(comp: np.ndarray, axis: int) -> np.ndarray:
        return (np.roll(comp, -1, axis=axis) - np.roll(comp, 1, axis=axis)) / 2.0

    wx = d(u[2], 1) - d(u[1], 2)
    wy = d(u[0], 2) - d(u[2], 0)
    wz = d(u[1], 0) - d(u[0], 1)
    return float(0.5 * (wx**2 + wy**2 + wz**2).sum())


def velocity_profile(
    lattice: VelocitySet, f: np.ndarray, flow_axis: int, across_axis: int
) -> np.ndarray:
    """Mean flow-direction velocity as a function of the cross coordinate.

    Averages ``u[flow_axis]`` over all axes except ``across_axis`` —
    e.g. the Poiseuille/Couette profile across a channel.
    """
    _, u = _moments(lattice, f)
    comp = u[flow_axis]
    axes = tuple(a for a in range(comp.ndim) if a != across_axis)
    return comp.mean(axis=axes)
