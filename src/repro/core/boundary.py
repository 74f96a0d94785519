"""Boundary conditions.

The paper's performance study uses periodic cubes exclusively ("all
simulations in this work are of a cubic fluid system with periodic
boundary conditions", §IV) — periodic behaviour is built into
streaming (the planned gather table wraps, as
:func:`~repro.core.streaming.stream_periodic` does) and needs no
operator here.

The boundary operators below support the *application* side of the paper
(artery flow, microfluidics, finite-Kn channels):

* :class:`BounceBackWalls` — full-way bounce-back on an arbitrary solid
  mask: no-slip walls for continuum flows (artery example).
* :class:`DiffuseWallPair` — Maxwell diffuse-reflection planes for
  rarefied flows, where the wall re-emits particles thermalised at the
  wall velocity.  This is the standard kinetic boundary condition for
  the finite-Kn regimes D3Q39 exists to simulate.

Operators are applied *after* streaming and *before* collision; each
exposes ``apply(f_post_stream, f_pre_stream)``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import LatticeError
from ..lattice import VelocitySet
from .equilibrium import equilibrium

__all__ = [
    "BoundaryCondition",
    "BounceBackWalls",
    "DiffuseWallPair",
    "MovingWallBounceBack",
]


class BoundaryCondition:
    """Interface: mutate post-stream populations in place."""

    def apply(self, f_new: np.ndarray, f_old: np.ndarray) -> None:  # pragma: no cover
        raise NotImplementedError


@dataclasses.dataclass
class BounceBackWalls(BoundaryCondition):
    """Full-way bounce-back at solid nodes.

    Populations that streamed *into* a solid node are reversed there and
    will stream back out on the next step, producing a no-slip wall
    located halfway between solid and fluid nodes.  Under the planned
    kernel, :class:`~repro.core.simulation.Simulation` folds a leading
    run of these walls into the gather table instead of calling
    :meth:`apply` (:meth:`~repro.core.plan.KernelPlan.fold_bounce_back`,
    byte-identical).

    Parameters
    ----------
    lattice:
        Velocity set (supplies the opposite-direction map).
    solid_mask:
        Boolean array over the spatial grid, ``True`` at solid nodes.
    """

    lattice: VelocitySet
    solid_mask: np.ndarray

    def __post_init__(self) -> None:
        self.solid_mask = np.asarray(self.solid_mask, dtype=bool)
        self._opposite = self.lattice.opposite

    def apply(self, f_new: np.ndarray, f_old: np.ndarray) -> None:
        """Reverse all populations sitting on solid nodes."""
        if self.solid_mask.shape != f_new.shape[1:]:
            raise LatticeError(
                f"solid mask shape {self.solid_mask.shape} != grid {f_new.shape[1:]}"
            )
        solid = f_new[:, self.solid_mask]  # (Q, Nsolid)
        f_new[:, self.solid_mask] = solid[self._opposite]


@dataclasses.dataclass
class MovingWallBounceBack(BounceBackWalls):
    """Full-way bounce-back at solid nodes moving tangentially.

    The standard momentum-injecting correction for a wall translating
    with velocity ``u_w`` (Ladd 1994): after the populations on the wall
    nodes are reversed, each direction ``i`` gains
    ``2 w_i rho0 (c_i . u_w) / cs^2``.  Summed over directions the
    correction carries zero mass (``sum_i w_i c_i = 0``) and injects
    momentum ``2 rho0 u_w`` per wall node per step — a no-slip wall that
    drags the adjacent fluid (lid-driven cavity case).

    Parameters
    ----------
    wall_velocity:
        Wall velocity in lattice units (need not be axis-aligned).
    rho0:
        Reference density of the fluid at the wall.
    """

    wall_velocity: tuple[float, ...] = (0.0, 0.0, 0.0)
    rho0: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        uw = np.asarray(self.wall_velocity, dtype=np.float64)
        if uw.shape != (self.lattice.dim,):
            raise LatticeError(
                f"wall_velocity must have {self.lattice.dim} components"
            )
        c = self.lattice.velocities_as(np.float64)
        self._correction = (
            2.0 * self.rho0 * self.lattice.weights * (c @ uw) / self.lattice.cs2_float
        )

    def apply(self, f_new: np.ndarray, f_old: np.ndarray) -> None:
        """Reverse wall-node populations, then add the momentum term."""
        super().apply(f_new, f_old)
        f_new[:, self.solid_mask] += self._correction[:, None]


@dataclasses.dataclass
class DiffuseWallPair(BoundaryCondition):
    """Maxwell diffuse-reflection walls on the two faces of one axis.

    Models a channel of width ``H = shape[axis]`` whose walls move
    tangentially with ``wall_velocity_low`` / ``wall_velocity_high``.
    After streaming, the populations entering the fluid from each wall
    are replaced by the equilibrium at the wall velocity, scaled so the
    wall emits exactly as much mass as it absorbed (zero net mass flux —
    the defining property of a diffuse wall).

    This is the kinetic boundary condition under which slip velocity and
    Knudsen-layer structure appear at finite Kn; the D3Q39 model resolves
    these, D3Q19 cannot (examples/microchannel_knudsen.py).

    Notes
    -----
    The wall planes sit on the outermost lattice layers of ``axis``.
    Periodic wrap along that axis must be neutralised, which this
    operator does by rebuilding the incoming populations at both walls
    from scratch each step.
    """

    lattice: VelocitySet
    axis: int
    wall_velocity_low: tuple[float, ...] = (0.0, 0.0, 0.0)
    wall_velocity_high: tuple[float, ...] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if not 0 <= self.axis < self.lattice.dim:
            raise LatticeError(f"axis {self.axis} out of range")
        for v, name in (
            (self.wall_velocity_low, "wall_velocity_low"),
            (self.wall_velocity_high, "wall_velocity_high"),
        ):
            if len(v) != self.lattice.dim:
                raise LatticeError(f"{name} must have {self.lattice.dim} components")
            if abs(v[self.axis]) > 0:
                raise LatticeError(f"{name} must be tangential to the wall")
        # For a lattice with max displacement k, a population at layer l
        # (counted from the wall) with wall-normal speed m crosses the wall
        # iff m > l.  Precompute, per layer, which velocity indices (a) were
        # wrongly wrapped in from beyond the wall (must be re-emitted) and
        # (b) will cross into the wall next step (counted as absorbed).
        c_axis = self.lattice.velocities[:, self.axis]
        k = self.lattice.max_displacement
        self._k = k
        self._emitted: list[np.ndarray] = []  # index arrays per layer
        self._absorbed: list[np.ndarray] = []
        for layer in range(k):
            self._emitted.append(np.flatnonzero(c_axis > layer))
            self._absorbed.append(np.flatnonzero(-c_axis > layer))
        # (wall plane shape, wall velocity) -> its unit-density equilibrium,
        # a constant of the wall computed on its first step.
        self._unit_equilibria: dict[tuple, np.ndarray] = {}

    def _layer_view(self, f: np.ndarray, layer: int) -> np.ndarray:
        idx: list[slice | int] = [slice(None)] * f.ndim
        idx[1 + self.axis] = layer
        return f[tuple(idx)]

    def _unit_equilibrium(
        self, wall_shape: tuple[int, ...], wall_velocity: tuple[float, ...]
    ) -> np.ndarray:
        key = (wall_shape, tuple(wall_velocity))
        feq = self._unit_equilibria.get(key)
        if feq is None:
            lat = self.lattice
            uw = np.array(wall_velocity, dtype=np.float64)
            uw_field = np.broadcast_to(
                uw.reshape((lat.dim,) + (1,) * len(wall_shape)),
                (lat.dim,) + wall_shape,
            )
            feq = equilibrium(lat, np.ones(wall_shape), uw_field, order=None)
            feq.flags.writeable = False
            self._unit_equilibria[key] = feq
        return feq

    def _apply_one_wall(
        self,
        f_new: np.ndarray,
        f_old: np.ndarray,
        flip: bool,
        wall_velocity: tuple[float, ...],
    ) -> None:
        """Re-emit absorbed mass at one wall.

        ``flip`` selects the high wall: layers are counted inward from the
        far face and the roles of +/- normal velocities swap.  The mass
        the wall absorbed is read from the *pre-stream* populations — the
        ones that actually crossed the wall plane during this streaming
        step — so that total mass is conserved exactly every step (the
        emission at one wall replaces precisely the populations that
        wrapped around from the opposite wall).
        """
        n = f_new.shape[1 + self.axis]
        layers = [n - 1 - j for j in range(self._k)] if flip else list(range(self._k))
        new_views = [self._layer_view(f_new, layer) for layer in layers]
        old_views = [self._layer_view(f_old, layer) for layer in layers]
        wall_shape = new_views[0].shape[1:]
        feq_w = self._unit_equilibrium(wall_shape, wall_velocity)

        emitted = self._absorbed if flip else self._emitted
        absorbed = self._emitted if flip else self._absorbed

        # Mass crossing the wall this step, column by column along the wall.
        absorbed_mass = np.zeros(wall_shape)
        emitted_unit = np.zeros(wall_shape)
        for old_view, em_idx, ab_idx in zip(old_views, emitted, absorbed):
            absorbed_mass += old_view[ab_idx].sum(axis=0)
            emitted_unit += feq_w[em_idx].sum(axis=0)
        scale = absorbed_mass / emitted_unit
        for new_view, em_idx in zip(new_views, emitted):
            new_view[em_idx] = feq_w[em_idx] * scale[None]

    def apply(self, f_new: np.ndarray, f_old: np.ndarray) -> None:
        """Re-emit absorbed mass diffusely at both walls (mass-exact)."""
        self._apply_one_wall(f_new, f_old, False, self.wall_velocity_low)
        self._apply_one_wall(f_new, f_old, True, self.wall_velocity_high)
