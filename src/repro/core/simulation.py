"""Single-domain simulation driver.

Implements the paper's Fig. 2 loop::

    read initial distr
    for n < max_steps:
        distr_adv = stream(distr)
        distr     = collide(distr_adv)

on one periodic domain (the distributed version lives in
:mod:`repro.parallel.distributed`).  The driver owns the two population
arrays (``distr`` / ``distr_adv``), applies boundary conditions between
streaming and collision, couples an optional body force, and records
wall-clock throughput in MFlup/s (million fluid lattice-point updates
per second, paper Eq. 4).  When nothing runs between streaming and
collision, a planned step is one pass: the plan's compiled loop gathers
``distr`` through its stream table and writes the collided populations
into ``distr_adv``, and the two arrays swap roles.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Sequence

import numpy as np

from ..errors import LatticeError, StabilityError
from ..lattice import VelocitySet, get_lattice
from ..telemetry.recorder import NullTelemetry, Telemetry, get_telemetry
from .boundary import BounceBackWalls, BoundaryCondition
from .equilibrium import equilibrium
from .fields import LAYOUT_SOA, DistributionField, resolve_dtype, resolve_layout
from .forcing import GuoForcing
from .kernels import LBMKernel
from .moments import density, macroscopic, momentum
from .plan import PlannedKernel, make_kernel

__all__ = ["Simulation", "StepTimings"]


class StepTimings:
    """Cumulative wall-clock accounting for one simulation."""

    def __init__(self) -> None:
        self.stream_seconds = 0.0
        self.collide_seconds = 0.0
        self.boundary_seconds = 0.0
        self.steps = 0

    @property
    def total_seconds(self) -> float:
        return self.stream_seconds + self.collide_seconds + self.boundary_seconds

    def mflups(self, num_cells: int) -> float:
        """Measured MFlup/s (paper Eq. 4): ``steps * N / (T * 1e6)``."""
        if self.total_seconds == 0:
            return float("nan")
        return self.steps * num_cells / (self.total_seconds * 1e6)


class _Driver:
    """The run loop and telemetry hook shared by :class:`Simulation` and
    :class:`~repro.core.sparse.SparseSimulation`.

    A subclass supplies ``step()``, which books its wall-clock time into
    ``self.timings`` (a :class:`StepTimings`), ``_check_finite()``, the
    ``telemetry`` recorder, the ``lattice``, the populations ``f`` a step
    leaves and its ``forcing`` (a :class:`GuoForcing`, or ``None``).
    """

    telemetry: "Telemetry | NullTelemetry"
    timings: StepTimings
    lattice: VelocitySet
    forcing: GuoForcing | None

    def macroscopic(self) -> tuple[np.ndarray, np.ndarray]:
        """Density and (force-corrected) velocity of ``f``.

        A step leaves post-collision populations, and a Guo-forced
        collision adds ``F`` to a node's momentum, so the velocity of the
        step that made ``f`` is ``(m - F/2) / rho``: the
        ``(m_pre + F/2) / rho`` that collision relaxed towards.
        """
        rho, u = macroscopic(self.lattice, self.f)
        if self.forcing is not None:
            u = u - self.forcing.velocity_shift(rho)
        return rho, u

    def set_telemetry(self, telemetry: "Telemetry | NullTelemetry") -> None:
        """Install a structured-event recorder on this simulation."""
        self.telemetry = telemetry

    def run(
        self,
        steps: int,
        monitor: "Callable[[_Driver], None] | None" = None,
        monitor_every: int = 1,
        check_stability_every: int = 0,
    ) -> None:
        """Run ``steps`` time steps.

        Parameters
        ----------
        monitor:
            Callback invoked every ``monitor_every`` steps with the
            simulation (after the step).
        check_stability_every:
            If positive, verify all populations are finite at that period
            and raise :class:`StabilityError` otherwise.

        With an enabled recorder, one span per phase
        (``phase.stream``/``phase.collide``/``phase.boundary``) is
        emitted for the steps this call actually ran, sourced from the
        :class:`StepTimings` deltas, so the hot :meth:`step` path
        carries no telemetry code and its zero-allocation guarantee is
        untouched.
        """
        # With stability checking on, a diverging run's last step computes
        # moments of already non-finite populations before _check_finite
        # can raise; silence numpy's invalid/overflow warnings for that
        # window so divergence is reported once, as StabilityError.
        numeric_guard = (
            np.errstate(invalid="ignore", over="ignore")
            if check_stability_every
            else contextlib.nullcontext()
        )
        traced = self.telemetry.enabled
        t = self.timings
        base = (t.stream_seconds, t.collide_seconds, t.boundary_seconds, t.steps)
        try:
            with numeric_guard:
                for n in range(steps):
                    self.step()
                    if monitor is not None and (n + 1) % monitor_every == 0:
                        monitor(self)
                    if check_stability_every and (n + 1) % check_stability_every == 0:
                        self._check_finite()
        finally:
            done = t.steps - base[3]
            if traced and done:
                self.telemetry.record_span(
                    "phase.stream", t.stream_seconds - base[0], rank=0, steps=done
                )
                self.telemetry.record_span(
                    "phase.collide", t.collide_seconds - base[1], rank=0, steps=done
                )
                self.telemetry.record_span(
                    "phase.boundary", t.boundary_seconds - base[2], rank=0, steps=done
                )


class Simulation(_Driver):
    """A single-block periodic LBM simulation.

    Parameters
    ----------
    lattice:
        A :class:`VelocitySet` or a lattice name (``"D3Q19"``/``"D3Q39"``).
    shape:
        Spatial grid shape, e.g. ``(64, 64, 64)``.
    tau:
        BGK relaxation time (ignored when ``collision`` is given).
    order:
        Hermite equilibrium order (``None`` = lattice native).
    collision:
        Custom collision operator exposing ``apply(f, out=None)``,
        ``omega`` and ``order`` (e.g. the regularized or MRT operators);
        default: the kernel's BGK collide.  It replaces only the
        collide: the populations still stream through the planned
        kernel, built with ``tau = 1 / omega`` (``tau`` goes unused).
        Requires ``kernel="planned"`` and the SoA layout.
    boundaries:
        Boundary conditions applied after streaming, in order.
    forcing:
        Optional :class:`GuoForcing` body force (BGK collisions only).
    kernel:
        Which stream/collide implementation advances the populations: a
        registry name (``"planned"``, the default, or ``"naive"``),
        ``"auto"`` (an alias for ``"planned"``) or an
        :class:`~repro.core.kernels.LBMKernel` instance.  A planned
        kernel carries the whole case: the leading run of plain
        :class:`BounceBackWalls` is folded into its gather table and
        ``forcing`` is fused into its arena collide (see
        :attr:`effective_path`); later boundaries still run after
        streaming, in their declared order.  Under ``naive``,
        boundaries run after streaming and a forced step takes the
        generic Guo-forced collide.  A planned kernel *instance* that
        carries walls or forcing belongs to one simulation.
    dtype:
        Population dtype policy, ``"float64"`` (default) or
        ``"float32"`` (halves B(Q) bytes per cell; see README).
    layout:
        Physical memory order of the persistent field: ``"soa"``
        (default, velocity-major — the paper's collision-optimized
        layout) or ``"aos"`` (cell-major, paper §IV's
        propagation-optimized alternative).  AoS requires the planned
        kernel (its plan remaps the gather table per layout); results
        are byte-identical per dtype because every layout transform is
        an exact permutation and the collision arithmetic is shared.
    telemetry:
        Structured-event recorder (:class:`~repro.telemetry.Telemetry`).
        ``None`` uses the ambient recorder
        (:func:`repro.telemetry.get_telemetry` — the no-op default
        unless enabled).  When enabled, :meth:`run` emits per-phase
        spans (``phase.stream``/``phase.collide``/``phase.boundary``)
        derived from the same :class:`StepTimings` clocks as ever.
    """

    def __init__(
        self,
        lattice: VelocitySet | str,
        shape: Sequence[int],
        tau: float = 1.0,
        order: int | None = None,
        collision=None,
        boundaries: Sequence[BoundaryCondition] = (),
        forcing: GuoForcing | None = None,
        kernel: "str | LBMKernel" = "planned",
        dtype: "str | np.dtype | None" = None,
        layout: "str | None" = None,
        telemetry: "Telemetry | NullTelemetry | None" = None,
    ) -> None:
        self.lattice = get_lattice(lattice) if isinstance(lattice, str) else lattice
        self.shape = tuple(int(s) for s in shape)
        self.dtype = resolve_dtype(dtype)
        self.layout = resolve_layout(layout)
        #: Whether a custom operator's ``apply`` replaces the kernel's
        #: collide (decided once: the step only reads this flag).
        self._custom = collision is not None
        if self._custom:
            if forcing is not None:
                raise NotImplementedError(
                    "forcing is only coupled to the kernels' BGK collide, "
                    "not to a custom collision operator"
                )
            tau = 1.0 / collision.omega
        self.kernel: LBMKernel = make_kernel(
            kernel,
            self.lattice,
            tau,
            order=order,
            dtype=self.dtype,
            shape=self.shape,
            layout=self.layout,
        )
        self._planned = isinstance(self.kernel, PlannedKernel)
        if self._custom and not (self._planned and self.layout == LAYOUT_SOA):
            raise LatticeError(
                "a custom collision runs on the planned kernel in the soa "
                f"layout (got kernel={self.kernel.name!r}, "
                f"layout={self.layout!r}); the naive kernel is BGK-only"
            )
        self.collision = collision if self._custom else self.kernel.collision
        self.boundaries = list(boundaries)
        self.forcing = forcing
        #: Boundaries applied between streaming and collision (those a
        #: planned kernel did not fold into its gather table).
        self._post_stream = self.boundaries
        if self._planned:
            self._install_into_plan()
        #: Whether a step is one KernelPlan.advance pass (decided once):
        #: BGK on the planned SoA kernel with nothing after streaming.
        self._fused = (
            self._planned
            and not self._custom
            and not self._post_stream
            and self.layout == LAYOUT_SOA
        )
        # The persistent field carries the layout; the advection scratch
        # stays SoA under either layout (the kernel streams AoS -> SoA
        # and scatters back after collision), so boundary conditions see
        # the same contiguous post-streaming array as ever.
        self.field = DistributionField.zeros(
            self.lattice, self.shape, dtype=self.dtype, layout=self.layout
        )
        self._adv = DistributionField.zeros(self.lattice, self.shape, dtype=self.dtype)
        self.time_step = 0
        self.timings = StepTimings()
        self.telemetry = get_telemetry() if telemetry is None else telemetry

    # -- setup ------------------------------------------------------------

    def _install_into_plan(self) -> None:
        """Fold the leading static walls into the planned kernel's gather
        table and fuse the forcing into its arena collide."""
        plan = self._plan = self.kernel.plan_for(self.shape)
        if plan.folded_walls or plan.forced:
            raise LatticeError(
                "this planned kernel instance already carries another "
                "simulation's walls or forcing; pass kernel='planned' so "
                "each simulation builds its own plan"
            )
        folded = 0
        for bc in self.boundaries:
            if type(bc) is not BounceBackWalls:  # a moving wall adds momentum
                break
            plan.fold_bounce_back(bc.solid_mask)
            folded += 1
        self._post_stream = self.boundaries[folded:]
        if self.forcing is not None:
            plan.set_forcing(self.forcing.force, self.collision.omega)

    def initialize(self, rho: np.ndarray | float, u: np.ndarray) -> None:
        """Set populations to the equilibrium of ``(rho, u)``; reset clock.

        The equilibrium is evaluated into the field, with the advection
        scratch as its work buffer: both arrays the steps touch are
        written here, and no population array is allocated.
        """
        rho_arr = np.broadcast_to(np.asarray(rho, dtype=np.float64), self.shape)
        equilibrium(
            self.lattice,
            rho_arr,
            u,
            order=self.collision.order,
            out=self.field.data,
            work=self._adv.data,
        )
        self.time_step = 0
        self.timings = StepTimings()

    # -- observables --------------------------------------------------------

    @property
    def f(self) -> np.ndarray:
        """Current populations, shape ``(Q, *shape)``, velocity-major.

        Under ``layout="aos"`` this is a contiguous SoA *copy* (mutate
        ``field.data`` to write populations in place): observables and
        checkpoints must reduce over identical bytes in identical order
        for the layouts' results to stay byte-identical, and whole-array
        reductions on a strided view may legally reorder.
        """
        if self.layout == LAYOUT_SOA:
            return self.field.data
        return self.field.as_soa()

    @property
    def num_cells(self) -> int:
        return self.field.num_cells

    def mflups(self) -> float:
        """Measured throughput so far (paper Eq. 4)."""
        return self.timings.mflups(self.num_cells)

    @property
    def effective_path(self) -> dict[str, str]:
        """The code path each phase of :meth:`step` actually takes.

        ``stream``: ``"fused"`` (the plan's collide gathers through its
        table: one :meth:`KernelPlan.advance
        <repro.core.plan.KernelPlan.advance>` per step, whose time books
        as collide), ``"gather"`` (the planned table, as a pass of its
        own before post-stream boundaries, a custom collision or the AoS
        scatter) or ``"generic"``; ``walls`` (plain static bounce-back):
        ``"folded"`` into the gather, ``"post-stream"`` when any runs as
        an operator after streaming, or ``"none"``; ``collide``:
        ``"compiled"`` (the plan's C loop), ``"arena"`` (its
        byte-identical numpy reference, on a host without a C compiler;
        a fused step there is ``np.take`` then the reference) or
        ``"generic"`` (naive, or a custom operator bypassing the plan's
        collide); ``forcing``: the collide's value on a forced run, else
        ``"none"``.  Moving and diffuse walls always run post-stream.
        """
        if self._custom or not self._planned:
            fast = "generic"
        elif self.kernel.plan_for(self.shape).compiled:
            fast = "compiled"
        else:
            fast = "arena"
        if any(type(bc) is BounceBackWalls for bc in self._post_stream):
            walls = "post-stream"
        elif any(type(bc) is BounceBackWalls for bc in self.boundaries):
            walls = "folded"
        else:
            walls = "none"
        if self._fused:
            stream = "fused"
        else:
            stream = "gather" if self._planned else "generic"
        return {
            "stream": stream,
            "walls": walls,
            "collide": fast,
            "forcing": "none" if self.forcing is None else fast,
        }

    # -- stepping -------------------------------------------------------------

    def _collide(self, f: np.ndarray, out: np.ndarray) -> None:
        if self._custom:
            self.collision.apply(f, out=out)
            return
        if self.forcing is None or self._planned:  # the plan carries forcing
            self.kernel.collide(f, out=out)
            return
        # Guo-forced BGK: correct the velocity by F/2 before building feq,
        # relax (shared fusion in BGKCollision.relax_into), then add the
        # source term.
        rho = density(f)
        u = momentum(self.lattice, f) / rho[None]
        u += self.forcing.velocity_shift(rho)
        feq = self.collision.equilibrium(rho, u)
        self.collision.relax_into(f, feq, out)
        out += self.forcing.source_term(u, self.collision.omega)

    def step(self) -> None:
        """Advance one time step: stream, boundaries, collide.

        A fused step is one pass from the field into the advection
        array, which then becomes the field (the arrays swap); its whole
        time books as collide.
        """
        f_old = self.field.data
        f_new = self._adv.data
        if self._fused:
            t0 = time.perf_counter()
            self._plan.advance(f_old, f_new, self.collision.omega)
            t1 = time.perf_counter()
            self.field.data, self._adv.data = f_new, f_old
            self.time_step += 1
            self.timings.steps += 1
            self.timings.collide_seconds += t1 - t0
            return

        t0 = time.perf_counter()
        self.kernel.stream(f_old, out=f_new)
        t1 = time.perf_counter()
        for bc in self._post_stream:
            bc.apply(f_new, f_old)
        t2 = time.perf_counter()
        self._collide(f_new, out=f_old)
        t3 = time.perf_counter()

        # distr (f_old) now holds the post-collision state; buffers swap
        # implicitly because we collided back into the original array.
        self.time_step += 1
        self.timings.steps += 1
        self.timings.stream_seconds += t1 - t0
        self.timings.boundary_seconds += t2 - t1
        self.timings.collide_seconds += t3 - t2

    def _check_finite(self) -> None:
        if not self.field.is_finite():
            raise StabilityError(
                f"non-finite populations at step {self.time_step} "
                f"(tau={getattr(self.collision, 'tau', '?')}, "
                f"lattice={self.lattice.name})"
            )
