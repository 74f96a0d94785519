"""Drive one registered case end-to-end.

:class:`CaseRunner` turns a declarative :class:`~repro.scenarios.spec.CaseSpec`
into a configured :class:`~repro.core.simulation.Simulation`, advances it
with observable recording and optional early stopping, and supports
checkpoint/restart through :mod:`repro.core.io` — a restart rebuilds the
full driver (collision, boundaries, forcing) from the spec and restores
only the populations, so it is bit-exact.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any

import numpy as np

from ..core.forcing import GuoForcing
from ..core.initial_conditions import uniform_flow
from ..core.io import load_checkpoint_data, save_checkpoint
from ..core.observables import shared_moments
from ..core.simulation import Simulation
from ..errors import ScenarioError
from ..lattice import get_lattice
from .registry import get_case
from .spec import CaseSpec

__all__ = ["CaseResult", "CaseRunner", "run_case"]

#: The legacy stream/collide pair (stamped kernel ``None``) and the
#: ``roll`` kernel run the same stream and collide code, so a checkpoint
#: written by either resumes bit-exactly under the other — the migration
#: path for checkpoints that predate ``planned`` as the case default.
_SAME_BYTES_KERNELS = {None, "roll"}


@dataclasses.dataclass
class CaseResult:
    """Everything one case run produced.

    Attributes
    ----------
    spec:
        The (possibly overridden) spec that ran.
    simulation:
        The driver in its final state (populations, timings), or
        ``None`` for a *lean* result rehydrated from the sweep cache
        (scalar outcomes survive the round-trip; fields do not).
    solid:
        The geometry mask the spec built, if any.
    series:
        Observable time series, ``{"step": [...], name: [...]}``;
        row 0 is the state before the first step of this run.
    metrics:
        Scalar outcomes: steps run, MFlup/s, plus whatever the case's
        ``analysis`` hook derived.
    checks:
        Named pass/fail verdicts from the case's ``checks`` hook.
    failed:
        ``True`` only for a quarantined-variant placeholder (the run
        raised ``max_attempts`` times and never produced a payload);
        such a result carries empty series/metrics/checks and renders
        as an explicit ``FAILED`` row in sweep tables.
    """

    spec: CaseSpec
    simulation: Simulation | None
    solid: np.ndarray | None = None
    series: dict[str, list[float]] = dataclasses.field(default_factory=dict)
    metrics: dict[str, Any] = dataclasses.field(default_factory=dict)
    checks: dict[str, bool] = dataclasses.field(default_factory=dict)
    failed: bool = False

    def initial(self, observable: str) -> float:
        """First recorded value of one observable series."""
        return self.series[observable][0]

    def final(self, observable: str) -> float:
        """Last recorded value of one observable series."""
        return self.series[observable][-1]

    @property
    def passed(self) -> bool:
        """All checks hold (vacuously true when the case declares none);
        never true for a quarantined-variant placeholder."""
        return not self.failed and all(self.checks.values())

    def to_text(self) -> str:
        """Human-readable summary: metrics and checks tables."""
        from ..analysis.tables import render_table

        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.6g}"
            return str(value)

        reached = (
            self.simulation.time_step
            if self.simulation is not None
            else self.metrics.get("steps_run", "?")
        )
        lines = [
            f"case {self.spec.name}: {self.spec.title}",
            f"  lattice {self.spec.lattice}, grid "
            + "x".join(str(s) for s in self.spec.shape)
            + f", reached step {reached}",
        ]
        if self.metrics:
            rows = [[k, fmt(v)] for k, v in self.metrics.items()]
            lines.append(render_table(["metric", "value"], rows))
        if self.checks:
            rows = [[k, "PASS" if ok else "FAIL"] for k, ok in self.checks.items()]
            lines.append(render_table(["check", "verdict"], rows))
            lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


class CaseRunner:
    """Build and run one case, with optional field overrides.

    >>> result = CaseRunner("taylor-green", steps=100).run()
    >>> result.passed
    True
    """

    def __init__(self, spec: CaseSpec | str, **overrides: Any) -> None:
        if isinstance(spec, str):
            spec = get_case(spec)
        if overrides:
            spec = spec.with_overrides(**overrides)
        spec.validate()
        self.spec = spec

    # -- construction ------------------------------------------------------

    def build(self) -> tuple[Simulation, np.ndarray | None]:
        """Materialise the spec into an initialised simulation."""
        spec = self.spec
        lattice = get_lattice(spec.lattice)
        solid = None
        if spec.geometry is not None:
            solid = np.asarray(spec.geometry(spec), dtype=bool)
            if solid.shape != spec.shape:
                raise ScenarioError(
                    f"case {spec.name!r}: geometry mask shape {solid.shape} "
                    f"!= domain {spec.shape}"
                )
        if spec.params.get("sparse"):
            if spec.collision is not None or spec.boundaries is not None:
                raise ScenarioError(
                    f"case {spec.name!r}: sparse cases take no collision or "
                    "boundary factories (walls are fused into the gather "
                    "table as half-way bounce-back indices)"
                )
            from ..core.sparse import SparseSimulation

            sim = SparseSimulation(
                lattice,
                solid,
                tau=spec.tau,
                order=spec.order,
                force=spec.forcing,
                dtype=spec.dtype,
            )
            rho, u = spec.initial(spec) if spec.initial else uniform_flow(spec.shape)
            sim.initialize(rho, u)
            return sim, solid
        collision = spec.collision(spec, lattice) if spec.collision else None
        boundaries = (
            list(spec.boundaries(spec, lattice, solid)) if spec.boundaries else []
        )
        forcing = (
            GuoForcing(lattice, spec.forcing) if spec.forcing is not None else None
        )
        sim = Simulation(
            lattice,
            spec.shape,
            tau=spec.tau,
            order=spec.order,
            collision=collision,
            boundaries=boundaries,
            forcing=forcing,
            kernel=spec.kernel,
            dtype=spec.dtype,
            layout=spec.layout,
        )
        rho, u = spec.initial(spec) if spec.initial else uniform_flow(spec.shape)
        sim.initialize(rho, u)
        return sim, solid

    # -- execution ---------------------------------------------------------

    def run(
        self,
        *,
        resume: str | Path | None = None,
        checkpoint: str | Path | None = None,
        checkpoint_every: int = 0,
        analyze: bool = True,
    ) -> CaseResult:
        """Advance the case to ``spec.steps`` total time steps.

        Parameters
        ----------
        resume:
            Checkpoint file to restore populations/step count from; the
            driver itself is rebuilt from the spec, so boundary
            conditions, forcing and collision model are preserved and
            the continuation is bit-identical to an uninterrupted run.
            The observable series recorded before the checkpoint is
            restored too, so the resumed result carries the full
            history, not just the post-restart tail.
        checkpoint:
            Where to save restart state — at the end of the run, or
            every ``checkpoint_every`` steps when that is positive.
        analyze:
            Run the case's ``analysis``/``checks`` hooks (disable for
            cheap smoke runs).
        """
        spec = self.spec
        if spec.params.get("sparse") and (
            resume is not None or checkpoint is not None
        ):
            raise ScenarioError(
                f"case {spec.name!r}: sparse cases do not support "
                "checkpoint/resume (the restart format stores dense "
                "(Q, *shape) populations)"
            )
        sim, solid = self.build()
        restored_series: dict[str, list[float]] = {}
        if resume is not None:
            restored_series = self._restore(sim, resume)
        result = CaseResult(spec, sim, solid)
        result.series = {k: list(v) for k, v in restored_series.items()}
        steps_seen = result.series.get("step")
        if not steps_seen or steps_seen[-1] != float(sim.time_step):
            # Fresh run, or a pre-series checkpoint: record the state we
            # are starting from (a restored series already ends here).
            self._record(result)

        stop = spec.stop_when() if spec.stop_when is not None else None
        last_saved = sim.time_step
        while sim.time_step < spec.steps:
            chunk = min(spec.monitor_every, spec.steps - sim.time_step)
            stability = (
                min(spec.check_stability_every, chunk)
                if spec.check_stability_every
                else 0
            )
            sim.run(chunk, check_stability_every=stability)
            self._record(result)
            if (
                checkpoint is not None
                and checkpoint_every > 0
                and sim.time_step - last_saved >= checkpoint_every
                and sim.time_step < spec.steps
            ):
                self.save(checkpoint, sim, series=result.series)
                last_saved = sim.time_step
            if stop is not None and stop(sim):
                break

        if checkpoint is not None:
            self.save(checkpoint, sim, series=result.series)
        result.metrics["steps_run"] = sim.time_step
        result.metrics["mflups"] = sim.mflups()
        if analyze:
            if spec.analysis is not None:
                result.metrics.update(spec.analysis(result))
            if spec.checks is not None:
                result.checks = dict(spec.checks(result))
        return result

    # -- checkpointing -----------------------------------------------------

    def save(
        self,
        path: str | Path,
        sim: Simulation,
        series: dict[str, list[float]] | None = None,
    ) -> Path:
        """Write a restart file stamped with the case name.

        ``series`` carries the observable history recorded so far, so a
        resume continues the time series instead of restarting it.
        """
        return save_checkpoint(
            path, sim, extra={"case": self.spec.name}, series=series
        )

    def _restore(self, sim: Simulation, path: str | Path) -> dict[str, list[float]]:
        data = load_checkpoint_data(path)
        stamped = data.extra.get("case")
        if stamped is not None and stamped != self.spec.name:
            raise ScenarioError(
                f"checkpoint {path} was written by case {stamped!r}, "
                f"not {self.spec.name!r}"
            )
        if data.lattice != sim.lattice.name:
            raise ScenarioError(
                f"checkpoint lattice {data.lattice} != case lattice "
                f"{sim.lattice.name}"
            )
        if data.f.shape != sim.f.shape:
            raise ScenarioError(
                f"checkpoint field shape {data.f.shape} != case field "
                f"shape {sim.f.shape}"
            )
        if str(data.f.dtype) != str(sim.f.dtype):
            raise ScenarioError(
                f"checkpoint dtype {data.f.dtype} != case dtype "
                f"{sim.f.dtype}; a cross-precision restore would not be "
                "bit-exact (override the case dtype to match)"
            )
        if data.kernel != self.spec.kernel and not (
            {data.kernel, self.spec.kernel} <= _SAME_BYTES_KERNELS
        ):
            # Kernels agree only to rounding, so continuing under a
            # different one is not bit-exact — same latch as dtype.
            if data.kernel is None:
                hint = (
                    "it was stepped by the legacy stream/collide pair, "
                    "which --kernel roll reproduces byte for byte; "
                    "resume with --kernel roll"
                )
            else:
                hint = "override the case kernel to match"
            raise ScenarioError(
                f"checkpoint was written with kernel {data.kernel!r}, "
                f"case resumes with {self.spec.kernel!r}; a cross-kernel "
                f"restore would not be bit-exact ({hint})"
            )
        if data.time_step > self.spec.steps:
            raise ScenarioError(
                f"checkpoint is at step {data.time_step}, beyond the case's "
                f"{self.spec.steps} steps"
            )
        sim.field.data[...] = data.f
        sim.time_step = data.time_step
        return {k: [float(v) for v in vs] for k, vs in data.series.items()}

    # -- recording ---------------------------------------------------------

    def _record(self, result: CaseResult) -> None:
        sim = result.simulation
        result.series.setdefault("step", []).append(float(sim.time_step))
        # One row reads one state: its probes share one moments pass.
        with shared_moments():
            for name, probe in self.spec.observables.items():
                result.series.setdefault(name, []).append(float(probe(sim)))


def run_case(name: str, *, analyze: bool = True, **overrides: Any) -> CaseResult:
    """One-call convenience: ``run_case("taylor-green", steps=100)``."""
    return CaseRunner(name, **overrides).run(analyze=analyze)
