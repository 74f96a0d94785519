"""Calibrated performance model: predicted MFLUP/s from fitted parameters.

The paper's central claim is that LB throughput is *predictable*: the
roofline (§III-B, Eq. 5) bounds attainable MFLUP/s by ``Bm / B(Q)``
with nothing but machine bandwidth and the lattice's bytes-per-cell
figure.  This module turns that arithmetic into an operational model
for *this* host: every measured throughput sample — a row of a
committed ``BENCH_*.json`` record — is reduced to the **effective
bandwidth** it achieved,

    beta = P * B(Q, dtype) * 1e6        [bytes/s]

(the SNIPPETS WSE-2 SUMMA shape: pure work x fitted overhead factor,
validated against measurement).  Fitted betas are grouped per
``(kernel, mode, dtype, lattice)`` and pooled hierarchically, so a
prediction for a *measured* cell replays its fitted overhead exactly,
while an *unseen* cell (new lattice, new dtype) extrapolates along the
roofline's B(Q) scaling from the nearest pooled group:

1. ``exact``   — this very (kernel, mode, dtype, lattice) was measured;
2. ``dtype``   — pooled over lattices of the same (kernel, mode, dtype),
   least-squares on ``P = beta / (B * 1e6)``;
3. ``kernel``  — pooled over everything measured for (kernel, mode).

Calibrations are host-keyed (a timing fit from one machine says nothing
about another) and persist as one JSON file per host under
:func:`kernel_cache_dir`'s ``perf-model/`` subdirectory.  Their
consumers: the sweep scheduler packs variants onto workers by
predicted cost (:meth:`FittedPerfModel.predict_case_seconds`),
``benchmarks/compare_bench.py --model`` flags "measured << predicted"
rows as regressions even when no baseline row exists for that cell,
and ``repro perf-model predict`` answers one query.  Kernel selection
is not among them: ``kernel="auto"`` is a fixed alias (see
:mod:`repro.core.plan`), the same on every host.

The fit itself is deliberately tiny — closed-form least squares on a
one-parameter-per-group linear model — so it is exactly reproducible
from the committed history (``repro perf-model fit BENCH_*.json``) and
mirrored stdlib-only inside ``compare_bench.py``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import re
import time
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from ..errors import ReproError
from ..lattice import available_lattices, get_lattice
from ..machine.roofline import bytes_per_cell, sparse_bytes_per_cell

__all__ = [
    "CALIBRATION_SCHEMA",
    "FittedPerfModel",
    "MeasuredSample",
    "ModelEntry",
    "Prediction",
    "calibration_path",
    "fit",
    "fit_samples",
    "kernel_cache_dir",
    "load_calibration",
    "samples_from_bench",
    "save_calibration",
]

#: Version stamped on calibration files; bump on incompatible layout.
CALIBRATION_SCHEMA = 1

#: Single-domain kernels vs the slab-decomposed distributed pair vs the
#: indirect-addressing sparse pair: the populations time very
#: differently (halo exchange, gather tables, fill-dependent locality),
#: so their fits never mix.
SINGLE = "single"
DISTRIBUTED = "distributed"
SPARSE = "sparse"

#: Schema-1 bench records name kernels by class; later schemas stamp
#: the registry name into ``extra_info``.
_LEGACY_KERNEL_NAMES = {
    "naivekernel": "naive",
    "rollkernel": "roll",
    "fusedgatherkernel": "fused-gather",
    "plannedkernel": "planned",
}

_LATTICE_RE = re.compile(r"D3Q\d+", re.IGNORECASE)


class PerfModelError(ReproError):
    """A calibration could not be fitted, parsed, or persisted."""


@dataclasses.dataclass(frozen=True)
class MeasuredSample:
    """One measured throughput observation, the fitter's unit of input.

    ``bytes_per_cell`` may be carried from the record (bench rows stamp
    it) or left ``None`` to be derived from ``(lattice, dtype)``;
    ``host=None`` marks a legacy record with no host stamp (schema <= 3
    exports), which the fitter accepts as unattributed history.
    ``fill`` is the fluid fraction behind a sparse sample: samples of
    ``mode="sparse"`` resolve their bytes-per-cell through the sparse
    B(Q, fill) extension, so one fitted beta spans every fill.
    """

    kernel: str
    lattice: str
    dtype: str
    mflups: float
    mode: str = SINGLE
    bytes_per_cell: float | None = None
    host: str | None = None
    source: str = ""
    fill: float | None = None

    def resolved_bytes_per_cell(self) -> float:
        if self.bytes_per_cell is not None:
            return float(self.bytes_per_cell)
        lattice = get_lattice(self.lattice)
        if self.mode == SPARSE:
            fill = 1.0 if self.fill is None else float(self.fill)
            return float(sparse_bytes_per_cell(lattice, self.dtype, fill=fill))
        return float(bytes_per_cell(lattice, self.dtype))


@dataclasses.dataclass(frozen=True)
class ModelEntry:
    """The fitted overhead state of one (kernel, mode, dtype, lattice).

    ``beta`` is the effective bandwidth (bytes/s) least-squares fitted
    over the group's samples; ``mflups`` the sample mean it reproduces;
    ``spread`` the largest relative deviation of any sample from that
    mean — the empirical run-to-run noise band a consumer should treat
    predictions within.
    """

    kernel: str
    mode: str
    dtype: str
    lattice: str
    bytes_per_cell: float
    beta: float
    mflups: float
    n: int
    spread: float

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.kernel, self.mode, self.dtype, self.lattice)

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, raw: Mapping[str, Any]) -> "ModelEntry":
        return cls(
            kernel=str(raw["kernel"]),
            mode=str(raw["mode"]),
            dtype=str(raw["dtype"]),
            lattice=str(raw["lattice"]),
            bytes_per_cell=float(raw["bytes_per_cell"]),
            beta=float(raw["beta"]),
            mflups=float(raw["mflups"]),
            n=int(raw["n"]),
            spread=float(raw["spread"]),
        )


@dataclasses.dataclass(frozen=True)
class Prediction:
    """One model answer: the rate, and how directly it was fitted."""

    mflups: float
    level: str  # "exact" | "dtype" | "kernel"
    kernel: str
    mode: str

    @property
    def seconds_per_update(self) -> float:
        return 1.0 / (self.mflups * 1e6)


# -- sample extraction -------------------------------------------------------


def _kernel_from_bench_name(name: str) -> str | None:
    """The registry kernel name encoded in a schema-1 benchmark id."""
    lowered = name.lower()
    for legacy, kernel in _LEGACY_KERNEL_NAMES.items():
        if legacy in lowered:
            return kernel
    return None


def samples_from_bench(
    record: Mapping[str, Any], source: str = ""
) -> tuple[list[MeasuredSample], int]:
    """Extract fit samples from one exported bench record.

    Returns ``(samples, skipped)`` where ``skipped`` counts throughput
    rows that could not be attributed to a (kernel, lattice) cell —
    legacy rows with unparseable names are skipped, never fatal.  Rows
    without an ``mflups`` figure (flop-ratio probes, overhead timers)
    are not samples and do not count as skipped.  Schema >= 4 records
    stamp the measuring ``host``; older records yield unattributed
    (``host=None``) samples.
    """
    host = record.get("host")
    samples: list[MeasuredSample] = []
    skipped = 0
    for name, entry in sorted(record.get("kernels", {}).items()):
        if not isinstance(entry, Mapping) or "mflups" not in entry:
            continue
        try:
            mflups = float(entry["mflups"])
        except (TypeError, ValueError):
            skipped += 1
            continue
        lowered = str(name).lower()
        kernel = entry.get("kernel") or _kernel_from_bench_name(str(name))
        match = _LATTICE_RE.search(str(name))
        lattice = match.group(0).upper() if match else entry.get("lattice")
        if not kernel or not lattice or mflups <= 0:
            skipped += 1
            continue
        dtype = str(
            entry.get("dtype") or ("float32" if "float32" in lowered else "float64")
        )
        raw_b = entry.get("bytes_per_cell")
        raw_fill = entry.get("fill")
        if "distributed" in lowered:
            mode = DISTRIBUTED
        elif raw_fill is not None or "sparse" in str(kernel).lower():
            mode = SPARSE
        else:
            mode = SINGLE
        samples.append(
            MeasuredSample(
                kernel=str(kernel),
                lattice=str(lattice),
                dtype=dtype,
                mflups=mflups,
                mode=mode,
                bytes_per_cell=float(raw_b) if raw_b is not None else None,
                host=str(host) if host else None,
                source=source,
                fill=float(raw_fill) if raw_fill is not None else None,
            )
        )
    return samples, skipped


# -- fitting -----------------------------------------------------------------


def _pooled_beta(entries: Sequence[ModelEntry]) -> float:
    """Least-squares beta over every sample behind ``entries``.

    The underlying model is linear, ``P_r = beta * x_r`` with
    ``x_r = 1 / (B_r * 1e6)``, so the pooled least-squares solution is
    ``sum(P_r x_r) / sum(x_r^2)``.  Within one entry all samples share
    ``B`` and ``mflups`` is their mean, so the per-sample sums
    reconstruct exactly from ``(n, mflups, B)`` — no sample retention
    needed.
    """
    num = 0.0
    den = 0.0
    for entry in entries:
        x = 1.0 / (entry.bytes_per_cell * 1e6)
        num += entry.n * entry.mflups * x
        den += entry.n * x * x
    if den <= 0:
        return float("nan")
    return num / den


def fit_samples(
    samples: Iterable[MeasuredSample],
    host: str | None = None,
    sources: Sequence[str] = (),
    skipped: int = 0,
) -> "FittedPerfModel":
    """Fit a :class:`FittedPerfModel` for ``host`` from ``samples``.

    Samples stamped with a *different* host are excluded (and counted
    in the model's ``skipped``); unattributed samples (``host=None``,
    i.e. legacy bench records) are accepted — all committed history
    predates host stamping.
    """
    host = host or platform.node()
    groups: dict[tuple[str, str, str, str], list[MeasuredSample]] = {}
    for sample in samples:
        if sample.host is not None and sample.host != host:
            skipped += 1
            continue
        key = (sample.kernel, sample.mode, sample.dtype, sample.lattice)
        groups.setdefault(key, []).append(sample)
    entries = []
    for (kernel, mode, dtype, lattice), group in sorted(groups.items()):
        bs = [s.resolved_bytes_per_cell() for s in group]
        b = bs[0]
        rates = [s.mflups for s in group]
        mean = sum(rates) / len(rates)
        if all(other == b for other in bs):
            # Uniform B: the least-squares solution collapses to the
            # sample mean; keep the closed form (historical behaviour).
            beta = mean * b * 1e6
            spread = max(abs(rate - mean) for rate in rates) / mean if mean else 0.0
        else:
            # Mixed B within a group (sparse samples at different fill
            # fractions): per-sample least squares on P_r = beta * x_r,
            # x_r = 1 / (B_r * 1e6), so one beta spans the fill axis.
            xs = [1.0 / (b_r * 1e6) for b_r in bs]
            den = sum(x * x for x in xs)
            beta = sum(p * x for p, x in zip(rates, xs)) / den if den else 0.0
            spread = max(
                abs(p - beta * x) / (beta * x) if beta * x else 0.0
                for p, x in zip(rates, xs)
            )
        entries.append(
            ModelEntry(
                kernel=kernel,
                mode=mode,
                dtype=dtype,
                lattice=lattice,
                bytes_per_cell=b,
                beta=beta,
                mflups=mean,
                n=len(group),
                spread=spread,
            )
        )
    return FittedPerfModel(
        host=host,
        entries=tuple(entries),
        fitted_at=time.time(),
        sources=tuple(sources),
        skipped=skipped,
    )


def fit(
    bench_paths: Sequence[str | Path] = (),
    host: str | None = None,
) -> "FittedPerfModel":
    """Fit from bench record files."""
    samples: list[MeasuredSample] = []
    sources: list[str] = []
    skipped = 0
    for path in bench_paths:
        path = Path(path)
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise PerfModelError(f"unreadable bench record {path}: {exc}") from exc
        found, bad = samples_from_bench(record, source=path.name)
        samples.extend(found)
        skipped += bad
        sources.append(path.name)
    if not samples:
        raise PerfModelError(
            f"no usable throughput samples in {[str(p) for p in bench_paths]}"
        )
    return fit_samples(samples, host=host, sources=sources, skipped=skipped)


# -- the model ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FittedPerfModel:
    """Fitted per-host overhead factors over the roofline B(Q) model."""

    host: str
    entries: tuple[ModelEntry, ...]
    fitted_at: float = 0.0
    sources: tuple[str, ...] = ()
    skipped: int = 0

    def __post_init__(self) -> None:
        index = {entry.key: entry for entry in self.entries}
        object.__setattr__(self, "_index", index)

    # -- lookup ------------------------------------------------------------

    def _beta(
        self, kernel: str, mode: str, dtype: str, lattice: str
    ) -> tuple[float, str] | None:
        """The most specific fitted beta for a cell, with its level."""
        exact = self._index.get((kernel, mode, dtype, lattice))
        if exact is not None:
            return exact.beta, "exact"
        pooled = [
            e
            for e in self.entries
            if (e.kernel, e.mode, e.dtype) == (kernel, mode, dtype)
        ]
        if pooled:
            return _pooled_beta(pooled), "dtype"
        pooled = [e for e in self.entries if (e.kernel, e.mode) == (kernel, mode)]
        if pooled:
            return _pooled_beta(pooled), "kernel"
        return None

    def predict(
        self,
        kernel: str,
        lattice: str,
        dtype: str = "float64",
        shape: Sequence[int] | None = None,
        ranks: int = 1,
        fill: float | None = None,
    ) -> Prediction | None:
        """Predicted MFLUP/s for one cell, or ``None`` when unfitted.

        ``shape`` participates through B(Q) only (the model is
        per-update); it is accepted so callers can pass a full problem
        description and feed :meth:`predict_case_seconds`.  ``ranks``
        selects the population: 1 predicts the single-domain kernels,
        >1 the slab-decomposed distributed pair, whose fits include the
        halo-exchange overhead the single-domain numbers lack.  A
        ``fill`` (fluid fraction) selects the sparse population and
        positions the prediction on the fill-extended B(Q, fill) curve.
        """
        if fill is not None:
            mode = SPARSE
        else:
            mode = DISTRIBUTED if ranks > 1 else SINGLE
        found = self._beta(str(kernel), mode, str(dtype), str(lattice).upper())
        if found is None:
            return None
        beta, level = found
        if lattice.upper() in available_lattices():
            if mode == SPARSE:
                b = float(
                    sparse_bytes_per_cell(get_lattice(lattice), dtype, fill=fill)
                )
            else:
                b = float(bytes_per_cell(get_lattice(lattice), dtype))
        else:
            exact = self._index.get((kernel, mode, dtype, lattice.upper()))
            if exact is None:
                return None
            b = exact.bytes_per_cell
        return Prediction(
            mflups=beta / (b * 1e6), level=level, kernel=str(kernel), mode=mode
        )

    def predict_mflups(
        self,
        kernel: str,
        lattice: str,
        dtype: str = "float64",
        shape: Sequence[int] | None = None,
        ranks: int = 1,
        fill: float | None = None,
    ) -> float:
        """Predicted MFLUP/s, ``nan`` when the model has no coverage."""
        prediction = self.predict(
            kernel, lattice, dtype, shape=shape, ranks=ranks, fill=fill
        )
        return float("nan") if prediction is None else prediction.mflups

    def predict_case_seconds(
        self,
        kernel: str,
        lattice: str,
        dtype: str,
        shape: Sequence[int],
        steps: int,
        ranks: int = 1,
    ) -> float:
        """Predicted wall-clock seconds for a whole case (inverse Eq. 4)."""
        prediction = self.predict(kernel, lattice, dtype, shape=shape, ranks=ranks)
        if prediction is None:
            return float("nan")
        cells = 1
        for extent in shape:
            cells *= int(extent)
        return steps * cells / (prediction.mflups * 1e6)

    # -- persistence -------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": CALIBRATION_SCHEMA,
            "host": self.host,
            "fitted_at": self.fitted_at,
            "sources": list(self.sources),
            "skipped": self.skipped,
            "entries": [entry.to_json() for entry in self.entries],
        }

    @classmethod
    def from_json(cls, raw: Mapping[str, Any]) -> "FittedPerfModel":
        if raw.get("schema") != CALIBRATION_SCHEMA:
            raise PerfModelError(
                f"calibration schema {raw.get('schema')!r} is not "
                f"{CALIBRATION_SCHEMA} (refit with `repro perf-model fit`)"
            )
        return cls(
            host=str(raw.get("host", "")),
            entries=tuple(ModelEntry.from_json(e) for e in raw.get("entries", [])),
            fitted_at=float(raw.get("fitted_at", 0.0)),
            sources=tuple(str(s) for s in raw.get("sources", [])),
            skipped=int(raw.get("skipped", 0)),
        )

    def summary_lines(self) -> list[str]:
        """The ``repro perf-model show`` report."""
        lines = [
            f"calibration for host {self.host!r}: {len(self.entries)} fitted "
            f"cell(s) from {sum(e.n for e in self.entries)} sample(s)"
            + (f", {self.skipped} skipped" if self.skipped else "")
        ]
        if self.sources:
            lines.append(f"  sources: {', '.join(self.sources)}")
        for entry in self.entries:
            lines.append(
                f"  {entry.kernel:>12s} {entry.mode:>11s} {entry.dtype} "
                f"{entry.lattice}: {entry.mflups:7.2f} MFLUP/s "
                f"(beta {entry.beta / 1e9:.2f} GB/s, n={entry.n}, "
                f"spread {entry.spread:.0%})"
            )
        return lines


# -- persistence -------------------------------------------------------------


def _host_slug(host: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "-" for c in host) or "unknown"


#: Environment variable overriding the calibration root.
KERNEL_CACHE_ENV = "REPRO_KERNEL_CACHE_DIR"


def kernel_cache_dir() -> Path:
    """The calibration root.

    ``$REPRO_KERNEL_CACHE_DIR`` when set, else the conventional
    per-user cache location (``$XDG_CACHE_HOME``/``~/.cache``) under
    ``repro/kernel-auto``, the directory's historical name.
    """
    override = os.environ.get(KERNEL_CACHE_ENV)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or (Path.home() / ".cache")
    return Path(base) / "repro" / "kernel-auto"


def calibration_path(host: str | None = None) -> Path:
    """Where ``host``'s calibration lives: one JSON per host under
    :func:`kernel_cache_dir`."""
    return (
        kernel_cache_dir()
        / "perf-model"
        / f"{_host_slug(host or platform.node())}.json"
    )


def save_calibration(
    model: FittedPerfModel, path: str | Path | None = None
) -> Path:
    """Atomically persist ``model`` (default: its host's standard path)."""
    path = Path(path) if path is not None else calibration_path(model.host)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(model.to_json(), indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def load_calibration(
    path: str | Path | None = None, host: str | None = None
) -> FittedPerfModel | None:
    """The persisted calibration, or ``None`` when absent/corrupt.

    Corrupt or schema-mismatched files read as "no calibration", so a
    broken file degrades its consumers (sweep packing falls back to
    grid order, ``predict`` reports no calibration) rather than
    crashing them.  An explicit ``path`` with an explicit problem still
    surfaces via ``repro perf-model show``, which calls
    :meth:`FittedPerfModel.from_json` directly.
    """
    path = Path(path) if path is not None else calibration_path(host)
    try:
        raw = json.loads(path.read_text())
        model = FittedPerfModel.from_json(raw)
    except (OSError, ValueError, PerfModelError, KeyError):
        return None
    if host is not None and model.host != host:
        return None
    return model
