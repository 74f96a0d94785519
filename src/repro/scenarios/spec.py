"""Declarative scenario specification.

A :class:`CaseSpec` is a frozen, self-contained description of one
workload: which lattice, what domain, how the geometry is built, which
boundary conditions and forcing apply, when to stop, and which scalar
observables to record along the way.  Everything the runner needs is
data or a pure factory callable — a registered case is ~30 lines of
declaration instead of a ~100-line standalone script.

Factories receive the spec itself, so case-specific knobs live in the
free-form ``params`` mapping and stay sweepable: a parameter sweep can
override ``tau``, ``lattice``, ``shape``, ``steps`` *or* any ``params``
key (e.g. the Knudsen number of the microchannel case) through
:meth:`CaseSpec.with_overrides`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import types
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from ..core.boundary import BoundaryCondition
from ..core.plan import AUTO_KERNEL, AUTO_RUNG, available_kernels
from ..core.simulation import Simulation
from ..errors import ScenarioError
from ..lattice import VelocitySet, available_lattices

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import CaseResult

__all__ = ["ARITHMETIC", "SPARSE_FORCING", "CaseSpec", "steady_state"]

#: Revision of the planned kernel's arithmetic, hashed into every
#: fingerprint.  Fingerprints hash specs, not code, so when a change
#: alters the bytes a spec steps to, this revision changes with it:
#: every cache entry, queue item and sweep record written before then misses
#: and re-runs instead of replaying the old bytes.  Revision 2 is the
#: explicit op sequence of ``core/collide.c`` and its numpy reference.
ARITHMETIC = 2

#: Forcing scheme of the sparse path, hashed into the fingerprint of
#: every forced sparse spec and of no other.  A sparse step used to add a
#: first-order force term after the collide; it now takes the Guo forcing
#: dense grids take, fused into the plan's collide, so entries written
#: under the old scheme miss and re-run instead of replaying its bytes.
SPARSE_FORCING = "guo"


def _const_token(const: Any) -> Any:
    """Canonical token of one code constant.  ``frozenset`` literals
    (set-membership tests) iterate in hash order, which varies with
    ``PYTHONHASHSEED`` — sort them so the token doesn't."""
    if hasattr(const, "co_code"):
        return _code_token(const)
    if isinstance(const, frozenset):
        return ["frozenset"] + sorted(repr(c) for c in const)
    if isinstance(const, tuple):
        return [_const_token(c) for c in const]
    return repr(const)


def _code_token(code: Any) -> list:
    """Identity of a function body: bytecode + names + consts.

    Line numbers are excluded, so two textually identical lambdas
    defined in different places agree; two same-qualname lambdas with
    *different* bodies (the classic ``<lambda>`` collision) do not.
    Nested code objects (inner functions, comprehensions) recurse.
    """
    consts = [_const_token(const) for const in code.co_consts]
    return [code.co_code.hex(), list(code.co_names), consts]


def _instance_token(obj: Any, _seen: frozenset = frozenset()) -> Any:
    """Identity of a configured object: its class plus attribute state
    (modules just contribute their name — their dict is the world)."""
    if isinstance(obj, types.ModuleType):
        return f"module:{obj.__name__}"
    if id(obj) in _seen:  # cyclic object graph
        return "recursive-instance"
    _seen = _seen | {id(obj)}
    cls = type(obj)
    state = getattr(obj, "__dict__", {})
    return [
        f"{cls.__module__}:{cls.__qualname__}",
        {str(k): _fingerprint_token(v, _seen) for k, v in sorted(state.items())},
    ]


def _fingerprint_token(value: Any, _seen: frozenset = frozenset()) -> Any:
    """Reduce one spec field to a canonical, process-stable token.

    Callables (geometry builders, observables, hooks) are identified by
    their qualified name plus their body's bytecode, so the same source
    yields the same token in every interpreter — the property that lets
    sweep workers in different processes agree on cache keys — while
    distinct same-qualname callables (two ``<lambda>``s in one scope)
    cannot collide.  Closures additionally contribute their captured
    cell values and defaults: ``steady_state(obs, rtol=1e-6)`` and
    ``rtol=1e-8`` return functions with identical qualnames and bodies
    but must not collide either.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, functools.partial):
        return [
            "partial",
            _fingerprint_token(value.func, _seen),
            [_fingerprint_token(a, _seen) for a in value.args],
            {str(k): _fingerprint_token(v, _seen) for k, v in value.keywords.items()},
        ]
    if callable(value):
        if id(value) in _seen:  # self-referential closure
            return "recursive-callable"
        _seen = _seen | {id(value)}
        module = getattr(value, "__module__", None)
        qualname = getattr(value, "__qualname__", None)
        if module is not None and qualname is not None:
            token: list[Any] = [f"{module}:{qualname}"]
            func = getattr(value, "__func__", value)  # bound method -> function
            code = getattr(func, "__code__", None)
            if code is not None:
                token.append(_code_token(code))
            defaults = getattr(func, "__defaults__", None) or ()
            if defaults:
                token.append([_fingerprint_token(d, _seen) for d in defaults])
            owner = getattr(value, "__self__", None)
            if owner is not None:  # bound method: instance config matters
                token.append(_instance_token(owner, _seen))
            cells = getattr(func, "__closure__", None) or ()
            captured = []
            for cell in cells:
                try:
                    captured.append(_fingerprint_token(cell.cell_contents, _seen))
                except ValueError:  # empty cell
                    captured.append("empty-cell")
            if captured:
                token.append(captured)
            return token[0] if len(token) == 1 else token
        return _instance_token(value, _seen)
    if isinstance(value, np.ndarray):
        return _fingerprint_token(value.tolist(), _seen)
    if isinstance(value, Mapping):
        return {str(k): _fingerprint_token(v, _seen) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fingerprint_token(v, _seen) for v in value]
    if isinstance(value, (set, frozenset)):
        return ["set"] + sorted(repr(_fingerprint_token(v, _seen)) for v in value)
    text = repr(value)
    if " at 0x" in text:  # default repr embeds a memory address:
        return _instance_token(value, _seen)  # hash state, not identity
    return f"{type(value).__module__}:{type(value).__qualname__}:{text}"

# Factory signatures (all receive the spec so they can read spec.params):
GeometryBuilder = Callable[["CaseSpec"], np.ndarray]
BoundaryFactory = Callable[
    ["CaseSpec", VelocitySet, "np.ndarray | None"], Sequence[BoundaryCondition]
]
CollisionFactory = Callable[["CaseSpec", VelocitySet], Any]
InitialCondition = Callable[["CaseSpec"], "tuple[np.ndarray, np.ndarray]"]
Observable = Callable[[Simulation], float]
StopCondition = Callable[[], Callable[[Simulation], bool]]


@dataclasses.dataclass(frozen=True)
class CaseSpec:
    """Frozen declaration of one simulation workload.

    Attributes
    ----------
    name:
        Registry key (kebab-case, e.g. ``"taylor-green"``).
    title / description:
        Human-readable catalog entries.
    lattice:
        Velocity-set name (``"D3Q19"``, ``"D3Q39"``, ...).
    shape:
        Spatial grid shape.
    tau:
        BGK relaxation time (a ``collision`` factory may ignore it).
    order:
        Hermite equilibrium order (``None`` = lattice native).
    kernel:
        Stream/collide kernel name (``"planned"``, the default, or
        ``"naive"``, the executable spec).  A sparse case runs
        ``"planned"`` only (also spelled ``"sparse-planned"``).  The
        planned kernel runs forced, walled cases end to end (static
        walls folded into its gather table, Guo forcing fused into its
        arena), and it streams cases with a ``collision`` factory too,
        whose operator replaces only its collide: such a case requires
        ``"planned"`` and the ``"soa"`` layout (``naive`` is BGK-only).
        ``"auto"`` is stored as the rung it aliases (``"planned"``), so
        an ``auto`` spec shares the planned spec's fingerprint.
    dtype:
        Population dtype policy, ``"float64"`` (default) or
        ``"float32"``.  Fingerprint-sensitive, like ``kernel``: sweep
        cache entries distinguish kernel/dtype variants.
    layout:
        Physical memory order of the persistent field, ``"soa"``
        (default) or ``"aos"`` (requires ``kernel="planned"``).
        Fingerprint-sensitive and overridable like ``kernel``/``dtype``
        even though both layouts produce byte-identical results per
        dtype — a sweep axis over layouts measures throughput, and the
        cache must keep the variants' timings apart.
    collision:
        Optional factory ``(spec, lattice) -> operator``; default BGK.
    geometry:
        Optional factory ``(spec) -> solid bool mask`` over the grid.
    boundaries:
        Optional factory ``(spec, lattice, solid) -> [BoundaryCondition]``.
    forcing:
        Constant body-force vector, or ``None``.
    initial:
        Factory ``(spec) -> (rho, u)``; default uniform fluid at rest.
    steps:
        Maximum number of time steps.
    stop_when:
        Optional *factory* returning a fresh stopping predicate
        ``(sim) -> bool`` evaluated at monitor points (factories keep
        stateful convergence monitors from leaking between runs).
    monitor_every / check_stability_every:
        Observable-recording and stability-check periods.
    observables:
        Named scalar probes ``(sim) -> float`` recorded as time series.
    analysis:
        Optional post-run hook ``(CaseResult) -> {metric: value}``.
    checks:
        Optional pass/fail hook ``(CaseResult) -> {check: bool}``.
    report:
        Optional pretty-printer ``(CaseResult) -> str`` for the CLI.
    params:
        Free-form case knobs read by the factories; sweepable.
    tags:
        Catalog labels (``"continuum"``, ``"kinetic"``, ``"model"``...).
    """

    name: str
    title: str
    description: str = ""
    lattice: str = "D3Q19"
    shape: tuple[int, ...] = (16, 16, 16)
    tau: float = 0.8
    order: int | None = None
    kernel: str = "planned"
    dtype: str = "float64"
    layout: str = "soa"
    collision: CollisionFactory | None = None
    geometry: GeometryBuilder | None = None
    boundaries: BoundaryFactory | None = None
    forcing: tuple[float, ...] | None = None
    initial: InitialCondition | None = None
    steps: int = 500
    stop_when: StopCondition | None = None
    monitor_every: int = 10
    check_stability_every: int = 100
    observables: Mapping[str, Observable] = dataclasses.field(default_factory=dict)
    analysis: Callable[["CaseResult"], Mapping[str, Any]] | None = None
    checks: Callable[["CaseResult"], Mapping[str, bool]] | None = None
    report: Callable[["CaseResult"], str] | None = None
    params: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(
                f"case {self.name!r}: shape must be a sequence of ints, "
                f"got {self.shape!r}"
            ) from exc
        if self.forcing is not None:
            try:
                object.__setattr__(
                    self, "forcing", tuple(float(c) for c in self.forcing)
                )
            except (TypeError, ValueError) as exc:
                raise ScenarioError(
                    f"case {self.name!r}: forcing must be a sequence of "
                    f"floats, got {self.forcing!r}"
                ) from exc
        if self.kernel == AUTO_KERNEL:
            object.__setattr__(self, "kernel", AUTO_RUNG)
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "observables", dict(self.observables))
        object.__setattr__(self, "tags", tuple(self.tags))

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ScenarioError` if the declaration is inconsistent."""
        if not self.name:
            raise ScenarioError("case name must be non-empty")
        if self.lattice not in available_lattices():
            raise ScenarioError(
                f"case {self.name!r}: unknown lattice {self.lattice!r} "
                f"(available: {', '.join(available_lattices())})"
            )
        if len(self.shape) != 3 or any(s < 1 for s in self.shape):
            raise ScenarioError(
                f"case {self.name!r}: shape must be 3 positive ints, got {self.shape}"
            )
        if not isinstance(self.tau, (int, float)):
            raise ScenarioError(
                f"case {self.name!r}: tau must be a number, got {self.tau!r}"
            )
        if self.collision is None and not self.tau > 0.5:
            raise ScenarioError(
                f"case {self.name!r}: BGK tau must exceed 0.5, got {self.tau}"
            )
        sparse = bool(self.params.get("sparse"))
        if sparse and self.kernel not in ("planned", "sparse-planned"):
            # A sparse domain steps one way (PlannedSparseKernel); any
            # other name would run it under a different fingerprint.
            raise ScenarioError(
                f"case {self.name!r}: sparse cases run kernel 'planned' "
                "(also spelled 'sparse-planned' or 'auto'), got "
                f"{self.kernel!r}"
            )
        if self.kernel not in available_kernels():
            raise ScenarioError(
                f"case {self.name!r}: unknown kernel {self.kernel!r} "
                f"(available: {', '.join(available_kernels())})"
            )
        if not sparse and self.kernel.startswith("sparse-"):
            raise ScenarioError(
                f"case {self.name!r}: kernel {self.kernel!r} requires a "
                "sparse domain (set params={'sparse': True} and provide "
                "a geometry mask)"
            )
        if self.collision is not None and (
            self.kernel != "planned" or self.layout != "soa"
        ):
            raise ScenarioError(
                f"case {self.name!r}: a collision factory runs on kernel "
                "'planned' in layout 'soa' (the naive kernel is BGK-only), "
                f"got kernel={self.kernel!r}, layout={self.layout!r}"
            )
        if self.dtype not in ("float32", "float64"):
            raise ScenarioError(
                f"case {self.name!r}: dtype must be 'float32' or 'float64', "
                f"got {self.dtype!r}"
            )
        if self.layout not in ("soa", "aos"):
            raise ScenarioError(
                f"case {self.name!r}: layout must be 'soa' or 'aos', "
                f"got {self.layout!r}"
            )
        if self.layout == "aos":
            if sparse:
                raise ScenarioError(
                    f"case {self.name!r}: layout 'aos' does not apply to "
                    "sparse cases (sparse kernels store populations per "
                    "fluid site)"
                )
            if self.kernel != "planned":
                raise ScenarioError(
                    f"case {self.name!r}: layout 'aos' requires "
                    "kernel='planned' (the plan remaps its gather table "
                    f"per layout), got kernel={self.kernel!r}"
                )
        if sparse and self.geometry is None:
            raise ScenarioError(
                f"case {self.name!r}: a sparse case needs a geometry "
                "factory (the solid mask defines the fluid set)"
            )
        for field_name in ("steps", "monitor_every", "check_stability_every"):
            if not isinstance(getattr(self, field_name), int):
                raise ScenarioError(
                    f"case {self.name!r}: {field_name} must be an int, "
                    f"got {getattr(self, field_name)!r}"
                )
        if self.steps < 1:
            raise ScenarioError(
                f"case {self.name!r}: steps must be positive, got {self.steps}"
            )
        if self.monitor_every < 1:
            raise ScenarioError(
                f"case {self.name!r}: monitor_every must be positive"
            )
        if self.forcing is not None and len(self.forcing) != len(self.shape):
            raise ScenarioError(
                f"case {self.name!r}: forcing must have {len(self.shape)} components"
            )

    # -- identity ----------------------------------------------------------

    def fingerprint(self) -> str:
        """Canonical content hash of this spec (sweep-cache key).

        Covers every field: two specs share a fingerprint iff they
        declare the same workload, regardless of the order their
        overrides/params were applied in and of the process computing
        it.  Factory callables contribute their qualified names, so
        editing which factory a case uses invalidates its cache entries
        while re-running an identical sweep hits them.  The token also
        carries :data:`ARITHMETIC`, so a change to the stepping
        arithmetic re-baselines every fingerprint at once.

        The token is JSON-typed already (string keys, lists, scalars),
        so it is dumped as is: the text, and so the digest, equals
        ``canonical_json(self.fingerprint_token())``.
        """
        text = json.dumps(
            self.fingerprint_token(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def fingerprint_token(self) -> dict[str, Any]:
        """The canonical, process-stable token :meth:`fingerprint` hashes:
        every field's token plus :data:`ARITHMETIC`, and
        :data:`SPARSE_FORCING` for a forced sparse spec."""
        token = {
            field.name: _fingerprint_token(getattr(self, field.name))
            for field in dataclasses.fields(self)
        }
        token["arithmetic"] = ARITHMETIC
        if self.forcing is not None and self.params.get("sparse"):
            token["sparse_forcing"] = SPARSE_FORCING
        return token

    # -- derivation --------------------------------------------------------

    #: CaseSpec field names a sweep/CLI may override directly.
    OVERRIDABLE = frozenset(
        {"lattice", "shape", "tau", "order", "kernel", "dtype", "layout",
         "forcing", "steps", "monitor_every", "check_stability_every"}
    )

    def with_overrides(self, **overrides: Any) -> "CaseSpec":
        """A copy with selected fields replaced.

        Keys in :data:`OVERRIDABLE` replace the spec field; any other
        key is merged into ``params`` (unknown knobs belong to the
        case's factories, which decide what they mean).  Spec fields
        outside :data:`OVERRIDABLE` (titles, factories, hooks) are
        rejected rather than silently routed to ``params``.
        """
        fields = {k: v for k, v in overrides.items() if k in self.OVERRIDABLE}
        extra = {k: v for k, v in overrides.items() if k not in self.OVERRIDABLE}
        field_names = {f.name for f in dataclasses.fields(self)}
        blocked = sorted(set(extra) & field_names)
        if blocked:
            raise ScenarioError(
                f"case {self.name!r}: spec field(s) {', '.join(blocked)} "
                f"cannot be overridden (only {', '.join(sorted(self.OVERRIDABLE))} "
                "and free-form params)"
            )
        if extra:
            fields["params"] = {**self.params, **extra}
        return dataclasses.replace(self, **fields)


def steady_state(
    observable: Observable, rtol: float = 1e-6
) -> StopCondition:
    """Stop when ``observable`` changes by less than ``rtol`` (relative)
    between consecutive monitor points.

    Returns a *factory* so every run gets its own convergence history.
    """

    def make() -> Callable[[Simulation], bool]:
        last: list[float] = []

        def predicate(sim: Simulation) -> bool:
            value = float(observable(sim))
            converged = bool(
                last and abs(value - last[0]) <= rtol * max(abs(last[0]), 1e-300)
            )
            last[:] = [value]
            return converged

        return predicate

    return make
