"""Declarative scenario subsystem.

Turn workloads into data: a :class:`CaseSpec` declares lattice, domain,
geometry, boundary conditions, forcing, stopping criteria and
observables; :func:`register_case` puts it in the catalog;
:class:`CaseRunner` executes it with checkpoint/restart; :class:`Sweep`
expands parameter grids into comparison tables; :class:`SweepExecutor`,
the one sweep driver, runs the variants behind a content-addressed
:class:`ResultCache`, so interrupted sweeps resume and identical sweeps
replay for free.  With ``jobs > 1`` it adds its variants to the
directory's :class:`WorkQueue` and starts local lease workers (:func:`run_worker`) — the same loop
that runs on any host sharing the cache directory — and
:class:`AdaptiveSampler` replaces full Cartesian expansion of large
grids with a coarse pass plus refinement where a chosen observable
changes fastest.

>>> from repro.scenarios import run_case
>>> result = run_case("taylor-green", steps=100)
>>> result.passed
True

CLI: ``python -m repro cases`` / ``case <name>`` / ``sweep <name>`` /
``sweep-worker --cache-dir DIR`` / ``sweep-status --cache-dir DIR``.
"""

from .cache import CacheDiff, CacheLookup, ResultCache, SweepManifest
from .executor import SweepExecutor, SweepPlan
from .registry import available_cases, catalog_table, get_case, register_case
from .runner import CaseResult, CaseRunner, run_case
from .sampling import AdaptiveSampler
from .scheduler import (
    LeaseBoard,
    SweepStatus,
    WorkQueue,
    sweep_status,
)
from .spec import CaseSpec, steady_state
from .sweep import Sweep, SweepResult
from .workers import WorkerReport, run_worker

__all__ = [
    "AdaptiveSampler",
    "available_cases",
    "CacheDiff",
    "CacheLookup",
    "CaseResult",
    "CaseRunner",
    "CaseSpec",
    "catalog_table",
    "get_case",
    "LeaseBoard",
    "register_case",
    "ResultCache",
    "run_case",
    "run_worker",
    "steady_state",
    "Sweep",
    "SweepExecutor",
    "SweepManifest",
    "SweepPlan",
    "SweepResult",
    "SweepStatus",
    "sweep_status",
    "WorkerReport",
    "WorkQueue",
]
