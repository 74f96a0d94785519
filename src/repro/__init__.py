"""repro — reproduction of Randles et al., IPDPS 2013.

*"Performance Analysis of the Lattice Boltzmann Model Beyond
Navier-Stokes"*

Subpackages
-----------
``repro.lattice``
    Discrete velocity models (D3Q15/19/27/39), Gauss-Hermite machinery.
``repro.core``
    The LBM solver: equilibria, BGK/regularized collision, streaming,
    boundary conditions, forcing, units, single-domain driver, sparse
    (indirect-addressing) domains.
``repro.parallel``
    Simulated-MPI distributed solver with deep-halo ghost cells.
``repro.machine``
    Blue Gene/P & /Q machine models: roofline, torus, memory, caches.
``repro.perf``
    Performance engine: cost model, optimization ladder, event
    simulator, ghost-depth tuner, hybrid-threading model.
``repro.experiments``
    One ``run()`` per paper table/figure + registry.
``repro.analysis``
    Reporting: paper reference values, table rendering, ASCII plots.
``repro.scenarios``
    Declarative application workloads: case registry, runner with
    checkpoint/restart, parameter sweeps, lease workers.
``repro.resilience``
    The sweep fleet's failure ledger and deterministic fault injection.
``repro.telemetry``
    Structured spans, counters and JSONL event files, and their rollups.
``repro.serve``
    The ``repro serve`` HTTP front end.
``repro.api``
    The programmatic facade the CLI, the server and library callers
    share.

``import repro`` runs this module, ``repro._lazy`` and ``repro._version``
alone: each subpackage loads on first access, and each package resolves
its own submodules and re-exported names the same way (see
:mod:`repro._lazy`).
"""

from . import _lazy
from ._version import __version__

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "core": ["Simulation"],
        "experiments": ["run_experiment"],
        "lattice": ["get_lattice"],
        "parallel": ["DistributedSimulation"],
        "scenarios": ["run_case"],
    },
)

__all__ = [
    "analysis",
    "api",
    "core",
    "DistributedSimulation",
    "errors",
    "experiments",
    "get_lattice",
    "lattice",
    "machine",
    "parallel",
    "perf",
    "run_case",
    "run_experiment",
    "scenarios",
    "Simulation",
    "__version__",
]
