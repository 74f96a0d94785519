"""Parallel runtime: simulated MPI, decomposition, halos, distributed LBM."""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "decomposition": ["Slab1D"],
        "distributed": ["DistributedSimulation"],
        "halo": ["HaloSlab", "HaloSpec"],
        "hybrid": ["HybridConfig"],
        "instrumentation": ["PhaseProfile", "PhaseProfiler"],
        "mpi_sim": ["MessageLedger", "MessageRecord", "Request", "SimMPI"],
        "plan": ["PlannedSlabKernel"],
        "schedules": ["ExchangeSchedule"],
    },
)

__all__ = [
    "DistributedSimulation",
    "PlannedSlabKernel",
    "ExchangeSchedule",
    "HaloSlab",
    "HaloSpec",
    "HybridConfig",
    "MessageLedger",
    "PhaseProfile",
    "PhaseProfiler",
    "MessageRecord",
    "Request",
    "SimMPI",
    "Slab1D",
]
