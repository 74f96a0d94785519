"""Parallel runtime: simulated MPI, decomposition, halos, distributed LBM."""

from .decomposition import Slab1D
from .distributed import DistributedSimulation
from .halo import HaloSlab, HaloSpec
from .hybrid import HybridConfig
from .instrumentation import PhaseProfile, PhaseProfiler
from .mpi_sim import MessageLedger, MessageRecord, Request, SimMPI
from .plan import PlannedSlabKernel
from .schedules import ExchangeSchedule

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
