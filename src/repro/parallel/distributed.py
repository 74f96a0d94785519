"""Distributed LBM on the simulated MPI fabric.

Runs the paper's parallel algorithm — 1-D slab decomposition, halo-padded
subdomains, deep-halo exchanges every ``depth`` steps — with *exact*
functional semantics: for any rank count, ghost depth, schedule and
dtype, the gathered global state equals the planned single-domain
:class:`~repro.core.simulation.Simulation` (``kernel="planned"``)
configured the same way, bit for bit (unit- and property-tested; it is
the correctness contract the paper's optimizations must preserve).

Every slab steps through :class:`~repro.parallel.plan.PlannedSlabKernel`,
the windowed zero-allocation analogue of the single-domain planned
kernel (gather-table streaming + the plan's collide), shared by slabs of
equal geometry.

The dtype policy reaches every buffer: slab storage, window buffers and
the exchange payloads, so ``dtype="float32"`` halves the message ledger's
byte counts exactly as the paper's B(Q) bandwidth analysis predicts.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..core.collision import BGKCollision
from ..core.equilibrium import equilibrium
from ..core.fields import resolve_dtype
from ..errors import DecompositionError
from ..lattice import VelocitySet, get_lattice
from ..telemetry.recorder import NullTelemetry, Telemetry, get_telemetry
from .decomposition import Slab1D
from .halo import TAG_TO_LEFT, TAG_TO_RIGHT, HaloSlab, HaloSpec
from .mpi_sim import Request, SimMPI
from .plan import PlannedSlabKernel
from .schedules import ExchangeSchedule

__all__ = ["DistributedSimulation"]


class DistributedSimulation:
    """Slab-parallel periodic LBM simulation (simulated MPI).

    Parameters
    ----------
    lattice:
        Velocity set or name.
    global_shape:
        Global grid ``(nx, ny, nz)``; decomposed along x.
    tau:
        BGK relaxation time.
    num_ranks:
        Number of subdomains/ranks.
    ghost_depth:
        Deep-halo depth ``d``: halo width ``d*k`` planes per side,
        exchanges every ``d`` steps (paper §V-A).
    order:
        Hermite equilibrium order (``None`` = lattice native).
    schedule:
        Message-posting discipline (physics-neutral; affects the ledger
        ordering and the performance model only).
    fabric:
        Optional shared :class:`SimMPI` (a fresh one is made by default).
    dtype:
        Population dtype policy, ``"float64"`` (default) or
        ``"float32"`` (halves storage *and* halo payload bytes).
    telemetry:
        Structured-event recorder (:class:`~repro.telemetry.Telemetry`).
        ``None`` uses the ambient recorder
        (:func:`repro.telemetry.get_telemetry` — the no-op default
        unless ``$REPRO_TELEMETRY_DIR`` or an installed recorder enables
        it).  When enabled, every step emits per-rank
        ``phase.stream``/``phase.collide`` spans plus ``phase.exchange``
        spans, and the fabric counts ``comm.bytes``/``comm.messages``.
    """

    def __init__(
        self,
        lattice: VelocitySet | str,
        global_shape: Sequence[int],
        tau: float = 1.0,
        num_ranks: int = 2,
        ghost_depth: int = 1,
        order: int | None = None,
        schedule: ExchangeSchedule = ExchangeSchedule.NONBLOCKING_GC,
        fabric: SimMPI | None = None,
        dtype: "np.dtype | str | None" = None,
        telemetry: "Telemetry | NullTelemetry | None" = None,
    ) -> None:
        self.lattice = get_lattice(lattice) if isinstance(lattice, str) else lattice
        self.global_shape = tuple(int(s) for s in global_shape)
        if len(self.global_shape) != 3:
            raise DecompositionError("global shape must be 3-D")
        self.dtype = resolve_dtype(dtype)
        self.decomp = Slab1D(self.global_shape[0], num_ranks)
        self.spec = HaloSpec.for_lattice(self.lattice, ghost_depth)
        self.decomp.validate_halo(self.spec.width)
        self.schedule = schedule
        self.mpi = fabric or SimMPI(num_ranks)
        self.collision = BGKCollision(self.lattice, tau, order=order)
        _, ny, nz = self.global_shape
        self.slabs = [
            HaloSlab(
                self.lattice,
                self.decomp.local_size(r),
                ny,
                nz,
                self.spec,
                dtype=self.dtype,
            )
            for r in range(num_ranks)
        ]
        # Planned slab kernels, shared across equal-geometry slabs: the
        # SPMD emulation steps ranks strictly sequentially, so the
        # mutable window arenas are never used concurrently.
        self._slab_kernels: dict[int, PlannedSlabKernel] = {}
        for slab in self.slabs:
            if slab.local_nx not in self._slab_kernels:
                self._slab_kernels[slab.local_nx] = PlannedSlabKernel(
                    self.lattice,
                    slab.local_nx,
                    ny,
                    nz,
                    self.spec,
                    tau,
                    order=order,
                    dtype=self.dtype,
                )
        self.time_step = 0
        self.exchange_count = 0
        self.telemetry = get_telemetry() if telemetry is None else telemetry
        if self.telemetry.enabled:
            self.mpi.telemetry = self.telemetry

    # -- setup ---------------------------------------------------------------

    def set_telemetry(self, telemetry: "Telemetry | NullTelemetry") -> None:
        """Install a recorder on this simulation *and* its fabric, so
        phase spans and comm counters land in the same event stream."""
        self.telemetry = telemetry
        self.mpi.telemetry = telemetry

    @property
    def num_ranks(self) -> int:
        return self.decomp.num_ranks

    def initialize(self, rho: np.ndarray | float, u: np.ndarray) -> None:
        """Scatter the equilibrium of global ``(rho, u)`` to all slabs."""
        rho_arr = np.broadcast_to(np.asarray(rho, dtype=np.float64), self.global_shape)
        # Same evaluation as Simulation.initialize under the same dtype
        # policy, so distributed and single-domain runs start from
        # identical populations at either precision.
        f_global = equilibrium(
            self.lattice,
            np.array(rho_arr),
            u,
            order=self.collision.order,
            dtype=self.dtype,
        )
        for rank, slab in enumerate(self.slabs):
            lo, hi = self.decomp.start(rank), self.decomp.stop(rank)
            slab.interior_view()[...] = f_global[:, lo:hi]
            slab.validity = 0  # force an exchange before the first step
        self.time_step = 0
        self.exchange_count = 0

    # -- communication ---------------------------------------------------------

    def exchange(self) -> None:
        """Halo exchange for all ranks under the configured schedule.

        All schedules move identical data; they differ in posting order,
        which the message ledger records faithfully (receives are
        resolved via explicit ``waitall`` in the non-blocking modes,
        mirroring Fig. 7 of the paper).
        """
        self.mpi.step_clock = self.time_step
        if self.schedule is ExchangeSchedule.BLOCKING:
            self._exchange_blocking()
        else:
            self._exchange_nonblocking()
        for slab in self.slabs:
            slab.mark_exchanged()
        self.exchange_count += 1

    def _exchange_blocking(self) -> None:
        # Classic paired sendrecv sweep: right-going then left-going.
        # Payloads are the slabs' own preallocated send buffers (stable
        # for the whole phase), received into preallocated buffers — no
        # per-exchange array allocations anywhere in the path.
        for rank, slab in enumerate(self.slabs):
            right = self.decomp.right_neighbor(rank)
            self.mpi.isend(rank, right, TAG_TO_RIGHT, slab.pack_to_right(), copy=False)
        for rank, slab in enumerate(self.slabs):
            left = self.decomp.left_neighbor(rank)
            req = self.mpi.irecv(rank, left, TAG_TO_RIGHT, buffer=slab.recv_from_left)
            self.mpi.waitall([req])
            slab.unpack_from_left(req.data)
        for rank, slab in enumerate(self.slabs):
            left = self.decomp.left_neighbor(rank)
            self.mpi.isend(rank, left, TAG_TO_LEFT, slab.pack_to_left(), copy=False)
        for rank, slab in enumerate(self.slabs):
            right = self.decomp.right_neighbor(rank)
            req = self.mpi.irecv(rank, right, TAG_TO_LEFT, buffer=slab.recv_from_right)
            self.mpi.waitall([req])
            slab.unpack_from_right(req.data)

    def _exchange_nonblocking(self) -> None:
        # Irecv first, Isend second, one Waitall at the end (paper §V-E).
        recvs: list[tuple[int, Request, Request]] = []
        for rank in range(self.num_ranks):
            left = self.decomp.left_neighbor(rank)
            right = self.decomp.right_neighbor(rank)
            slab = self.slabs[rank]
            from_left = self.mpi.irecv(
                rank, left, TAG_TO_RIGHT, buffer=slab.recv_from_left
            )
            from_right = self.mpi.irecv(
                rank, right, TAG_TO_LEFT, buffer=slab.recv_from_right
            )
            recvs.append((rank, from_left, from_right))
        for rank, slab in enumerate(self.slabs):
            self.mpi.isend(
                rank,
                self.decomp.right_neighbor(rank),
                TAG_TO_RIGHT,
                slab.pack_to_right(),
                copy=False,
            )
            self.mpi.isend(
                rank,
                self.decomp.left_neighbor(rank),
                TAG_TO_LEFT,
                slab.pack_to_left(),
                copy=False,
            )
        for rank, from_left, from_right in recvs:
            self.mpi.waitall([from_left, from_right])
            self.slabs[rank].unpack_from_left(from_left.data)
            self.slabs[rank].unpack_from_right(from_right.data)

    # -- stepping -----------------------------------------------------------------

    def slab_kernel_for(self, slab: HaloSlab) -> PlannedSlabKernel:
        """The planned kernel serving ``slab``."""
        return self._slab_kernels[slab.local_nx]

    def step(self) -> None:
        """One global time step (exchanging first if halos are exhausted).

        The disabled-telemetry cost of the instrumentation hook is this
        one attribute check — the hot path below it is untouched and
        stays allocation-free (tracemalloc-asserted in the tests).
        """
        if self.telemetry.enabled:
            return self._step_instrumented()
        if any(slab.validity < self.spec.k for slab in self.slabs):
            self.exchange()
        for slab in self.slabs:
            self._slab_kernels[slab.local_nx].step(slab)
        self.time_step += 1

    def _step_instrumented(self) -> None:
        """One step with per-rank phase spans (physics identical).

        The SPMD emulation executes ranks sequentially, so per-rank
        stream/collide seconds are measured directly; the exchange runs
        once for *all* ranks, so its span carries a ``ranks`` attribute
        and readers split it evenly (the Fig. 9 attribution rule shared
        with :meth:`PhaseProfile.from_events`).
        """
        telemetry = self.telemetry
        clock = time.perf_counter
        if any(slab.validity < self.spec.k for slab in self.slabs):
            t0 = clock()
            self.exchange()
            telemetry.record_span(
                "phase.exchange", clock() - t0, ranks=self.num_ranks
            )
        for rank, slab in enumerate(self.slabs):
            streamed, collided = self.slab_kernel_for(slab).timed_step(slab)
            telemetry.record_span("phase.stream", streamed, rank=rank)
            telemetry.record_span("phase.collide", collided, rank=rank)
        self.time_step += 1

    def run(self, steps: int) -> None:
        """Advance ``steps`` time steps."""
        for _ in range(steps):
            self.step()

    # -- output -----------------------------------------------------------------

    def gather(self) -> np.ndarray:
        """Assemble the global population array ``(Q, nx, ny, nz)``."""
        parts = [slab.interior_view() for slab in self.slabs]
        return np.concatenate(parts, axis=1)

    def message_count(self) -> int:
        """Total messages sent so far (deep halos reduce this d-fold)."""
        return self.mpi.ledger.message_count

    def total_comm_bytes(self) -> int:
        """Total payload bytes moved so far."""
        return self.mpi.ledger.total_bytes
