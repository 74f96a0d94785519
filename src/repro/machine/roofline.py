"""The Wellein/Randles performance model (paper §III-B, Table II).

Attainable throughput in lattice updates per second is the roofline
(Eq. 5)::

    P [Flup/s] = min( Bm / B , Ppeak / F )

with ``B`` bytes moved to/from main memory per cell update (two loads +
one store of all Q populations: 456 for D3Q19, 936 for D3Q39) and ``F``
core floating-point operations per cell (178 / 190 in the paper's
implementation).  Whichever term is smaller is the *performance
limiter* — on both Blue Genes and both lattices it is the bandwidth
(the red highlights of Table II).

Also implements the §III-C refinements: the torus-bandwidth lower bound
(all loads/stores served over the network) and the hardware-efficiency
upper bound ``P(Bm) / P(Ppeak)``.  For the host this runs on, ``Bm``
comes from :func:`copy_bandwidth`, a copy probe measured per call.
"""

from __future__ import annotations

import dataclasses
import enum
import time

import numpy as np

from ..lattice import VelocitySet
from .spec import MachineSpec

__all__ = [
    "Limiter",
    "RooflinePoint",
    "bytes_per_cell",
    "copy_bandwidth",
    "sparse_bytes_per_cell",
    "roofline",
    "torus_lower_bound",
    "hardware_efficiency_bound",
    "FLOPS_PER_CELL",
    "flops_per_cell",
]

#: Bytes per stored population value at each supported precision; the
#: paper's B(Q) figures assume double precision (8 bytes).
DTYPE_ITEMSIZE = {"float32": 4, "float64": 8}


def bytes_per_cell(lattice: VelocitySet, dtype: str = "float64") -> int:
    """B(Q) at a given population precision.

    The paper's Table II bytes-per-cell figures (two loads + one store
    of all Q populations: 456 for D3Q19, 936 for D3Q39) assume double
    precision; float32 storage halves them — the dtype-policy knob the
    roofline says roughly doubles bandwidth-bound throughput.
    """
    itemsize = DTYPE_ITEMSIZE.get(str(dtype))
    if itemsize is None:
        raise KeyError(
            f"unknown population dtype {dtype!r} "
            f"(known: {', '.join(sorted(DTYPE_ITEMSIZE))})"
        )
    # Scale the canonical double-precision figure; exact by construction
    # (B is a multiple of 8).
    return lattice.bytes_per_cell * itemsize // 8


#: Cache-line size assumed by the sparse fill penalty (bytes).  The
#: paper's machines and commodity x86 both move 64-byte (or larger)
#: lines; the exact figure only shifts the traffic estimate, not the trend.
CACHE_LINE_BYTES = 64


def sparse_bytes_per_cell(
    lattice: VelocitySet, dtype: str = "float64", fill: float = 1.0
) -> float:
    """B(Q) per *fluid* cell of the indirect-addressing kernels.

    Extends the dense Table II figure with the sparse path's two extra
    traffic terms (paper §IV's indirect-addressing discussion):

    * the gather table itself — one int64 neighbor index per population
      read (``8 Q`` bytes per cell, every fill);
    * a fill-fraction term: sparse *storage* is dense in fluid cells,
      but the pull gather still walks neighbor lines shared with
      non-adjacent fluid sites, so locality degrades as the fluid set
      thins.  Modelled as the unread remainder of one cache line per
      gathered population, scaled by ``(1 - fill)`` — zero at full fill
      (the gather degenerates to dense streaming order), growing toward
      a full line of waste per value as the domain empties.

    ``fill`` is the fluid fraction of the bounding box
    (:attr:`~repro.core.sparse.SparseDomain.fill_fraction`).
    """
    if not 0.0 < fill <= 1.0:
        raise ValueError(f"fill fraction must be in (0, 1], got {fill}")
    base = bytes_per_cell(lattice, dtype)
    itemsize = DTYPE_ITEMSIZE[str(dtype)]
    index_bytes = 8 * lattice.q
    line_waste = (CACHE_LINE_BYTES - itemsize) * lattice.q * (1.0 - fill)
    return float(base + index_bytes + line_waste)


#: Copy probe buffer size: well past any last-level cache, so the probe
#: times main memory, as ``Bm`` in Eq. 5 does.
COPY_PROBE_BYTES = 64 << 20

#: Timed copies per probe; the fastest one is reported.
COPY_PROBE_REPEATS = 5


def copy_bandwidth() -> float:
    """This host's main-memory bandwidth ``Bm`` in bytes/s (read + write).

    Times ``np.copyto`` between two pre-touched buffers, so no page
    fault lands in the timed copies, and reports the best of
    :data:`COPY_PROBE_REPEATS`.  Measured on every call and never
    stored: a figure from one machine says nothing about another.
    """
    src = np.ones(COPY_PROBE_BYTES // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    best = float("inf")
    for _ in range(COPY_PROBE_REPEATS):
        start = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - start)
    return 2 * src.nbytes / best


#: Core floating-point operations per lattice update in the paper's
#: implementation (§III-B): "our implementation has 178 core
#: floating-point operations [D3Q19] and ... 190 [D3Q39]".  These are
#: implementation-measured constants, independent of problem size.
FLOPS_PER_CELL = {"D3Q19": 178, "D3Q39": 190}


def flops_per_cell(lattice: VelocitySet) -> int:
    """F for the roofline: the paper's constant if known, else estimated.

    For lattices outside the paper's study, F is estimated from the
    per-velocity cost of the second-order BGK collide (~9 flops/velocity
    for moments plus ~10 for the equilibrium/relaxation) — good enough
    to position D3Q15/D3Q27 on the same roofline plots.
    """
    if lattice.name in FLOPS_PER_CELL:
        return FLOPS_PER_CELL[lattice.name]
    # Linear in Q through the two paper anchors (19, 178) and (39, 190).
    return round(0.6 * lattice.q + 166.6)


class Limiter(enum.Enum):
    """Which roofline term binds."""

    BANDWIDTH = "bandwidth"
    COMPUTE = "compute"


@dataclasses.dataclass(frozen=True)
class RooflinePoint:
    """One row of Table II for a (machine, lattice) pair.

    All throughputs in MFlup/s per node.
    """

    machine: str
    lattice: str
    bytes_per_cell: int
    flops_per_cell: int
    p_bandwidth_mflups: float
    p_peak_mflups: float

    @property
    def attainable_mflups(self) -> float:
        """The roofline minimum (Eq. 5)."""
        return min(self.p_bandwidth_mflups, self.p_peak_mflups)

    @property
    def limiter(self) -> Limiter:
        """The binding constraint (highlighted red in Table II)."""
        return (
            Limiter.BANDWIDTH
            if self.p_bandwidth_mflups <= self.p_peak_mflups
            else Limiter.COMPUTE
        )

    @property
    def hardware_efficiency_bound(self) -> float:
        """Max fraction of peak flop/s reachable: ``P(Bm) / P(Ppeak)``.

        38% for D3Q19 and 20% for D3Q39 on BG/P (§III-C).
        """
        return self.p_bandwidth_mflups / self.p_peak_mflups


def roofline(
    machine: MachineSpec, lattice: VelocitySet, dtype: str = "float64"
) -> RooflinePoint:
    """Evaluate Eq. 5 for one machine/lattice pair (a Table II row).

    ``dtype`` positions reduced-precision variants on the same roofline:
    float32 halves B, doubling the bandwidth-bound term while leaving
    the compute term untouched (the paper's figures are all float64).
    """
    b = bytes_per_cell(lattice, dtype)
    f = flops_per_cell(lattice)
    p_bw = machine.memory_bandwidth / b / 1e6
    p_peak = machine.peak_flops / f / 1e6
    return RooflinePoint(
        machine=machine.name,
        lattice=lattice.name,
        bytes_per_cell=b,
        flops_per_cell=f,
        p_bandwidth_mflups=p_bw,
        p_peak_mflups=p_peak,
    )


def torus_lower_bound(machine: MachineSpec, lattice: VelocitySet) -> float:
    """§III-C: MFlup/s if every load/store went over the torus.

    "Assuming all loads and stores occur at the torus bandwidth provides
    a lower bound for parallel performance" — 11.1 / 70 MFlup/s for
    D3Q19 and 5.4 / 34 for D3Q39 on BG/P / BG/Q.
    """
    return machine.torus_aggregate_bandwidth / lattice.bytes_per_cell / 1e6


def hardware_efficiency_bound(machine: MachineSpec, lattice: VelocitySet) -> float:
    """Convenience wrapper for the §III-C efficiency ceiling."""
    return roofline(machine, lattice).hardware_efficiency_bound
