"""Torus interconnect model.

Blue Gene machines use n-dimensional torus networks (3-D on BG/P, 5-D on
BG/Q) for point-to-point communication.  :class:`TorusTopology` answers
the questions the performance analysis needs from the torus coordinates
alone: neighbor sets, hop distances, dimension-ordered routes, bisection
bandwidth, and transfer-time estimates for halo messages.

For the paper's 1-D domain decomposition, consecutive MPI ranks map to
neighboring torus coordinates (the default ABCDET-style mapping), so
halo exchanges are single-hop — the assumption behind the §III-C torus
bound, which :meth:`TorusTopology.halo_transfer_time` implements.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .spec import MachineSpec

__all__ = ["TorusTopology", "torus_shape_for"]


def torus_shape_for(num_nodes: int, dims: int) -> tuple[int, ...]:
    """A near-cubic ``dims``-dimensional torus shape with >= num_nodes nodes.

    Factorises greedily: each dimension gets the smallest extent >= the
    ``dims``-th root of the remaining node count.  Used to lay out the
    paper's 128-node / 2048-processor partitions.
    """
    if num_nodes < 1 or dims < 1:
        raise ValueError("num_nodes and dims must be positive")
    shape = []
    remaining = num_nodes
    for d in range(dims, 0, -1):
        extent = max(1, round(remaining ** (1.0 / d)))
        while extent * (extent ** (d - 1)) < remaining and extent**d < remaining:
            extent += 1
        shape.append(extent)
        remaining = max(1, -(-remaining // extent))
    return tuple(shape)


@dataclasses.dataclass
class TorusTopology:
    """An n-dimensional periodic mesh of compute nodes.

    Parameters
    ----------
    shape:
        Nodes per torus dimension, e.g. ``(4, 4, 8)``.
    machine:
        The node/link specification.
    """

    shape: tuple[int, ...]
    machine: MachineSpec

    def __post_init__(self) -> None:
        self.shape = tuple(int(s) for s in self.shape)
        if any(s < 1 for s in self.shape):
            raise ValueError(f"bad torus shape {self.shape}")

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    def coordinates(self) -> list[tuple[int, ...]]:
        """All node coordinates in lexicographic order."""
        return list(itertools.product(*(range(s) for s in self.shape)))

    def rank_to_coord(self, rank: int) -> tuple[int, ...]:
        """Default (lexicographic) rank → torus coordinate mapping."""
        if not 0 <= rank < self.num_nodes:
            raise ValueError(f"rank {rank} out of range")
        coord = []
        for extent in reversed(self.shape):
            coord.append(rank % extent)
            rank //= extent
        return tuple(reversed(coord))

    def hop_distance(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        """Minimal hop count between two coordinates (per-dim wrap)."""
        hops = 0
        for x, y, extent in zip(a, b, self.shape):
            d = abs(x - y)
            hops += min(d, extent - d)
        return hops

    def neighbors(self, coord: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Directly linked coordinates: one step either way along each
        axis, with wrap, axis by axis (+1 before -1), each listed once.
        An axis of extent 1 links a node to itself, which is no neighbor;
        one of extent 2 reaches the same node both ways."""
        coord = tuple(int(x) for x in coord)
        found: list[tuple[int, ...]] = []
        for axis, extent in enumerate(self.shape):
            for step in (1, -1):
                other = list(coord)
                other[axis] = (coord[axis] + step) % extent
                other = tuple(other)
                if other != coord and other not in found:
                    found.append(other)
        return found

    def ranks_are_adjacent(self, rank_a: int, rank_b: int) -> bool:
        """Whether two ranks are one hop apart under the default mapping."""
        return (
            self.hop_distance(self.rank_to_coord(rank_a), self.rank_to_coord(rank_b))
            == 1
        )

    @property
    def bisection_bandwidth(self) -> float:
        """Bytes/s across the smallest balanced cut (hardware numbers).

        For a torus, cutting the longest dimension severs
        ``2 * (num_nodes / longest_extent)`` unidirectional link pairs.
        """
        longest = max(self.shape)
        links_cut = 2 * (self.num_nodes // longest)
        return links_cut * self.machine.torus_link_bandwidth_gbs * 1e9

    # -- timing ------------------------------------------------------------------

    def link_transfer_time(
        self, nbytes: int, software: bool = True, hops: int = 1
    ) -> float:
        """Seconds to move ``nbytes`` over ``hops`` store-and-forward links."""
        bw = (
            self.machine.torus_link_bandwidth_software_gbs
            if software
            else self.machine.torus_link_bandwidth_gbs
        ) * 1e9
        return hops * nbytes / bw

    def halo_transfer_time(self, nbytes_per_side: int, software: bool = True) -> float:
        """Seconds for one rank's two-sided halo exchange.

        Both directions of a bidirectional link pair move concurrently,
        so the exchange time is one side's payload over one link.
        """
        return self.link_transfer_time(nbytes_per_side, software=software, hops=1)
