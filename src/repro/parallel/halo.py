"""Deep-halo ghost-cell management (paper §V-A).

A slab subdomain of ``L`` planes is stored padded with ``H = depth * k``
ghost planes on each x side, where

* ``k`` is the lattice's fundamental halo thickness (max planes a
  population crosses per step: 1 for D3Q19, 3 for D3Q39), and
* ``depth`` is the *ghost-cell depth* of the paper's Figs. 10/Tables
  III-IV: exchanging every ``depth`` steps instead of every step.

After an exchange the ghost data is valid for ``depth`` streaming steps;
each step consumes ``k`` planes of validity per side.  The
:class:`HaloSlab` tracks the remaining validity; a step that would read
expired ghost data raises :class:`~repro.errors.HaloValidityError`,
here (:meth:`HaloSlab.consume_step`) and in the validity check
:class:`~repro.parallel.plan.PlannedSlabKernel` runs before it touches
any state.  Each of that kernel's window plans computes only the planes
its validity level leaves exact, so stale ghost planes are never read.

The exchange itself ships, per side, the outermost ``H`` *interior*
planes to the neighbor (the same total bytes per macro-cycle as depth-1;
``depth``-fold fewer messages — asserted against the message ledger in
tests, matching the paper's §VI-A claim).  Payloads travel through
per-slab preallocated contiguous send/receive buffers at the slab's
population dtype, so the exchange makes no per-call heap allocations
and the message ledger's byte counts reflect the real payload width
(float32 halves them, exactly as the paper's B(Q) analysis predicts).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.fields import resolve_dtype
from ..errors import HaloValidityError
from ..lattice import VelocitySet

__all__ = ["HaloSpec", "HaloSlab"]

#: Message tags for the two exchange directions.
TAG_TO_RIGHT = 11
TAG_TO_LEFT = 12


@dataclasses.dataclass(frozen=True)
class HaloSpec:
    """Ghost-layer geometry for one lattice and exchange depth.

    ``depth`` follows the paper's convention: "a ghost cell depth of 2
    would include 2k additional cells at each side" (§V-A).
    """

    k: int
    depth: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"fundamental halo thickness k must be >= 1, got {self.k}")
        if self.depth < 1:
            raise ValueError(f"ghost depth must be >= 1, got {self.depth}")

    @property
    def width(self) -> int:
        """Ghost planes per side: ``depth * k``."""
        return self.depth * self.k

    @classmethod
    def for_lattice(cls, lattice: VelocitySet, depth: int = 1) -> "HaloSpec":
        """Halo spec with ``k`` taken from the lattice."""
        return cls(k=lattice.max_displacement, depth=depth)


class HaloSlab:
    """A halo-padded slab of populations for one rank.

    Storage shape is ``(Q, 2*width + L, ny, nz)``; the interior (owned)
    region is ``[width, width + L)`` along x.  ``dtype`` follows the
    repo's population dtype policy (``None`` = float64); it sizes the
    storage and the exchange payload buffers alike.
    """

    def __init__(
        self,
        lattice: VelocitySet,
        local_nx: int,
        ny: int,
        nz: int,
        spec: HaloSpec,
        dtype: "np.dtype | str | None" = None,
    ) -> None:
        if local_nx < spec.width:
            raise HaloValidityError(
                f"subdomain of {local_nx} planes cannot source a halo of "
                f"width {spec.width}"
            )
        self.lattice = lattice
        self.local_nx = local_nx
        self.spec = spec
        self.dtype = resolve_dtype(dtype)
        shape = (lattice.q, local_nx + 2 * spec.width, ny, nz)
        self.data = np.full(shape, np.nan, dtype=self.dtype)
        # Exchange payload buffers, one contiguous (Q, width, ny, nz)
        # block per direction: packs copy live border planes in (so the
        # fabric may hold a stable reference instead of re-copying) and
        # receives land here before being unpacked into the ghosts.
        payload_shape = (lattice.q, spec.width, ny, nz)
        self._send_right = np.empty(payload_shape, dtype=self.dtype)
        self._send_left = np.empty(payload_shape, dtype=self.dtype)
        #: Preallocated receive buffers (hand these to ``SimMPI.irecv``).
        self.recv_from_left = np.empty(payload_shape, dtype=self.dtype)
        self.recv_from_right = np.empty(payload_shape, dtype=self.dtype)
        #: Remaining valid ghost planes per side (0 .. width).
        self.validity = 0

    # -- geometry ------------------------------------------------------------

    @property
    def width(self) -> int:
        return self.spec.width

    @property
    def interior(self) -> slice:
        """x slice of owned planes within the padded array."""
        return slice(self.width, self.width + self.local_nx)

    def interior_view(self) -> np.ndarray:
        """View of the owned populations, shape ``(Q, L, ny, nz)``."""
        return self.data[:, self.interior]

    # -- exchange payloads ------------------------------------------------------

    def _check_payload(self, payload: np.ndarray) -> None:
        if payload.shape != (self.lattice.q, self.width, *self.data.shape[2:]):
            raise HaloValidityError(
                f"bad halo payload shape {payload.shape}"
            )
        if payload.dtype != self.dtype:
            raise HaloValidityError(
                f"halo payload dtype {payload.dtype.name} != slab dtype "
                f"{self.dtype.name} (the dtype policy must reach both "
                "ends of an exchange)"
            )

    def pack_to_right(self) -> np.ndarray:
        """Border planes the right neighbor needs (my last ``width``
        interior planes), copied into the preallocated contiguous send
        buffer — a stable, honestly-sized payload (``nbytes`` is exactly
        what crosses the wire at this slab's dtype), not a strided view
        of live ``data``."""
        np.copyto(
            self._send_right,
            self.data[:, self.local_nx : self.width + self.local_nx],
        )
        return self._send_right

    def pack_to_left(self) -> np.ndarray:
        """Border planes the left neighbor needs (my first ``width``
        interior planes), copied into the preallocated send buffer."""
        np.copyto(self._send_left, self.data[:, self.width : 2 * self.width])
        return self._send_left

    def unpack_from_left(self, payload: np.ndarray) -> None:
        """Fill my left ghost planes with the left neighbor's border."""
        self._check_payload(payload)
        self.data[:, : self.width] = payload

    def unpack_from_right(self, payload: np.ndarray) -> None:
        """Fill my right ghost planes with the right neighbor's border."""
        self._check_payload(payload)
        self.data[:, self.width + self.local_nx :] = payload

    def mark_exchanged(self) -> None:
        """Reset validity after a completed exchange."""
        self.validity = self.spec.width

    def consume_step(self) -> None:
        """Account one streaming step: ``k`` ghost planes expire per side.

        Raises :class:`HaloValidityError` if the ghosts are already too
        thin to support another step — the caller must exchange first.
        """
        if self.validity < self.spec.k:
            raise HaloValidityError(
                f"halo exhausted: validity {self.validity} < k {self.spec.k}; "
                "exchange required before stepping"
            )
        self.validity -= self.spec.k

    @property
    def steps_until_exchange(self) -> int:
        """How many more steps can run before an exchange is mandatory."""
        return self.validity // self.spec.k
