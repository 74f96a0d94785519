"""Distribution-field container.

The paper (§IV) stores the particle distribution functions in a
two-dimensional array of shape ``(NumVelocities, z*y*x)`` "allocated in
contiguous memory" — a *collision-optimized*, velocity-major layout
(Wellein et al. 2006).  :class:`DistributionField` mirrors that layout as
a C-contiguous numpy array of shape ``(Q, nx, ny, nz)``: the velocity
index is the slowest-varying (outermost) dimension, so each velocity's
spatial block is contiguous, exactly as in the C code.

The arrays a simulation keeps through its run — its populations and the
plan's periodic gather table — live in one process-wide
:class:`WorkingSet`, so a process pays for a shape's working set once,
not once per simulation (see :meth:`DistributionField.zeros` and
:func:`shared_table`).
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import os
import sys
import threading
import weakref
from typing import Callable, Hashable, Iterable

import numpy as np

from ..errors import LatticeError
from ..lattice import VelocitySet

__all__ = [
    "DistributionField",
    "LAYOUT_AOS",
    "LAYOUT_SOA",
    "SUPPORTED_DTYPES",
    "SUPPORTED_LAYOUTS",
    "WORKING_SET_BYTES",
    "WorkingSet",
    "resolve_dtype",
    "resolve_layout",
    "shared_table",
    "compute_dtype",
]

#: Population dtypes the solver's dtype policy supports.  The paper's
#: bytes-per-cell analysis (Table II) makes B(Q) the bandwidth knob:
#: float32 halves it, roughly doubling bandwidth-bound throughput.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

#: Struct-of-arrays: velocity-major ``(Q, nx, ny, nz)`` physical order —
#: the paper's collision-optimized layout and this repo's historic one.
LAYOUT_SOA = "soa"

#: Array-of-structs: cell-major physical order (all Q populations of one
#: cell contiguous — the paper §IV's propagation-optimized alternative).
#: The *logical* shape stays ``(Q, *shape)`` everywhere; AoS only changes
#: the strides underneath.
LAYOUT_AOS = "aos"

#: Memory layouts the layout policy supports (paper §IV's SoA-vs-AoS
#: axis, selectable exactly like ``kernel``/``dtype``).
SUPPORTED_LAYOUTS = (LAYOUT_SOA, LAYOUT_AOS)


def resolve_layout(layout: "str | None") -> str:
    """Normalise a layout-policy value (``"soa"``/``"aos"``/``None``) to a
    supported layout name; ``None`` means SoA (the historic default)."""
    if layout is None:
        return LAYOUT_SOA
    resolved = str(layout).lower()
    if resolved not in SUPPORTED_LAYOUTS:
        names = ", ".join(SUPPORTED_LAYOUTS)
        raise LatticeError(
            f"unsupported field layout {layout!r} (supported: {names})"
        )
    return resolved


def resolve_dtype(dtype: "str | np.dtype | type | None") -> np.dtype:
    """Normalise a dtype-policy value (``"float32"``/``"float64"``/numpy
    dtype/``None``) to a supported numpy dtype; ``None`` means float64."""
    if dtype is None:
        return np.dtype(np.float64)
    try:
        resolved = np.dtype(dtype)
    except TypeError as exc:
        raise LatticeError(f"unrecognised dtype {dtype!r}") from exc
    if resolved not in SUPPORTED_DTYPES:
        names = ", ".join(d.name for d in SUPPORTED_DTYPES)
        raise LatticeError(
            f"unsupported population dtype {resolved.name!r} (supported: {names})"
        )
    return resolved


def compute_dtype(*operands: "np.ndarray | float") -> np.dtype:
    """The dtype a moment/equilibrium evaluation should compute in.

    float32 iff every floating array operand is float32 (Python scalars
    are weak and do not promote); anything else computes in float64 —
    the conservative end of the policy, so existing float64 paths are
    bit-identical to before the policy existed.
    """
    strong = [
        np.asarray(op).dtype
        for op in operands
        if not isinstance(op, (bool, int, float))
    ]
    floating = [d for d in strong if d.kind == "f"]
    if floating and all(d == np.float32 for d in floating):
        return np.dtype(np.float32)
    return np.dtype(np.float64)


#: Bytes the process-wide :class:`WorkingSet` may hold: recycled
#: population arrays and shared gather tables together.  glibc itself
#: keeps up to twice its 32 MiB mmap ceiling of freed heap before it
#: trims.
WORKING_SET_BYTES = 64 << 20


def _references(entries: dict, key: Hashable) -> int:
    """``sys.getrefcount`` of ``entries[key]``: the one expression that
    both the calibration and the sole-owner test count through."""
    return sys.getrefcount(entries[key])


def _reusable(array: np.ndarray, shape: tuple, dtype: np.dtype) -> bool:
    """Whether no weak reference can bring ``array`` back, and it is
    still the writeable ``(shape, dtype)`` array it was handed out as:
    its last user may have frozen it or set its shape or dtype in place.
    """
    return (
        not weakref.getweakrefcount(array)
        and array.flags.writeable
        and array.shape == shape
        and array.dtype == dtype
    )


class WorkingSet:
    """Arrays a process keeps between simulations, under one byte budget.

    Two kinds of entry share the budget; the least recently used are
    evicted first, and an array larger than the budget is never held.

    * **Recycled arrays** (:meth:`zeros`).  A request for a ``(shape,
      dtype)`` returns, zero-filled, an array this set handed out
      earlier that nothing else references any more, else a fresh
      ``np.zeros`` that the set then holds.  "Nothing else" is the test
      numpy's ``ndarray.resize(refcheck=True)`` makes: the array's
      reference count is the one an array held only by its entry reads
      (calibrated once, at first use), and no weak reference to it
      exists.  A view, a ``memoryview``, a :class:`DistributionField` or
      a result holding its simulation all count, so an array reachable
      from outside is never handed out again; nor is one its last user
      froze or gave another shape or dtype in place.  Where the
      interpreter has no ``sys.getrefcount``, nothing is reused.
    * **Shared tables** (:meth:`table`).  One array per key, built on
      the first request and handed to every caller.  They stay
      writeable (``np.take`` copies a read-only index array on every
      call), so a caller that must change one changes a copy.

    A dropped simulation's arrays therefore return to this set, not to
    the OS: the next simulation of the shape finds them mapped instead
    of first-touching fresh pages.  An evicted array lives on with its
    users.  A lock guards the entries.
    """

    def __init__(self, budget: int = WORKING_SET_BYTES) -> None:
        self.budget = int(budget)
        #: Bytes the entries hold now.
        self.nbytes = 0
        # key -> array, least recently used first.
        self._entries: collections.OrderedDict = collections.OrderedDict()
        self._serial = itertools.count()
        self._lock = threading.Lock()
        self._reuse = hasattr(sys, "getrefcount")
        self._sole: int | None = None  # calibrated by the first zeros()

    def zeros(self, shape: Iterable[int], dtype: "np.dtype | str") -> np.ndarray:
        """A zero-filled C-contiguous array nothing else references."""
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        if not self._reuse:
            return np.zeros(shape, dtype=dtype)
        kind = ("zeros", shape, dtype.str)
        array = None
        with self._lock:
            if self._sole is None:
                probe = collections.OrderedDict(probe=np.empty(0))
                self._sole = _references(probe, "probe")
            for key in [k for k in self._entries if k[:3] == kind]:
                if _references(self._entries, key) == self._sole and _reusable(
                    self._entries[key], shape, dtype
                ):
                    self._entries.move_to_end(key)
                    array = self._entries[key]
                    break
        if array is None:
            array = np.zeros(shape, dtype=dtype)
            with self._lock:
                self._hold((*kind, next(self._serial)), array)
        else:
            array.fill(0)
        return array

    def table(self, key: Hashable, build: Callable[[], np.ndarray]) -> np.ndarray:
        """The shared array for ``key``, made by ``build()`` on a miss."""
        key = ("table", key)
        with self._lock:
            table = self._entries.get(key)
            if table is not None:
                self._entries.move_to_end(key)
                return table
        table = build()
        with self._lock:
            # Another thread may have built the key meanwhile: keep one.
            held = self._entries.get(key)
            if held is not None:
                self._entries.move_to_end(key)
                return held
            self._hold(key, table)
        return table

    def _hold(self, key: Hashable, array: np.ndarray) -> None:
        """Enter ``array`` as the most recent entry and evict the least
        recently used until the budget holds (lock held)."""
        if array.nbytes > self.budget:
            return
        self._entries[key] = array
        self.nbytes += array.nbytes
        while self.nbytes > self.budget:
            _, evicted = self._entries.popitem(last=False)
            self.nbytes -= evicted.nbytes

    def _after_fork(self) -> None:
        # A fork may land while another thread holds the lock, and only
        # the forking thread lives on in the child.
        self._lock = threading.Lock()


#: The process's working set.  Every simulation of the process shares
#: it; that is its purpose.
_WORKING_SET = WorkingSet()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: _WORKING_SET._after_fork())


def shared_table(key: Hashable, build: Callable[[], np.ndarray]) -> np.ndarray:
    """The process's one array for ``key`` (see :meth:`WorkingSet.table`);
    it is shared, so a caller that must change it changes a copy."""
    return _WORKING_SET.table(key, build)


@dataclasses.dataclass
class DistributionField:
    """Populations ``f_i(x)`` on a regular grid for one velocity set.

    Attributes
    ----------
    lattice:
        The discrete velocity model.
    data:
        Float array of shape ``(Q, nx, ny, nz)``.  float32 input stays
        float32 (the dtype policy's low-bandwidth end); anything else is
        cast to float64.
    layout:
        Physical memory order (``"soa"``/``"aos"``).  The logical shape
        is ``(Q, *shape)`` either way; under AoS ``data`` is a transposed
        view over a C-contiguous cell-major buffer, so every consumer of
        the logical indexing keeps working unchanged.
    """

    lattice: VelocitySet
    data: np.ndarray
    layout: str = LAYOUT_SOA

    def __post_init__(self) -> None:
        data = np.asarray(self.data)
        dtype = data.dtype if data.dtype in SUPPORTED_DTYPES else np.dtype(np.float64)
        self.layout = resolve_layout(self.layout)
        if self.layout == LAYOUT_AOS:
            buf = np.ascontiguousarray(np.moveaxis(data, 0, -1), dtype=dtype)
            self.data = np.moveaxis(buf, -1, 0)
        else:
            self.data = np.ascontiguousarray(data, dtype=dtype)
        if self.data.ndim != 1 + self.lattice.dim:
            raise LatticeError(
                f"field must have {1 + self.lattice.dim} dims, got {self.data.ndim}"
            )
        if self.data.shape[0] != self.lattice.q:
            raise LatticeError(
                f"leading dim {self.data.shape[0]} != Q={self.lattice.q}"
            )

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros(
        cls,
        lattice: VelocitySet,
        shape: Iterable[int],
        dtype: "str | np.dtype | None" = None,
        layout: "str | None" = None,
    ) -> "DistributionField":
        """All-zero field on a grid of the given spatial ``shape``.

        Its storage (the velocity-major array, or the cell-major buffer
        under AoS) comes from the process's :class:`WorkingSet`, so it
        may be the storage of a field nothing references any more.
        """
        shape = tuple(int(s) for s in shape)
        if len(shape) != lattice.dim or any(s <= 0 for s in shape):
            raise LatticeError(f"bad spatial shape {shape} for {lattice.name}")
        dtype, layout = resolve_dtype(dtype), resolve_layout(layout)
        if layout == LAYOUT_AOS:
            data = np.moveaxis(_WORKING_SET.zeros((*shape, lattice.q), dtype), -1, 0)
        else:
            data = _WORKING_SET.zeros((lattice.q, *shape), dtype)
        return cls(lattice, data, layout)

    @classmethod
    def from_equilibrium(
        cls,
        lattice: VelocitySet,
        rho: np.ndarray,
        u: np.ndarray,
        order: int | None = None,
        dtype: "str | np.dtype | None" = None,
        layout: "str | None" = None,
    ) -> "DistributionField":
        """Field initialised to the Hermite equilibrium of ``(rho, u)``."""
        from .equilibrium import equilibrium  # local import avoids a cycle

        if dtype is not None:
            dtype = resolve_dtype(dtype)
        return cls(
            lattice,
            equilibrium(lattice, rho, u, order=order, dtype=dtype),
            resolve_layout(layout),
        )

    # -- properties -------------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        """Population dtype (float32 or float64)."""
        return self.data.dtype

    @property
    def shape(self) -> tuple[int, ...]:
        """Spatial grid shape (without the velocity axis)."""
        return self.data.shape[1:]

    @property
    def num_cells(self) -> int:
        """Number of lattice points (fluid cells) in the grid."""
        return int(np.prod(self.shape))

    @property
    def nbytes(self) -> int:
        """Bytes of population storage (one copy; the solver keeps two)."""
        return self.data.nbytes

    # -- operations --------------------------------------------------------

    def as_soa(self) -> np.ndarray:
        """The populations as a C-contiguous velocity-major array.

        A zero-copy alias for SoA fields; an exact element copy for AoS
        ones.  Observables and checkpoints read through this so their
        reductions see identical bytes in identical order under either
        layout (whole-array reductions on a strided view may legally
        accumulate in a different order).
        """
        return np.ascontiguousarray(self.data)

    def copy(self) -> "DistributionField":
        """Deep copy."""
        return DistributionField(self.lattice, self.data.copy(), self.layout)

    def astype(self, dtype: "str | np.dtype") -> "DistributionField":
        """A copy of this field cast to another supported dtype."""
        return DistributionField(
            self.lattice, self.data.astype(resolve_dtype(dtype)), self.layout
        )

    def allclose(self, other: "DistributionField", **kwargs) -> bool:
        """Elementwise comparison of two fields on the same lattice."""
        if other.lattice.name != self.lattice.name:
            raise LatticeError("cannot compare fields on different lattices")
        return bool(np.allclose(self.data, other.data, **kwargs))

    def is_finite(self) -> bool:
        """True when every population is finite (stability check)."""
        return bool(np.isfinite(self.data).all())

    def __getitem__(self, idx):
        return self.data[idx]

    def __setitem__(self, idx, value) -> None:
        self.data[idx] = value
