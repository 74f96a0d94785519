"""Build and load the compiled planned collide (``collide.c``).

:class:`~repro.core.plan.KernelPlan` asks :func:`load` for its dtype
when it is built.  The first request for a dtype in a process compiles
``collide.c`` for that dtype alone with the C compiler on ``PATH``
(:data:`CFLAGS`, never ``-ffast-math``) into a private temporary
directory, loads the library with :mod:`ctypes` and deletes the
directory; later requests reuse the loaded function.  Nothing is stored
between processes.

One C function serves both planned collides: given the plan's gather
table it streams and collides in one pass
(:meth:`KernelPlan.advance <repro.core.plan.KernelPlan.advance>`),
without one it collides populations already streamed
(:meth:`KernelPlan.collide_into <repro.core.plan.KernelPlan.collide_into>`).
A second streams alone
(:meth:`KernelPlan.stream_into <repro.core.plan.KernelPlan.stream_into>`).
Both read int32 or int64 gather tables.
The C loop performs the op sequence written down in ``collide.c``; the
plan's numpy reference performs the same sequence, so both write the
same bytes.  When there is no compiler or the build fails, :func:`load`
returns ``None`` and the plan runs the reference: one WARNING per
process says so, and one telemetry event (``kernel.compile``) records
each build's outcome and seconds.

Importing this module builds nothing and imports no :mod:`ctypes` of
its own; ``import repro`` stays free of compiler work.
"""

from __future__ import annotations

import shutil
import subprocess
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from ..telemetry.recorder import get_telemetry

__all__ = ["ALIGNMENT", "CFLAGS", "CompiledCollide", "Loader", "SOURCE", "load"]


#: The C source of the loop.
SOURCE = Path(__file__).with_name("collide.c")

#: Byte boundary the loop's block scratch starts on: one cache line.  The
#: build passes it to ``collide.c`` (``REPRO_ALIGN``), whose block loops
#: assume it, and :class:`~repro.core.plan.KernelPlan` allocates every
#: array it hands the loop on it (see ``collide.c``'s alignment contract).
ALIGNMENT = 64

#: Compiler flags.  ``-O2 -ftree-vectorize`` builds in about 60% of the
#: time ``-O3`` takes and steps within 5% of it (gcc 12); plain ``-O2``
#: vectorises little, and the loop then runs ~2.5x slower.
#: ``-ffp-contract=off`` forbids fused multiply-adds, the one
#: transformation the optimiser would otherwise make to the arithmetic.
CFLAGS = (
    "-O2",
    "-ftree-vectorize",
    "-march=native",
    "-ffp-contract=off",
    "-shared",
    "-fPIC",
)

#: C element type per plan dtype.
_C_REAL = {"float64": "double", "float32": "float"}


class CompiledCollide:
    """``repro_collide`` of one loaded library, for one dtype.

    :attr:`fn` takes raw data addresses; its callers
    (:meth:`KernelPlan.advance <repro.core.plan.KernelPlan.advance>` and
    :meth:`KernelPlan.collide_into <repro.core.plan.KernelPlan.collide_into>`)
    validate shape, dtype, contiguity and overlap first and keep every
    array alive for the duration of the call.
    """

    def __init__(self, library) -> None:
        import ctypes

        self._library = library  # keeps the mapping alive
        ptr, c_int, c_long = ctypes.c_void_p, ctypes.c_int, ctypes.c_long
        library.repro_collide_block.restype = c_int
        library.repro_collide_block.argtypes = ()
        library.repro_collide_scratch.restype = c_long
        library.repro_collide_scratch.argtypes = (c_int, c_int)
        #: Cells per block of the loop.
        self.block = int(library.repro_collide_block())
        self._scratch_size = library.repro_collide_scratch
        #: ``repro_collide(src, gather, index_size, out, n, q, d, order, c,
        #: w, k, half_force, force_m, force_b, scratch)``; see collide.c.
        self.fn = library.repro_collide
        self.fn.restype = None
        sizes = (c_long, c_int, c_int, c_int)  # n, q, d, order
        self.fn.argtypes = (ptr, ptr, c_int, ptr, *sizes) + (ptr,) * 7
        #: ``repro_gather(src, gather, index_size, out, count)``: the
        #: stand-alone stream through a gather table.
        self.gather = library.repro_gather
        self.gather.restype = None
        self.gather.argtypes = (ptr, ptr, c_int, ptr, c_long)

    def scratch_size(self, q: int, d: int) -> int:
        """Elements of scratch the loop needs for ``q`` velocities in ``d``-D."""
        return int(self._scratch_size(q, d))


class Loader:
    """Builds ``collide.c`` at most once per dtype and holds the result.

    ``compiler`` is looked up on ``PATH`` when the first dtype is
    requested.  A lock serialises builds, so concurrent first plans of
    one dtype compile once.
    """

    def __init__(self, compiler: str = "cc") -> None:
        self.compiler = compiler
        self._lock = threading.Lock()
        self._built: dict[str, CompiledCollide | None] = {}
        self._warned = False

    def load(self, dtype: "np.dtype | str") -> CompiledCollide | None:
        """The compiled collide for ``dtype``, or ``None`` without one."""
        dtype = np.dtype(dtype)
        with self._lock:
            if dtype.name not in self._built:
                self._built[dtype.name] = self._build(dtype)
            return self._built[dtype.name]

    def _build(self, dtype: np.dtype) -> CompiledCollide | None:
        t0 = time.perf_counter()
        compiler = shutil.which(self.compiler)
        if compiler is None:
            loaded, reason = None, f"no {self.compiler!r} on PATH"
        else:
            loaded, reason = self._compile(compiler, dtype)
        seconds = time.perf_counter() - t0
        get_telemetry().event(
            "kernel.compile",
            dtype=dtype.name,
            outcome="compiled" if loaded is not None else "reference",
            seconds=seconds,
            reason=reason,
        )
        if loaded is None and not self._warned:
            self._warned = True
            import logging  # loaded by the first warning, not by every importer

            logging.getLogger(__name__).warning(
                "compiled collide unavailable (%s): planned kernels run the "
                "numpy reference, byte-identical but slower",
                reason,
            )
        return loaded

    def _compile(self, compiler: str, dtype: np.dtype) -> tuple:
        """(the loaded collide or None, the failure reason or None)."""
        import ctypes

        with tempfile.TemporaryDirectory(prefix="repro-collide-") as tmp:
            target = Path(tmp) / f"collide_{dtype.name}.so"
            cmd = [
                compiler,
                *CFLAGS,
                f"-DREPRO_REAL={_C_REAL[dtype.name]}",
                f"-DREPRO_ALIGN={ALIGNMENT}",
                "-o",
                str(target),
                str(SOURCE),
            ]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            except (OSError, subprocess.TimeoutExpired) as exc:
                return None, f"{compiler} failed to run: {exc}"
            if proc.returncode != 0:
                detail = proc.stderr.strip().splitlines()[-1:] or [""]
                return None, f"{compiler} exited {proc.returncode}: {detail[0]}"
            try:
                # The mapping outlives the file: unlinking it with the
                # directory leaves the loaded library intact.
                library = ctypes.CDLL(str(target))
                return CompiledCollide(library), None
            except (OSError, AttributeError) as exc:
                return None, f"cannot load the built library: {exc}"


_PROCESS_LOADER = Loader()


def load(dtype: "np.dtype | str") -> CompiledCollide | None:
    """The process's compiled collide for ``dtype`` (built on first use)."""
    return _PROCESS_LOADER.load(dtype)
