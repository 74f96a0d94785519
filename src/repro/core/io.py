"""Field output and checkpointing.

Production LBM codes ship their state out for visualisation and
restart; this module provides the minimum a downstream user needs:

* :func:`write_vtk` — legacy-ASCII VTK ``STRUCTURED_POINTS`` files of
  the macroscopic fields, loadable by ParaView/VisIt;
* :func:`save_checkpoint` / :func:`load_checkpoint` — lossless restart
  files (numpy ``.npz``) carrying populations + run metadata + the
  observable series recorded so far, with a round-trip that is
  bit-exact (unit-tested);
* :func:`canonical_json` / :func:`serialize_result_data` — stable,
  order-independent serialization of scalar run outcomes (the basis of
  the scenario sweep result cache, whose keys and payloads must be
  bit-identical across processes and runs);
* :func:`atomic_write_text` — the one way shared state files are
  replaced: readers see the old file or the new one, never a torn one;
* :func:`create_once` — the one way shared state files are created
  exactly once: the first writer wins, later writers change nothing;
* :class:`ClaimRecord` and the claim-file primitives — atomic,
  filesystem-level exclusive claims on shared resources (the lease
  files that let distributed sweep workers divide work without a
  coordinator);
* :class:`TimeSeriesLogger` — CSV logging of scalar observables during
  a run (plugs into ``Simulation.run(monitor=...)``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io as _io
import json
import os
import socket
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..errors import LatticeError
from ..lattice import get_lattice
from .simulation import Simulation

__all__ = [
    "write_vtk",
    "CheckpointData",
    "save_checkpoint",
    "load_checkpoint",
    "load_checkpoint_data",
    "retired_kernel_stamp",
    "jsonable",
    "canonical_json",
    "serialize_result_data",
    "deserialize_result_data",
    "RESPONSE_SCHEMA_VERSION",
    "response_envelope",
    "render_response",
    "atomic_write_text",
    "create_once",
    "ClaimRecord",
    "write_claim",
    "read_claim",
    "refresh_claim",
    "release_claim",
    "break_claim",
    "claim_lock",
    "TimeSeriesLogger",
]


def jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into plain JSON-representable types.

    Numpy scalars/arrays become Python scalars/lists, tuples become
    lists, mapping keys become strings.  Floats survive bit-exactly:
    JSON text uses the shortest round-tripping ``repr``.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        return jsonable(value.tolist())
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [jsonable(v) for v in items]
    raise TypeError(f"cannot serialise {type(value).__name__}: {value!r}")


def canonical_json(value: Any) -> str:
    """Serialise to a canonical JSON string: sorted keys, no whitespace.

    Two structurally equal values produce byte-identical text no matter
    the insertion order of their mappings or the process that built
    them — the property content-addressed caches need.
    """
    return json.dumps(jsonable(value), sort_keys=True, separators=(",", ":"))


def serialize_result_data(
    metrics: Mapping[str, Any],
    series: Mapping[str, Sequence[float]],
    checks: Mapping[str, bool],
) -> str:
    """Canonical text form of one run's scalar outcomes.

    The triple is what a comparison table needs from a finished case
    run (see :class:`repro.scenarios.runner.CaseResult`); serialising
    through canonical JSON keeps the round-trip bit-exact for floats.
    """
    return canonical_json(
        {"metrics": metrics, "series": series, "checks": checks}
    )


def deserialize_result_data(
    text: str,
) -> "tuple[dict[str, Any], dict[str, list[float]], dict[str, bool]]":
    """Inverse of :func:`serialize_result_data`."""
    data = json.loads(text)
    return dict(data["metrics"]), dict(data["series"]), dict(data["checks"])


# -- response envelopes -----------------------------------------------------
#
# Every machine-readable answer the repro stack gives — CLI ``--json``
# output and ``repro serve`` HTTP bodies alike — goes through one
# serializer so that the same query yields byte-identical text no
# matter which surface asked.  The envelope is versioned so consumers
# can detect shape changes without sniffing fields.

RESPONSE_SCHEMA_VERSION = 1


def response_envelope(kind: str, data: Any) -> dict[str, Any]:
    """Wrap ``data`` in the versioned response envelope.

    ``kind`` names the payload shape (``"case"``, ``"sweep"``,
    ``"fleet"``, ``"job"``, ``"worker-report"``, ``"error"``, ...);
    consumers dispatch on it rather than guessing from keys.
    """
    return {
        "schema": RESPONSE_SCHEMA_VERSION,
        "kind": str(kind),
        "data": jsonable(data),
    }


def render_response(kind: str, data: Any) -> str:
    """Canonical JSON text of one response envelope (no trailing newline).

    Like :func:`canonical_json` but strict: NaN/Infinity are rejected
    (payload builders must map them to ``None``), because the output
    must be parseable by any JSON consumer, not just Python's.
    """
    return json.dumps(
        response_envelope(kind, data),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def atomic_write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` through a sibling temp file + rename.

    Readers see the old content or the new, never a half-written file
    (a crashed writer must not leave state a resume would trust).  The
    temp name is unique per write: concurrent writers of one file must
    not rename each other's temp file away or install a truncated one.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex[:8]}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# -- claim records ----------------------------------------------------------
#
# A claim file is a filesystem-level mutual-exclusion token: whoever
# creates it (atomically, O_EXCL) owns the named resource until the
# file is removed or the claim expires.  Distributed sweep workers use
# them as per-variant lease files over a shared cache directory; the
# primitives below are deliberately generic (any "resource" string,
# any directory) and make no assumption about clocks beyond "loosely
# synchronised within a TTL".
#
# Claims are advisory: the sweep cache commits are content-addressed
# and idempotent, so a lost race costs a duplicated run, never a wrong
# result.


@dataclasses.dataclass
class ClaimRecord:
    """One owner's exclusive claim on a shared resource.

    Attributes
    ----------
    owner:
        Opaque owner token (workers use ``host:pid:nonce``).
    resource:
        What is claimed (sweep workers use the variant fingerprint).
    host / pid:
        Where the owner runs — lets same-host observers detect a dead
        owner immediately instead of waiting for the TTL.
    acquired_at / expires_at:
        POSIX timestamps; a claim past ``expires_at`` is stale and may
        be broken by anyone.
    """

    owner: str
    resource: str
    host: str
    pid: int
    acquired_at: float
    expires_at: float

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


def create_once(path: str | Path, text: str) -> bool:
    """Create ``path`` holding ``text``; ``False`` if it already exists.

    The text is written to a private temp file and hard-linked into
    place; ``link`` fails when the target exists, so of any number of
    concurrent callers exactly one succeeds — including across NFS-style
    shared mounts — and no reader ever sees the file before its content
    is complete.  A missing parent directory is created on demand.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex[:8]}.tmp")
    try:
        tmp.write_text(text)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text)
    try:
        os.link(tmp, path)
    except FileExistsError:
        return False
    finally:
        tmp.unlink()
    return True


def write_claim(path: str | Path, record: ClaimRecord) -> bool:
    """Atomically create the claim file; ``False`` if already claimed.

    :func:`create_once` of the record: of any number of concurrent
    callers exactly one succeeds, and no reader ever sees a claim file
    before its record is complete (an empty one reads as corrupt, and
    :func:`claim_lock` would break it while its owner still holds it).
    """
    return create_once(path, record.to_json())


def read_claim(path: str | Path) -> ClaimRecord | None:
    """The claim currently on file, or ``None`` if absent/corrupt."""
    try:
        raw = json.loads(Path(path).read_text())
        return ClaimRecord(
            owner=str(raw["owner"]),
            resource=str(raw["resource"]),
            host=str(raw["host"]),
            pid=int(raw["pid"]),
            acquired_at=float(raw["acquired_at"]),
            expires_at=float(raw["expires_at"]),
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None


def refresh_claim(path: str | Path, record: ClaimRecord) -> None:
    """Atomically rewrite a claim (heartbeat / extended expiry).

    Only the owner should refresh; readers never see a torn record.
    """
    atomic_write_text(path, record.to_json())


def release_claim(path: str | Path, owner: str) -> bool:
    """Remove the claim if ``owner`` still holds it; ``True`` if removed."""
    path = Path(path)
    record = read_claim(path)
    if record is None or record.owner != owner:
        return False
    try:
        path.unlink()
    except OSError:
        return False
    return True


def break_claim(path: str | Path, expected: ClaimRecord | None) -> bool:
    """Remove a stale claim, but only the one judged; ``True`` iff *we*
    removed it.

    ``expected`` is the record the caller read and judged stale
    (``None``: a file that did not parse).  The claim is renamed to a
    unique name; if the moved file is not the judged claim — a peer
    broke that one and re-took the resource in between — it is linked
    back and nothing is broken.  Of several observers racing to break
    the same stale claim exactly one wins, and the winner may then
    re-acquire with :func:`write_claim` without a window where two
    fresh claims exist.

    One race remains, inside the rename/link-back window: a third
    contender that finds the path empty there creates its own claim,
    the link-back fails, and the peer's re-taken claim is lost, so two
    holders run.  Leases tolerate that (commits are idempotent); a
    :func:`claim_lock` section may lose an update.
    """
    path = Path(path)
    trash = path.with_name(f"{path.name}.broken-{uuid.uuid4().hex[:8]}")
    try:
        os.rename(path, trash)
    except OSError:
        return False
    try:
        if read_claim(trash) != expected:
            with contextlib.suppress(OSError):
                os.link(trash, path)
            return False
        return True
    finally:
        with contextlib.suppress(OSError):
            trash.unlink()


def _claim_owner_dead(record: ClaimRecord) -> bool:
    """Same-host claims from a dead pid are stale immediately."""
    if record.host != socket.gethostname():
        return False
    try:
        os.kill(record.pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        return False
    return False


@contextlib.contextmanager
def claim_lock(
    path: str | Path,
    *,
    ttl: float = 30.0,
    poll: float = 0.02,
    timeout: float = 30.0,
):
    """Hold a short-lived exclusive claim file around a critical section.

    Built on the same :func:`write_claim` / :func:`break_claim`
    primitives as worker leases, so it is safe across processes and
    hosts sharing the directory.  A holder that crashed (same-host dead
    pid) or let its TTL lapse is broken and the lock re-acquired, as is
    an unreadable claim file once it is ``ttl`` old; a live contender
    past ``timeout`` raises :class:`TimeoutError` rather than spinning
    forever.
    """
    path = Path(path)
    host = socket.gethostname()
    pid = os.getpid()
    owner = f"{host}:{pid}:{uuid.uuid4().hex[:8]}"
    deadline = time.monotonic() + timeout
    while True:
        now = time.time()
        record = ClaimRecord(
            owner=owner,
            resource=path.name,
            host=host,
            pid=pid,
            acquired_at=now,
            expires_at=now + ttl,
        )
        if write_claim(path, record):
            break
        held = read_claim(path)
        if held is None:
            # Gone: its holder released after our create failed, so try
            # again at once.  Breaking here could remove a fresh claim
            # a peer made since.  A file that exists but will not parse
            # is broken only once it is ``ttl`` old.
            try:
                age = now - path.stat().st_mtime
            except FileNotFoundError:
                continue
            if age >= ttl:
                break_claim(path, None)
                continue
        elif now >= held.expires_at or _claim_owner_dead(held):
            break_claim(path, held)
            continue
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"could not acquire claim lock {path} within {timeout:g}s "
                f"(held by {held.owner if held else 'an unreadable claim'})"
            )
        time.sleep(poll)
    try:
        yield
    finally:
        release_claim(path, owner)


def write_vtk(
    path: str | Path,
    simulation: Simulation,
    fields: Sequence[str] = ("density", "velocity"),
) -> Path:
    """Write macroscopic fields as a legacy-ASCII VTK file.

    Parameters
    ----------
    path:
        Output filename (conventionally ``*.vtk``).
    simulation:
        The simulation whose current state to dump.
    fields:
        Any of ``"density"``, ``"velocity"``, ``"speed"``.
    """
    valid = {"density", "velocity", "speed"}
    unknown = set(fields) - valid
    if unknown:
        raise ValueError(f"unknown fields {sorted(unknown)}; valid: {sorted(valid)}")
    rho, u = simulation.macroscopic()
    nx, ny, nz = simulation.shape
    buf = _io.StringIO()
    buf.write("# vtk DataFile Version 3.0\n")
    buf.write(f"repro LBM output, step {simulation.time_step}\n")
    buf.write("ASCII\nDATASET STRUCTURED_POINTS\n")
    buf.write(f"DIMENSIONS {nx} {ny} {nz}\n")
    buf.write("ORIGIN 0 0 0\nSPACING 1 1 1\n")
    buf.write(f"POINT_DATA {nx * ny * nz}\n")

    def scalars(name: str, data: np.ndarray) -> None:
        buf.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        # VTK expects x fastest; our arrays are (x, y, z) C-order -> z fastest
        np.savetxt(buf, data.transpose(2, 1, 0).ravel()[:, None], fmt="%.10e")

    if "density" in fields:
        scalars("density", rho)
    if "speed" in fields:
        scalars("speed", np.sqrt(np.einsum("a...,a...->...", u, u)))
    if "velocity" in fields:
        buf.write("VECTORS velocity double\n")
        flat = u.transpose(0, 3, 2, 1).reshape(3, -1).T
        np.savetxt(buf, flat, fmt="%.10e")

    path = Path(path)
    path.write_text(buf.getvalue())
    return path


@dataclasses.dataclass
class CheckpointData:
    """Raw contents of a restart file.

    Callers that know how the simulation was configured (e.g. the
    scenario :class:`~repro.scenarios.runner.CaseRunner`) rebuild the
    full driver — collision operator, boundaries, forcing — from their
    own spec and restore only ``f`` / ``time_step`` from here, so the
    restart is bit-exact under any collision model.
    """

    f: np.ndarray
    lattice: str
    tau: float
    order: int
    time_step: int
    extra: dict[str, Any] = dataclasses.field(default_factory=dict)
    series: dict[str, list[float]] = dataclasses.field(default_factory=dict)
    dtype: str = "float64"
    #: Kernel name the writing simulation stepped with (``None``: no
    #: stamp, so the retired legacy pair wrote it).  Restores must match
    #: it: kernels agree only to rounding, so a cross-kernel resume is
    #: not bit-exact (see :func:`retired_kernel_stamp`).
    kernel: str | None = None


def retired_kernel_stamp(path: str | Path, stamp: str | None) -> str | None:
    """The refusal for a file of the retired legacy stream/collide pair
    (no kernel stamp, or ``"roll"``), else ``None``.

    Its BGK collide differs from the planned one by rounding, so no
    kernel continues its BGK files bit-exactly; its custom-collision
    files resume under ``planned`` (callers that know the collision
    decide that).
    """
    if stamp not in (None, "roll"):
        return None
    return (
        f"checkpoint {path} was written by the legacy stream/collide pair "
        f"(kernel stamp {stamp!r}), and the legacy arithmetic is retired: "
        "no kernel continues it bit-exactly (see 'Upgrading past roll' in "
        "the README)"
    )


def save_checkpoint(
    path: str | Path,
    simulation: Simulation,
    extra: Mapping[str, Any] | None = None,
    series: Mapping[str, Sequence[float]] | None = None,
) -> Path:
    """Serialise a simulation's full state for exact restart.

    Parameters
    ----------
    extra:
        Optional JSON-serialisable metadata stored alongside the state
        (e.g. the scenario case name that produced the checkpoint).
    series:
        Optional observable time series recorded up to this point; a
        resumed run restores it so the full history survives restarts
        instead of restarting from the checkpoint step.
    """
    path = Path(path)
    tau = getattr(simulation.collision, "tau", None)
    if tau is None:
        tau = getattr(simulation.collision, "tau_shear", None)
    if tau is None:
        raise LatticeError(
            "checkpointing requires a collision exposing tau/tau_shear"
        )
    np.savez_compressed(
        path,
        f=simulation.f,
        lattice=simulation.lattice.name,
        tau=float(tau),
        order=int(simulation.collision.order),
        time_step=int(simulation.time_step),
        extra_json=json.dumps(dict(extra or {})),
        series_json=canonical_json(dict(series or {})),
        dtype=str(simulation.f.dtype),
        kernel=simulation.kernel.name,
    )
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_checkpoint_data(path: str | Path) -> CheckpointData:
    """Read a checkpoint back as raw state without building a driver."""
    with np.load(Path(path), allow_pickle=False) as data:
        extra_json = str(data["extra_json"]) if "extra_json" in data else "{}"
        series_json = str(data["series_json"]) if "series_json" in data else "{}"
        f = np.array(data["f"])
        return CheckpointData(
            f=f,
            lattice=str(data["lattice"]),
            tau=float(data["tau"]),
            order=int(data["order"]),
            time_step=int(data["time_step"]),
            extra=json.loads(extra_json),
            series=json.loads(series_json),
            dtype=str(data["dtype"]) if "dtype" in data else str(f.dtype),
            kernel=(str(data["kernel"]) or None) if "kernel" in data else None,
        )


def load_checkpoint(path: str | Path) -> Simulation:
    """Rebuild a :class:`Simulation` from a checkpoint (BGK collision).

    The populations are restored bit-exactly; boundary conditions and
    forcing are *not* serialised (reattach them after loading, or use
    :class:`repro.scenarios.CaseRunner` which rebuilds them from the
    case spec).  A file of the retired legacy pair is refused (see
    :func:`retired_kernel_stamp`).
    """
    data = load_checkpoint_data(path)
    refusal = retired_kernel_stamp(path, data.kernel)
    if refusal is not None:
        raise LatticeError(refusal)
    sim = Simulation(
        get_lattice(data.lattice),
        data.f.shape[1:],
        tau=data.tau,
        order=data.order,
        dtype=data.dtype,
        kernel=data.kernel,
    )
    sim.field.data[...] = data.f
    sim.time_step = data.time_step
    return sim


@dataclasses.dataclass
class TimeSeriesLogger:
    """CSV logger of scalar observables, usable as a run monitor.

    >>> logger = TimeSeriesLogger({"mass": lambda s: s.f.sum()})
    >>> sim.run(100, monitor=logger, monitor_every=10)
    >>> logger.write("series.csv")
    """

    observables: dict[str, Callable[[Simulation], float]]

    def __post_init__(self) -> None:
        self.rows: list[list[float]] = []

    def __call__(self, simulation: Simulation) -> None:
        self.rows.append(
            [float(simulation.time_step)]
            + [float(fn(simulation)) for fn in self.observables.values()]
        )

    @property
    def header(self) -> list[str]:
        return ["step"] + list(self.observables)

    def as_array(self) -> np.ndarray:
        """All logged rows, shape ``(n_records, 1 + n_observables)``."""
        return np.array(self.rows) if self.rows else np.empty((0, len(self.header)))

    def write(self, path: str | Path) -> Path:
        """Write the series as CSV."""
        path = Path(path)
        lines = [",".join(self.header)]
        lines += [",".join(f"{v:.12g}" for v in row) for row in self.rows]
        path.write_text("\n".join(lines) + "\n")
        return path
