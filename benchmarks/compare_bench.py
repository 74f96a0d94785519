"""Gate MFLUP/s regressions between two exported bench records.

CI produces a fresh BENCH_PRn.json (see export_bench.py) and compares
it against the committed baseline of the previous PR::

    python benchmarks/compare_bench.py BENCH_PR4.json BENCH_PR5.json \
        --kernel planned+kernel_throughput --max-regression 0.30

The gate is deliberately narrow: it watches one kernel (default:
``planned+kernel_throughput``, the single-domain planned rows, present
in every record since ``BENCH_PR4.json``; a bare ``planned`` would also
match the distributed rows) per lattice, at float64, and fails only on
a drop larger than ``--max-regression`` — wide enough to absorb
host-to-host and run-to-run noise, tight enough to catch a real
hot-loop regression.  Stdlib-only, like the exporter.

Every run also checks the current record against the paper's roofline
(Eq. 5) when it carries the host's copy bandwidth ``Bm`` (the probe row
``bench_kernels_real.py`` writes in the same run): each dense row's
efficiency ``mflups * bytes_per_cell / Bm`` is printed, and a row above
1 fails, because no kernel can beat the bandwidth ceiling ``Bm / B(Q)``
— a rate above it means that row's cells, timing or ``B(Q)`` is wrong.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

LATTICES = ("D3Q19", "D3Q39")

#: Extra-info key of the copy-bandwidth probe row: ``Bm`` in bytes/s.
BANDWIDTH_KEY = "copy_bandwidth"


def kernel_mflups(record: dict, kernel: str) -> dict[str, float]:
    """Per-lattice float64 MFLUP/s of ``kernel`` in one bench record.

    Matches case-insensitively by benchmark-name substring (or the
    ``kernel`` extra-info field) so the gate survives suite
    reparameterisations: PR3 named entries ``[RollKernel-D3Q19]``, PR4
    names them ``[roll-float64-D3Q19]``.  ``kernel`` may be several
    ``+``-joined substrings that must all match — the PR5 distributed
    gate selects ``planned+distributed`` to separate the slab rows from
    the single-domain planned rows.  float32 entries are excluded.

    Sparse rows (schema 5: a ``fill`` column, or ``sparse`` in the
    kernel name) only participate when the gate *asks* for a sparse
    kernel — otherwise the dense ``planned`` gate would absorb
    ``sparse-planned`` rows by substring.  When they do participate,
    each fill is its own comparison key (``D3Q19@fill0.25``): fills
    have different B(Q), so their MFLUP/s are not comparable.
    """
    tokens = [t for t in kernel.lower().split("+") if t]
    want_sparse = any("sparse" in token for token in tokens)
    found: dict[str, float] = {}
    for name, entry in record.get("kernels", {}).items():
        lowered = name.lower()
        is_sparse = (
            entry.get("fill") is not None
            or "sparse" in str(entry.get("kernel", "")).lower()
            or "sparse" in lowered
        )
        if is_sparse != want_sparse:
            continue
        if (
            not all(token in lowered for token in tokens)
            and entry.get("kernel") != kernel
        ):
            continue
        if "float32" in lowered or entry.get("dtype") == "float32":
            continue
        value = entry.get("mflups")
        if value is None:
            continue
        lattice = str(entry.get("lattice") or "").upper() or None
        if lattice is None:
            for cand in LATTICES:
                if cand.lower() in lowered:
                    lattice = cand
                    break
        if lattice is None:
            continue
        key = lattice
        if entry.get("fill") is not None:
            key = f"{lattice}@fill{float(entry['fill']):g}"
        found[key] = float(value)
    return found


def compare(
    baseline: dict, current: dict, kernel: str, max_regression: float
) -> tuple[bool, list[str]]:
    """(ok, report lines) for one baseline/current record pair."""
    base = kernel_mflups(baseline, kernel)
    new = kernel_mflups(current, kernel)
    lines: list[str] = []
    ok = True
    shared = sorted(set(base) & set(new))
    if not shared:
        return False, [
            f"no comparable {kernel} float64 entries "
            f"(baseline has {sorted(base)}, current has {sorted(new)})"
        ]
    for lattice in shared:
        ratio = new[lattice] / base[lattice]
        verdict = "ok"
        if ratio < 1.0 - max_regression:
            verdict = f"REGRESSION beyond {max_regression:.0%}"
            ok = False
        lines.append(
            f"{kernel} {lattice}: {base[lattice]:.2f} -> {new[lattice]:.2f} "
            f"MFLUP/s ({ratio:.2f}x) {verdict}"
        )
    return ok, lines


def roofline_check(record: dict) -> tuple[bool, list[str]]:
    """(ok, report lines): the Eq. 5 efficiency of every dense row.

    A dense row carries ``bytes_per_cell`` and no ``fill``; its
    efficiency is ``mflups * 1e6 * bytes_per_cell / Bm``, with ``Bm``
    from the record's probe row.  Any row above 1 fails.  A record
    without a probe row (the committed baselines) is not checked.
    """
    kernels = record.get("kernels", {})
    probes = [e[BANDWIDTH_KEY] for e in kernels.values() if BANDWIDTH_KEY in e]
    if not probes:
        return True, []
    bandwidth = float(probes[0])
    if not bandwidth > 0:
        return False, [f"copy bandwidth {bandwidth!r} is not a positive rate"]
    ok = True
    lines = [f"Bm {bandwidth / 1e9:.2f} GB/s (copy probe)"]
    for name, entry in sorted(kernels.items()):
        if (
            "mflups" not in entry
            or entry.get("bytes_per_cell") is None
            or entry.get("fill") is not None
        ):
            continue
        efficiency = (
            float(entry["mflups"]) * 1e6 * float(entry["bytes_per_cell"]) / bandwidth
        )
        verdict = "ok"
        if efficiency > 1.0:
            verdict = "ABOVE THE Eq. 5 CEILING"
            ok = False
        lines.append(f"Eq. 5 efficiency {name}: {efficiency:.3f} {verdict}")
    return ok, lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="committed reference record")
    parser.add_argument("current", type=Path, help="freshly measured record")
    parser.add_argument(
        "--kernel",
        default="planned+kernel_throughput",
        help="+-joined name substrings to gate on (default: %(default)s)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        metavar="FRACTION",
        help="maximum tolerated MFLUP/s drop (default: 0.30)",
    )
    args = parser.parse_args(argv)
    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())
    ok, lines = compare(baseline, current, args.kernel, args.max_regression)
    roofline_ok, roofline_lines = roofline_check(current)
    for line in lines + roofline_lines:
        print(line)
    if not (ok and roofline_ok):
        print("bench regression gate FAILED", file=sys.stderr)
        return 1
    print("bench regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
