"""Reduce a pytest-benchmark JSON report to a compact perf record.

CI runs ``benchmarks/bench_kernels_real.py`` in smoke mode with
``--benchmark-json=report.json``, then::

    python benchmarks/export_bench.py report.json BENCH_PR3.json

to distil the per-kernel numbers — MFLUP/s and mean step time — into a
small stable-schema JSON artifact.  Uploading it per commit gives the
repo a measured performance trajectory (the executable analogue of the
paper's single-node tables) without archiving the full pytest report.

Stdlib-only on purpose: the exporter must run in any CI job that can
run the benchmarks.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

#: Schema 5: sparse-kernel rows carry a ``fill`` column (the fluid
#: fraction of the bounding box), which keys them per fill in
#: ``compare_bench.py``, and the ``suite`` field names the bench module
#: that produced the record instead of being hardwired.  Extra-info keys
#: pass through unchanged, so the ``copy_bandwidth`` probe row (the
#: host's Eq. 5 ``Bm``) needs no schema change.  Schema 4 added the
#: measuring ``host`` and ``cpu_count`` and stamped ``dtype`` on every
#: throughput row; schema 3 (PR 5) added ``comm_bytes`` and
#: distributed-ladder names; schema 2 (PR 4) added ``kernel``/``dtype``
#: extra-info keys.
SCHEMA = 5


def _suite(report: dict) -> str:
    """The bench module that produced ``report`` (from any fullname)."""
    for bench in report.get("benchmarks", []):
        fullname = str(bench.get("fullname", ""))
        module = fullname.split("::", 1)[0]
        if module:
            return Path(module).stem
    return "bench_kernels_real"


def export(report: dict) -> dict:
    """The compact perf record for one pytest-benchmark ``report``."""
    kernels = {}
    for bench in report.get("benchmarks", []):
        extra = dict(bench.get("extra_info", {}))
        entry = {"mean_s": float(bench["stats"]["mean"]), **extra}
        if "mflups" in entry and "dtype" not in entry:
            # Old suite revisions only stamped dtype on reduced-precision
            # rows; make it explicit on every throughput row.
            entry["dtype"] = (
                "float32" if "float32" in str(bench["name"]).lower() else "float64"
            )
        kernels[str(bench["name"])] = entry
    machine = report.get("machine_info", {})
    return {
        "schema": SCHEMA,
        "suite": _suite(report),
        "python": machine.get("python_version"),
        "cpu": (machine.get("cpu") or {}).get("brand_raw"),
        "host": machine.get("node") or platform.node(),
        "cpu_count": os.cpu_count(),
        "kernels": kernels,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(
            "usage: python benchmarks/export_bench.py "
            "<pytest-benchmark-report.json> <out.json>",
            file=sys.stderr,
        )
        return 2
    report_path, out_path = Path(argv[0]), Path(argv[1])
    record = export(json.loads(report_path.read_text()))
    if not record["kernels"]:
        print(f"error: no benchmarks in {report_path}", file=sys.stderr)
        return 1
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    mflups = {
        name: entry.get("mflups")
        for name, entry in record["kernels"].items()
        if "mflups" in entry
    }
    print(f"wrote {out_path}: {len(record['kernels'])} benchmark(s)")
    for name in sorted(mflups):
        print(f"  {name}: {mflups[name]:.2f} MFLUP/s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
