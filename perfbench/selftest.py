#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.  Run from the repository root::

    python3 perfbench/selftest.py

Checks, on every workload at ``--small`` size:

* untraced and traced runs succeed with ``correct: true`` and print every
  metric named in ``BENCHMARK.json``, with its unit and sample count, both
  as a text row and in the final JSON line;
* a deliberately corrupted hit answer (``--corrupt``: the serve-mix hit
  body, the sweep-session warm table, the artery-solve warm payload) is
  counted as a failed op and makes the run incorrect;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import uuid
from pathlib import Path

CHECKOUT = Path.cwd()


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")


def run(args: list[str], cwd: Path = CHECKOUT) -> subprocess.CompletedProcess:
    spec = json.loads((cwd / "BENCHMARK.json").read_text())
    return subprocess.run(spec["command"] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def check_metrics(out: str, declared: list[dict], label: str) -> dict:
    """Every declared metric has a text row with unit and n, and a JSON entry."""
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, label)
    check(set(result["metrics"]) == {m["name"] for m in declared}, label)
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        row = re.compile(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s+n=\d+")
        check(any(row.match(line) for line in lines[:-1]), f"{label}: no row for {name}")
        check(result["metrics"][name]["unit"] == unit, f"{label}: unit of {name}")
        check(isinstance(result["metrics"][name]["value"], (int, float)), label)
    return result


def main() -> int:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1", "--small"]
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = f"{workload} trace={trace}"
            done = run(base + ["--trace", trace])
            check(done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr}")
            result = check_metrics(done.stdout, declared, label)
            check(result["correct"] and result["failed"] == 0, f"{label}: {done.stdout}")
            check(result["attempted"] >= 1, label)
            print(f"ok  {label}: {len(declared)} metrics with unit and n")
        done = run(base + ["--trace", "0", "--corrupt"])
        check(done.returncode == 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        check(result["failed"] == 1 and not result["correct"], f"{workload}: {done.stdout}")
        print(f"ok  {workload}: a corrupted hit answer is a failed op")

    bare = CHECKOUT / ".perfbench-out" / f"bare-{uuid.uuid4().hex[:8]}"
    try:
        bare.mkdir(parents=True)
        shutil.copyfile(CHECKOUT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(CHECKOUT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(["--workload", workloads[0], "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        check(done.returncode != 0, "ran without the program")
        check('"metrics"' not in done.stdout, "printed a result without the program")
        print("ok  without the program: exit", done.returncode, "and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
