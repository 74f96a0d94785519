"""One workload process: set up, say ``ready``, run the ops, write the result.

Started by ``run.py`` with the run's private environment.  ``--mode
setup`` stops after set-up (a set-up sample), ``run`` measures the op
sequence untraced, ``trace`` measures it with the layer wrappers of
:mod:`spans` installed.  The result goes to ``<root>/result.json``;
stdout carries only the ``ready`` line the parent times set-up by.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

import numpy

import spans
import workloads


def bare_kernel_mflups(lattice: str, shape, dtype: str, steps: int) -> float:
    """The planned kernel alone (no walls, no forcing) on one grid."""
    from repro.core.simulation import Simulation
    from repro.core.initial_conditions import uniform_flow

    sim = Simulation(lattice, shape, tau=0.8, kernel="planned", dtype=dtype)
    sim.initialize(*uniform_flow(tuple(shape)))
    sim.run(steps)
    return sim.mflups()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()
    root = Path(args.root)

    wl = workloads.make(args.workload, seed=args.seed, part=args.part, seconds=args.seconds,
                        small=args.small, root=root / "cache", corrupt=args.corrupt)
    wl.setup()
    print("ready", flush=True)
    try:
        if args.mode == "setup":
            return 0
        restore = None
        if args.mode == "trace":
            wl.tracer = spans.Tracer()
            restore = spans.install(wl.tracer)
        wl.prepare()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        tts = wl.measure()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        if restore is not None:
            restore()
    finally:
        wl.close()

    result = {
        "numpy": numpy.__version__,
        "ops": [[op.cls, op.ms, op.ok, op.why] for op in wl.ops],
        "time_to_solution_s": tts,
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "involuntary_ctx_switches": ru1.ru_nivcsw - ru0.ru_nivcsw,
        "status": {str(k): v for k, v in wl.status.items()},
        "core": wl.core,
    }
    if wl.tracer is not None:
        from repro.lattice import get_lattice
        from repro.machine.roofline import bytes_per_cell

        configs = {(r["lattice"], tuple(r["shape"]), r["dtype"]) for r in wl.tracer.sim_runs}
        bench_steps = 20 if args.small else 200
        bare = {c: bare_kernel_mflups(*c, steps=bench_steps) for c in sorted(configs)}
        metrics, notes = spans.layer_metrics(
            wl.tracer, bare, lambda lat, dt: bytes_per_cell(get_lattice(lat), dt))
        result["layers"] = metrics
        result["trace_notes"] = notes
        result["bare_kernel"] = [
            {"lattice": lat, "shape": list(shape), "dtype": dt, "mflups": v}
            for (lat, shape, dt), v in bare.items()
        ]
        with open(root / "spans.jsonl", "w") as out:
            for span in wl.tracer.spans:
                out.write(json.dumps(span.to_json()) + "\n")
    (root / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
