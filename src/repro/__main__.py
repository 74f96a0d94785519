"""Command-line entry: paper artifacts and scenario cases.

Usage::

    python -m repro                       # run every paper experiment
    python -m repro fig8a fig9            # run selected experiments
    python -m repro --list                # list experiment ids
    python -m repro --report              # emit the EXPERIMENTS.md record

    python -m repro cases                 # list the scenario case catalog
    python -m repro case taylor-green --steps 200
    python -m repro case artery-flow --checkpoint state.npz
    python -m repro case artery-flow --resume state.npz
    python -m repro sweep taylor-green --param tau=0.6,0.8 \
        --param lattice=D3Q19,D3Q27 --steps 50
    python -m repro sweep taylor-green --param tau=0.6,0.7,0.8 \
        --jobs 4 --cache-dir sweep-cache          # 4 lease workers, cached
    python -m repro sweep taylor-green --param tau=0.6,0.7,0.8 \
        --jobs 4 --cache-dir sweep-cache --resume # finish what's missing

    python -m repro sweep taylor-green --param tau=0.6,0.7,0.8 \
        --cache-dir shared --publish              # publish work order only
    python -m repro sweep-worker --cache-dir shared   # run one worker
                                                      # (any host, any time)
    python -m repro sweep taylor-green --param tau=0.55,0.6,0.7,0.8,0.95 \
        --adaptive final_kinetic_energy           # sample, don't enumerate
    python -m repro sweep-status --cache-dir shared  # progress + leases

    python -m repro sweep taylor-green --param tau=0.6,0.7,0.8 \
        --jobs 2 --cache-dir shared --telemetry   # record JSONL events
    python -m repro events --cache-dir shared --name variant --tail 20

    python -m repro case taylor-green --kernel planned --dtype float32
    python -m repro sweep taylor-green --param dtype=float32,float64 \
        --steps 50                                # sweep the dtype policy

    python -m repro serve --cache-dir shared --telemetry  # HTTP front end
    python -m repro sweep-worker --cache-dir shared --follow  # drain it
    python -m repro case taylor-green --steps 50 --json --cache-dir shared

    python -m repro perf-model predict --lattice D3Q19 --dtype float32 \
        --shape 32,32,32 --steps 500        # Eq. 5 ceiling on this host
"""

from __future__ import annotations

import sys

SCENARIO_COMMANDS = (
    "case",
    "cases",
    "sweep",
    "sweep-worker",
    "sweep-status",
    "serve",
    "events",
    "perf-model",
)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args and args[0] in SCENARIO_COMMANDS:
        from .scenarios.cli import main as scenarios_main

        return scenarios_main(args)
    from .experiments import available_experiments, run_experiment

    if "--list" in args:
        print("\n".join(available_experiments()))
        return 0
    if "--report" in args:
        from .analysis.report import generate_report

        print(generate_report())
        return 0
    ids = args or list(available_experiments())
    for eid in ids:
        result = run_experiment(eid)
        print(result.to_text())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
