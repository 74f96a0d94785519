"""What importing ``repro`` loads, checked in fresh interpreters.

``import repro``, ``import repro.api`` and ``python -m repro cases`` load
none of the subsystems a case solve or an inline sweep never uses
(:data:`UNUSED`): each package resolves its names on first access, and a
module imports at module level only what every importer of it uses.

Run as a script it checks the ``repro`` its interpreter imports, an
installed wheel included, and exits non-zero on a violation::

    python tests/import_contract.py

``tests/test_import_contract.py`` runs the same checks on the source tree.
"""

from __future__ import annotations

import json
import subprocess
import sys

#: Modules (with their submodules) that no entry point below may load.
UNUSED = (
    "multiprocessing",
    "repro.experiments",
    "repro.parallel",
    "repro.perf",
    "repro.scenarios.sampling",
    "repro.scenarios.scheduler",
    "repro.scenarios.workers",
    "repro.serve",
)

#: Entry point -> the code a fresh interpreter runs for it.  ``python -m``
#: runs a package's ``__main__`` the way :func:`runpy.run_module` does.
ENTRY_POINTS = {
    "import repro": "import repro",
    "import repro.api": "import repro.api",
    "python -m repro cases": (
        "import runpy, sys\n"
        "sys.argv = ['repro', 'cases']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code\n"
    ),
}


def fresh(code: str, env: dict | None = None) -> str:
    """The last stdout line of a fresh interpreter running ``code``."""
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    if run.returncode:
        raise RuntimeError(f"exit {run.returncode}:\n{run.stderr}")
    return run.stdout.splitlines()[-1]


def loaded_by(code: str, env: dict | None = None) -> list[str]:
    """Every module a fresh interpreter holds after running ``code``."""
    report = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    return json.loads(fresh(code + report, env))


def unused_loaded(entry_point: str, env: dict | None = None) -> list[str]:
    """The modules of :data:`UNUSED` that ``entry_point`` loads."""
    return [
        name
        for name in loaded_by(ENTRY_POINTS[entry_point], env)
        if any(name == unused or name.startswith(unused + ".") for unused in UNUSED)
    ]


def main() -> int:
    import repro

    print("repro from", repro.__file__)
    failed = False
    for entry_point in ENTRY_POINTS:
        loaded = unused_loaded(entry_point)
        print(f"{entry_point}: {'loads ' + ', '.join(loaded) if loaded else 'ok'}")
        failed |= bool(loaded)
    # Deferred is not gone: the experiments still resolve on access.
    resolved = fresh(
        "import repro\n"
        "assert repro.run_experiment is repro.experiments.run_experiment\n"
        "print(repro.experiments.available_experiments()[0])"
    )
    print("repro.run_experiment and repro.experiments resolve:", resolved)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
