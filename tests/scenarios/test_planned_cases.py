"""Registered cases run on the planned kernel by default.

No silent downgrades: every dense case except the one that pins the
legacy pair resolves to the planned collide (compiled where this host
built the C loop) with no static wall left for after streaming, and a
forced step stays allocation-free.  Checkpoints stamped with the legacy
pair migrate through the byte-identical ``roll`` kernel.
"""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ScenarioError
from repro.scenarios import CaseRunner, available_cases, get_case

#: Dense cases that keep ``kernel=None``: a regularized collision (no
#: planned arena yet).
PINNED_TO_LEGACY = {"microchannel-knudsen"}

FORCED_CASES = [
    "poiseuille-channel",
    "artery-flow",
    "microfluidic-clogging",
    "porous-darcy",
]

DENSE_CASES = sorted(
    name for name in available_cases() if not get_case(name).params.get("sparse")
)


def test_exactly_the_pinned_cases_keep_the_legacy_pair():
    assert {n for n in DENSE_CASES if get_case(n).kernel is None} == PINNED_TO_LEGACY
    assert all(
        get_case(n).kernel == "planned" for n in DENSE_CASES if n not in PINNED_TO_LEGACY
    )


@pytest.mark.parametrize(
    "name", [n for n in DENSE_CASES if n not in PINNED_TO_LEGACY]
)
def test_default_spec_takes_the_arena_path(name, expected_collide):
    sim, _ = CaseRunner(name).build()
    path = sim.effective_path
    collide = expected_collide(sim.dtype)
    assert path["stream"] == "gather"
    assert path["collide"] == collide
    assert path["walls"] in ("folded", "none")
    assert path["forcing"] == ("none" if sim.forcing is None else collide)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", FORCED_CASES)
def test_forced_steps_allocate_nothing(name, dtype, collide_path):
    """The planned zero-allocation budget, now with walls and forcing, on
    the compiled loop and on the reference.  The budget scales with the
    field, so poiseuille's 240-cell native channel is widened: a field
    that small is below the fixed ~2 KB of transient view objects a few
    steps create."""
    overrides = {"shape": (16, 15, 16)} if name == "poiseuille-channel" else {}
    sim, _ = CaseRunner(name, dtype=dtype, **overrides).build()
    assert sim.effective_path["forcing"] == collide_path
    sim.run(2)  # warm every lazy buffer
    tracemalloc.start()
    sim.run(5)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < sim.f.nbytes // 50, f"forced step allocated {peak} B"
    assert np.isfinite(sim.f).all()


class TestLegacyCheckpointMigration:
    @pytest.mark.parametrize("name", ["artery-flow", "lid-driven-cavity"])
    def test_legacy_pair_checkpoint_resumes_under_roll(self, name, tmp_path):
        path = tmp_path / "legacy.npz"
        CaseRunner(name, steps=6, monitor_every=3, kernel=None).run(
            checkpoint=path, analyze=False
        )
        resumed = CaseRunner(name, steps=12, monitor_every=3, kernel="roll").run(
            resume=path, analyze=False
        )
        straight = CaseRunner(name, steps=12, monitor_every=3, kernel=None).run(
            analyze=False
        )
        assert resumed.simulation.f.tobytes() == straight.simulation.f.tobytes()
        assert resumed.series == straight.series

    def test_roll_checkpoint_resumes_under_the_legacy_pair(self, tmp_path):
        path = tmp_path / "roll.npz"
        CaseRunner("taylor-green", steps=4, monitor_every=2, kernel="roll").run(
            checkpoint=path, analyze=False
        )
        result = CaseRunner("taylor-green", steps=8, monitor_every=2, kernel=None).run(
            resume=path, analyze=False
        )
        assert result.metrics["steps_run"] == 8

    def test_planned_default_refusal_names_the_roll_kernel(self, tmp_path):
        path = tmp_path / "legacy.npz"
        CaseRunner("taylor-green", steps=4, monitor_every=2, kernel=None).run(
            checkpoint=path, analyze=False
        )
        with pytest.raises(ScenarioError, match="--kernel roll"):
            CaseRunner("taylor-green", steps=8, monitor_every=2).run(resume=path)
