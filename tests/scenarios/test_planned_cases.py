"""Registered cases run on the planned kernel.

No silent downgrades: every dense case streams through the planned
gather with no static wall left for after streaming; every BGK case
collides in the planned collide (compiled where this host built the C
loop), in the same pass as its gather unless a moving lid runs between
them, and a forced step stays allocation-free.  The one custom
collision (microchannel-knudsen's regularized operator) replaces only
the collide, byte-identical to the retired legacy pair.  Of that pair's
checkpoints, only unstamped custom-collision files resume.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import stream_periodic
from repro.errors import ScenarioError
from repro.scenarios import CaseRunner, available_cases, get_case

#: Dense cases whose collision factory replaces the plan's collide.
CUSTOM_COLLISION = {"microchannel-knudsen"}

#: Dense BGK cases with a boundary between streaming and collision (a
#: moving lid), so their plan streams in a pass of its own.
POST_STREAM = {"lid-driven-cavity"}

FORCED_CASES = [
    "poiseuille-channel",
    "artery-flow",
    "microfluidic-clogging",
    "porous-darcy",
]

DENSE_CASES = sorted(
    name for name in available_cases() if not get_case(name).params.get("sparse")
)


def test_every_dense_case_runs_planned():
    """No case pins another kernel, and exactly the expected cases bring
    their own collision operator."""
    assert all(get_case(n).kernel == "planned" for n in DENSE_CASES)
    assert {
        n for n in DENSE_CASES if get_case(n).collision is not None
    } == CUSTOM_COLLISION


@pytest.mark.parametrize(
    "name", [n for n in DENSE_CASES if n not in CUSTOM_COLLISION]
)
def test_default_spec_takes_the_arena_path(name, expected_collide):
    sim, _ = CaseRunner(name).build()
    path = sim.effective_path
    collide = expected_collide(sim.dtype)
    assert path["stream"] == ("gather" if name in POST_STREAM else "fused")
    assert path["collide"] == collide
    assert path["walls"] in ("folded", "none")
    assert path["forcing"] == ("none" if sim.forcing is None else collide)


@pytest.mark.parametrize("name", sorted(CUSTOM_COLLISION))
def test_custom_collision_case_streams_through_the_plan(name):
    """The bypass of the plan's collide is recorded, not silent."""
    sim, _ = CaseRunner(name).build()
    assert sim.effective_path == {
        "stream": "gather",
        "walls": "none",
        "collide": "generic",
        "forcing": "none",
    }


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_knudsen_equals_the_legacy_pair_rebuilt_here(dtype):
    """The oracle is the retired legacy pair, rebuilt from the spec's own
    factories: ``stream_periodic``, the diffuse walls, then the
    regularized operator.  Byte for byte, over 200 steps."""
    steps = 200
    runner = CaseRunner("microchannel-knudsen", steps=steps, dtype=dtype)
    sim, _ = runner.build()
    spec, lattice = runner.spec, sim.lattice
    op = spec.collision(spec, lattice)
    walls = spec.boundaries(spec, lattice, None)
    f = sim.f.copy()
    for _ in range(steps):
        adv = stream_periodic(lattice, f)
        for bc in walls:
            bc.apply(adv, f)
        op.apply(adv, out=f)
    sim.run(steps)
    assert sim.f.tobytes() == f.tobytes()


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
    assert sim.effective_path["stream"] == "fused"
    sim.run(2)  # warm every lazy buffer
    tracemalloc.start()
    sim.run(5)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < sim.f.nbytes // 50, f"forced step allocated {peak} B"
    assert np.isfinite(sim.f).all()


class TestLegacyCheckpointMigration:
    """The retired legacy pair left checkpoints with no kernel stamp
    (an empty one, or none at all in older files), or stamped ``roll``."""

    @pytest.mark.parametrize("stamp", ["", None], ids=["empty", "none"])
    def test_unstamped_custom_collision_checkpoint_resumes(
        self, tmp_path, restamp_checkpoint, stamp
    ):
        """Its stream wrote the planned gather's bytes and the same
        operator collided, so the continuation is bit-exact."""
        name = "microchannel-knudsen"
        path = tmp_path / "legacy.npz"
        CaseRunner(name, steps=6, monitor_every=3).run(
            checkpoint=path, analyze=False
        )
        restamp_checkpoint(path, stamp)
        resumed = CaseRunner(name, steps=12, monitor_every=3).run(
            resume=path, analyze=False
        )
        straight = CaseRunner(name, steps=12, monitor_every=3).run(analyze=False)
        assert resumed.simulation.f.tobytes() == straight.simulation.f.tobytes()
        assert resumed.series == straight.series

    @pytest.mark.parametrize("kernel", ["planned", "naive"])
    def test_unstamped_bgk_checkpoint_is_refused(
        self, tmp_path, restamp_checkpoint, kernel
    ):
        path = tmp_path / "legacy.npz"
        CaseRunner("taylor-green", steps=4, monitor_every=2).run(
            checkpoint=path, analyze=False
        )
        restamp_checkpoint(path, "")
        runner = CaseRunner("taylor-green", steps=8, monitor_every=2, kernel=kernel)
        with pytest.raises(ScenarioError, match="Upgrading past roll"):
            runner.run(resume=path)

    @pytest.mark.parametrize("name", ["taylor-green", "microchannel-knudsen"])
    def test_roll_checkpoint_is_refused_anywhere(
        self, tmp_path, restamp_checkpoint, name
    ):
        path = tmp_path / "roll.npz"
        CaseRunner(name, steps=4, monitor_every=2).run(
            checkpoint=path, analyze=False
        )
        restamp_checkpoint(path, "roll")
        with pytest.raises(ScenarioError, match="legacy arithmetic is retired"):
            CaseRunner(name, steps=8, monitor_every=2).run(resume=path)
