"""The process's working set: recycled population arrays and shared
periodic gather tables (``repro.core.fields.WorkingSet``).

A process pays for a shape's arrays once: a dropped simulation's arrays
serve the next simulation of its ``(shape, dtype)``, and every periodic
plan of a ``(lattice, shape, layout)`` streams through one table.  An
array is handed out again only when nothing else references it, and no
plan ever writes a shared table.
"""

import itertools
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core import (
    BounceBackWalls,
    KernelPlan,
    Simulation,
    build_gather_table,
    fields,
    taylor_green,
)
from repro.core.sparse import SparseSimulation
from repro.lattice import get_lattice
from repro.parallel import DistributedSimulation
from repro.scenarios import CaseRunner

SHAPE = (8, 8, 4)


@pytest.fixture
def working_set(monkeypatch):
    """A fresh process working set for the test (the budget is the
    constant's unless a test builds its own)."""
    fresh = fields.WorkingSet()
    monkeypatch.setattr(fields, "_WORKING_SET", fresh)
    return fresh


def _tables(working_set):
    return [key for key in working_set._entries if key[0] == "table"]


def _started(shape=SHAPE, u0=0.02, **kwargs):
    sim = Simulation("D3Q19", shape, tau=0.8, **kwargs)
    sim.initialize(*taylor_green(shape, u0=u0))
    sim.run(3)
    return sim


def _addresses(sim):
    return {sim.field.data.ctypes.data, sim._adv.data.ctypes.data}


class TestRecycledArrays:
    @pytest.mark.parametrize("layout", ["soa", "aos"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_dropped_simulation_serves_the_next(self, working_set, layout, dtype):
        sim = _started(layout=layout, dtype=dtype)
        used = _addresses(sim)
        del sim
        again = Simulation("D3Q19", SHAPE, tau=0.9, layout=layout, dtype=dtype)
        assert _addresses(again) == used
        assert not again.field.data.any() and not again._adv.data.any()

    @pytest.mark.parametrize("change", ["frozen", "reshaped", "retyped"])
    def test_array_changed_in_place_is_not_reused(self, change):
        """Its last user froze the array or set its shape or dtype in
        place: the next request gets a fresh array of what it asked."""
        ws = fields.WorkingSet()
        array = ws.zeros((4, 250), "float64")
        if change == "frozen":
            array.flags.writeable = False
        elif change == "reshaped":
            array.shape = (1000,)
        else:
            array.dtype = np.int64
        used = array.ctypes.data
        del array
        again = ws.zeros((4, 250), "float64")
        assert again.ctypes.data != used
        assert again.flags.writeable
        assert (again.shape, again.dtype) == ((4, 250), np.float64)

    def test_another_key_gets_fresh_arrays(self, working_set):
        sim = _started()
        used = _addresses(sim)
        del sim
        assert not _addresses(_started(dtype="float32")) & used
        assert not _addresses(_started(shape=(8, 8, 6))) & used

    @pytest.mark.parametrize(
        "hold", ["array", "view", "memoryview", "weakref", "result"]
    )
    def test_reachable_array_is_never_handed_out(self, working_set, hold):
        """What the caller still holds keeps its values while a new
        simulation of the key builds and steps (a weak reference counts:
        the working set keeps the array alive, so it still resolves)."""
        if hold == "result":
            kept = CaseRunner("taylor-green", shape=SHAPE, steps=3).run(analyze=False)

            def reach():
                return [kept.simulation.field.data, kept.simulation._adv.data]
        else:
            sim = _started()
            kept = {
                "array": lambda s: s.f,
                "view": lambda s: s.f[0],
                "memoryview": lambda s: memoryview(s.f),
                "weakref": lambda s: weakref.ref(s.f),
            }[hold](sim)
            del sim

            def reach():
                return [np.asarray(kept() if hold == "weakref" else kept)]
        snapshot = [a.copy() for a in reach()]
        other = _started(u0=0.05)
        for array, values in zip(reach(), snapshot):
            for fresh in (other.field.data, other._adv.data):
                assert not np.shares_memory(array, fresh)
            assert array.tobytes() == values.tobytes()

    def test_live_simulations_never_share(self, working_set):
        sims = [_started() for _ in range(3)]
        del sims[1]
        sims.append(_started())
        arrays = [a for s in sims for a in (s.field.data, s._adv.data)]
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)

    def test_threads_never_share_an_array(self, working_set):
        """Six threads (more than cores) build, step and drop simulations
        of one key with a short switch interval: no array is ever held
        by two live simulations, and every run ends on its own bytes."""
        threads, rounds = 6, 8
        expected = [_started(u0=0.01 * (k + 1)).f.tobytes() for k in range(threads)]
        live, lock, errors = set(), threading.Lock(), []

        def work(k):
            try:
                for _ in range(rounds):
                    sim = Simulation("D3Q19", SHAPE, tau=0.8)
                    mine = _addresses(sim)
                    with lock:
                        if live & mine:
                            errors.append(f"thread {k}: an array of a live simulation")
                        live.update(mine)
                    if sim.f.any():
                        errors.append(f"thread {k}: a recycled array was not zeroed")
                    sim.initialize(*taylor_green(SHAPE, u0=0.01 * (k + 1)))
                    sim.run(3)
                    if sim.f.tobytes() != expected[k]:
                        errors.append(f"thread {k}: populations changed under it")
                    with lock:
                        live.difference_update(mine)
                    del sim
            except Exception as exc:  # reported below, with the thread
                errors.append(f"thread {k}: {exc!r}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)
        assert errors == []

    def test_array_over_the_budget_is_not_held(self, monkeypatch):
        field_bytes = 19 * 8 * 8 * 4 * 8  # one D3Q19 float64 8x8x4 field
        small = fields.WorkingSet(budget=3 * field_bytes)
        monkeypatch.setattr(fields, "_WORKING_SET", small)
        held = Simulation("D3Q19", SHAPE)
        too_big = Simulation("D3Q19", (8, 8, 13))
        refs = [weakref.ref(s.field.data) for s in (held, too_big)]
        del held, too_big
        assert [r() is None for r in refs] == [False, True]
        assert small.nbytes == 2 * field_bytes

    def test_least_recently_used_entries_go_first(self):
        unit = 1000 * 8
        ws = fields.WorkingSet(budget=3 * unit)
        a, b, c = (ws.zeros((1000,), "float64") for _ in range(3))
        b_address = b.ctypes.data
        del b
        b = ws.zeros((1000,), "float64")  # the idle b, now the most recent
        assert b.ctypes.data == b_address
        refs = [weakref.ref(x) for x in (a, b, c)]
        big = ws.zeros((2000,), "float64")  # evicts a, then c
        assert ws.nbytes == 3 * unit
        del a, b, c, big
        assert [r() is None for r in refs] == [True, False, True]


class TestSharedTables:
    def test_periodic_plans_share_one_table(self, working_set, q19, q39):
        plan = KernelPlan(q19, SHAPE)
        assert KernelPlan(q19, SHAPE, dtype="float32").gather is plan.gather
        assert np.array_equal(plan.gather, build_gather_table(q19, SHAPE))
        for other in (
            KernelPlan(q19, SHAPE, layout="aos"),
            KernelPlan(q39, SHAPE),
            KernelPlan(q19, (8, 8, 6)),
        ):
            assert other.gather is not plan.gather
        assert len(_tables(working_set)) == 4

    def test_fold_leaves_every_other_table_alone(self, working_set, q19):
        shared = KernelPlan(q19, SHAPE).gather
        pristine = shared.copy()
        mask = np.zeros(SHAPE, dtype=bool)
        mask[:, 0, :] = True
        resolved, unresolved = KernelPlan(q19, SHAPE), KernelPlan(q19, SHAPE)
        assert resolved.gather is shared
        resolved.fold_bounce_back(mask)
        first_fold = resolved.gather.copy()
        unresolved.fold_bounce_back(mask)
        unresolved.fold_bounce_back(np.roll(mask, 2, axis=1))
        assert shared.tobytes() == pristine.tobytes()
        assert resolved.gather.tobytes() == first_fold.tobytes()
        assert not np.array_equal(first_fold, pristine)
        assert resolved.gather is not shared and unresolved.gather is not shared
        assert KernelPlan(q19, SHAPE).gather is shared

    def test_walled_simulation_adds_no_table(self, working_set, q19):
        mask = np.zeros(SHAPE, dtype=bool)
        mask[:, 0, :] = mask[:, -1, :] = True
        walled = Simulation(q19, SHAPE, boundaries=[BounceBackWalls(q19, mask)])
        walled.initialize(1.0, np.zeros((3, *SHAPE)))
        walled.run(2)
        assert walled.effective_path["walls"] == "folded"
        assert _tables(working_set) == []
        _started()
        assert len(_tables(working_set)) == 1

    def test_slab_and_sparse_tables_are_never_shared(self, working_set):
        lattice = get_lattice("D3Q19")
        rho, u = taylor_green(SHAPE, u0=0.02)
        dist = DistributedSimulation("D3Q19", SHAPE, tau=0.8, num_ranks=2)
        dist.initialize(rho, u)
        dist.run(2)
        sparse = [
            SparseSimulation(lattice, np.zeros(SHAPE, dtype=bool), tau=0.8)
            for _ in range(2)
        ]
        for sim in sparse:
            sim.initialize(rho, u)
            sim.run(2)
        assert sparse[0].kernel.plan.gather is not sparse[1].kernel.plan.gather
        assert len(working_set._entries) == 0


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="ru_minflt is counted on Linux"
)
@pytest.mark.parametrize("lattice", ["D3Q19", "D3Q39"])
def test_a_warm_variant_first_touches_no_pages(lattice):
    """Once its key is warm, a 3-step 32x32x4 taylor-green variant builds
    and runs on mapped pages: at most 30 minor faults (576 for D3Q19 and
    1216 for D3Q39 when every variant allocated its arrays afresh).

    The key warms with two variants, not one.  Freeing the first
    variant's field-sized transient (``equilibrium``'s ``c . u``
    product) raises glibc's mmap threshold past it, so in a fresh
    process the second variant's transient grows the heap once: 152
    (D3Q19) or 312 (D3Q39) faults that no later variant pays."""
    resource = pytest.importorskip("resource")
    for tau in (0.9, 0.91):
        CaseRunner("taylor-green", lattice=lattice, steps=3, tau=tau).run()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    CaseRunner("taylor-green", lattice=lattice, steps=3, tau=0.92).run()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 30
