"""Distributed sweeps: leases, determinism, crash recovery."""

import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.__main__ import main as repro_main
from repro.core.io import ClaimRecord, read_claim, write_claim
from repro.errors import ScenarioError
from repro.scenarios import (
    ResultCache,
    Sweep,
    SweepExecutor,
    SweepManifest,
    WorkQueue,
    get_case,
    run_worker,
)
from repro.scenarios.executor import SweepPlan
from repro.scenarios.scheduler import LeaseBoard, predict_spec_costs

TAUS = [0.55, 0.7, 0.8, 0.95]


def make_sweep(taus=TAUS):
    return Sweep(
        "taylor-green", {"tau": list(taus), "shape": [(8, 8, 4)]}, steps=10
    )


def cache_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.glob("*.json"))}


class TestLeaseBoard:
    def test_acquire_is_exclusive(self, tmp_path):
        a = LeaseBoard(tmp_path, owner="a")
        b = LeaseBoard(tmp_path, owner="b")
        assert a.acquire("fp1")
        assert not b.acquire("fp1")
        assert b.acquire("fp2")  # other variants stay claimable

    def test_release_frees_only_own_lease(self, tmp_path):
        a = LeaseBoard(tmp_path, owner="a")
        b = LeaseBoard(tmp_path, owner="b")
        assert a.acquire("fp")
        assert not b.release("fp")  # not b's to release
        assert a.release("fp")
        assert b.acquire("fp")

    def test_live_lease_cannot_be_reclaimed(self, tmp_path):
        a = LeaseBoard(tmp_path, owner="a", ttl=3600)
        b = LeaseBoard(tmp_path, owner="b", ttl=3600)
        assert a.acquire("fp")
        assert not b.reclaim("fp")
        assert b.holder("fp").owner == "a"

    def test_restarted_worker_reclaims_its_own_stale_lease(self, tmp_path):
        """A worker restarted with the same explicit --worker-id must
        recover its crashed predecessor's lease, not deadlock on it."""
        board = LeaseBoard(tmp_path, owner="w1")
        dead_previous = ClaimRecord(
            owner="w1",  # same id, earlier incarnation
            resource="fp",
            host="elsewhere",
            pid=1,
            acquired_at=time.time() - 100,
            expires_at=time.time() - 50,
        )
        assert write_claim(board.path("fp"), dead_previous)
        assert not board.acquire("fp")  # O_EXCL: file still there
        assert board.reclaim("fp")
        assert board.acquire("fp")

    def test_heartbeat_keeps_slow_variant_lease_live(self, tmp_path):
        from repro.scenarios.workers import lease_heartbeat

        board = LeaseBoard(tmp_path, owner="slow", ttl=0.4)
        peer = LeaseBoard(tmp_path, owner="peer", ttl=0.4)
        assert board.acquire("fp")
        with lease_heartbeat(board, "fp"):
            time.sleep(1.0)  # well past the original expiry
            record = peer.holder("fp")
            assert record is not None and not peer.stale(record)
            assert not peer.reclaim("fp")
        assert board.release("fp")

    def test_expired_lease_is_reclaimed(self, tmp_path):
        board = LeaseBoard(tmp_path, owner="b")
        stale = ClaimRecord(
            owner="dead",
            resource="fp",
            host="elsewhere",
            pid=1,
            acquired_at=time.time() - 100,
            expires_at=time.time() - 50,
        )
        assert write_claim(board.path("fp"), stale)
        assert board.reclaim("fp")
        assert board.acquire("fp")
        assert board.holder("fp").owner == "b"

    def test_dead_same_host_pid_is_stale_before_expiry(self, tmp_path):
        child = multiprocessing.Process(target=lambda: None)
        child.start()
        child.join()  # pid now dead, almost surely not yet recycled
        board = LeaseBoard(tmp_path, owner="b", ttl=3600)
        record = ClaimRecord(
            owner="crashed",
            resource="fp",
            host=board.host,
            pid=child.pid,
            acquired_at=time.time(),
            expires_at=time.time() + 3600,
        )
        assert write_claim(board.path("fp"), record)
        assert board.stale(record)
        assert board.reclaim("fp")

    def test_renew_extends_expiry(self, tmp_path):
        board = LeaseBoard(tmp_path, owner="a", ttl=60)
        assert board.acquire("fp")
        before = board.holder("fp").expires_at
        time.sleep(0.01)
        assert board.renew("fp")
        assert board.holder("fp").expires_at > before
        other = LeaseBoard(tmp_path, owner="b", ttl=60)
        assert not other.renew("fp")  # not the owner

    def test_active_lists_live_leases_only(self, tmp_path):
        board = LeaseBoard(tmp_path, owner="a")
        assert board.acquire("live")
        stale = ClaimRecord(
            owner="dead",
            resource="gone",
            host="elsewhere",
            pid=1,
            acquired_at=0.0,
            expires_at=1.0,
        )
        write_claim(board.path("gone"), stale)
        assert set(board.active()) == {"live"}

    def test_break_claim_races_have_one_winner(self, tmp_path):
        board = LeaseBoard(tmp_path, owner="x")
        stale = ClaimRecord(
            owner="dead", resource="fp", host="h", pid=1,
            acquired_at=0.0, expires_at=1.0,
        )
        write_claim(board.path("fp"), stale)
        from repro.core.io import break_claim

        first = break_claim(board.path("fp"), stale)
        second = break_claim(board.path("fp"), stale)
        assert first and not second
        assert read_claim(board.path("fp")) is None

    def test_second_reclaimer_of_one_stale_lease_breaks_nothing(
        self, tmp_path, monkeypatch
    ):
        """Two workers read the same stale lease.  The first reclaims
        and re-acquires it before the second breaks: the second's break
        finds a lease other than the one it judged and puts it back, so
        the first keeps the variant."""
        from repro.scenarios import scheduler

        a = LeaseBoard(tmp_path, owner="a")
        b = LeaseBoard(tmp_path, owner="b")
        stale = ClaimRecord(
            owner="dead", resource="fp", host="elsewhere", pid=1,
            acquired_at=time.time() - 100, expires_at=time.time() - 50,
        )
        assert write_claim(a.path("fp"), stale)
        real_read = scheduler.read_claim

        def stale_snapshot(path):
            monkeypatch.setattr(scheduler, "read_claim", real_read)
            assert a.reclaim("fp") and a.acquire("fp")
            return stale  # what b read before a acted

        monkeypatch.setattr(scheduler, "read_claim", stale_snapshot)
        assert not b.reclaim("fp")
        assert a.holder("fp").owner == "a"
        assert not b.acquire("fp")
        assert sorted(p.name for p in a.dir.iterdir()) == ["fp.lease"]


class TestWorkQueue:
    def test_publish_load_roundtrip_preserves_fingerprints(self, tmp_path):
        plan = SweepPlan.of(make_sweep())
        WorkQueue.publish(tmp_path, plan, analyze=False)
        queue = WorkQueue.load(tmp_path)
        assert {i.case for i in queue.items} == {"taylor-green"}
        assert [i.index for i in queue.items] == list(range(len(plan)))
        assert [i.fingerprint for i in queue.items] == plan.fingerprints
        assert sorted(p.name for p in (tmp_path / "queue").iterdir()) == sorted(
            f"{fp}.json" for fp in plan.fingerprints
        )
        # tuple-valued overrides survive the JSON round-trip
        assert queue.items[0].overrides["shape"] == (8, 8, 4)
        # and the worker-side task agrees with the plan's
        assert queue.items[0].task() == plan.task(0, False)

    def test_load_without_publish_errors(self, tmp_path):
        with pytest.raises(ScenarioError, match="no published sweep"):
            WorkQueue.load(tmp_path)

    def test_load_skips_the_named_items_without_reading_them(self, tmp_path):
        plan = SweepPlan.of(make_sweep())
        WorkQueue.publish(tmp_path, plan, analyze=True)
        done = set(plan.fingerprints[:3])
        for fingerprint in done:  # unreadable: a read would be skipped too
            (tmp_path / "queue" / f"{fingerprint}.json").write_text("{torn")
        queue = WorkQueue.load(tmp_path, skip=done)
        assert [i.fingerprint for i in queue.items] == plan.fingerprints[3:]
        assert queue.queued == set(plan.fingerprints)

    def test_corrupt_item_is_skipped_with_a_warning(self, tmp_path, caplog):
        plan = SweepPlan.of(make_sweep())
        WorkQueue.publish(tmp_path, plan, analyze=True)
        torn = tmp_path / "queue" / f"{plan.fingerprints[1]}.json"
        torn.write_text("{not json")
        with caplog.at_level("WARNING", logger="repro.scenarios.scheduler"):
            queue = WorkQueue.load(tmp_path)
            WorkQueue.load(tmp_path)
        assert [i.fingerprint for i in queue.items] == [
            fp for fp in plan.fingerprints if fp != plan.fingerprints[1]
        ]
        assert caplog.text.count("corrupt work item") == 1

    def test_existing_item_wins_and_other_analyze_mode_is_refused(self, tmp_path):
        plan = SweepPlan.of(make_sweep())
        first = WorkQueue.publish(tmp_path, plan, analyze=True, costs=[1.0] * 4)
        before = {p.name: p.read_bytes() for p in (tmp_path / "queue").iterdir()}
        again = WorkQueue.publish(tmp_path, plan, analyze=True)  # uncosted
        assert again.items == first.items  # the first items stayed
        assert {
            p.name: p.read_bytes() for p in (tmp_path / "queue").iterdir()
        } == before
        with pytest.raises(ScenarioError, match="analyze=True"):
            WorkQueue.publish(tmp_path, plan, analyze=False)

    def test_unregistered_case_rejected(self, tmp_path):
        import dataclasses

        spec = dataclasses.replace(get_case("taylor-green"), name="tg-local")
        plan = SweepPlan.of(Sweep(spec, {"tau": [0.6, 0.8]}, steps=10))
        with pytest.raises(ScenarioError, match="registered case"):
            WorkQueue.publish(tmp_path, plan, analyze=False)


class TestDistributedDeterminism:
    def test_workers1_workers4_and_warm_bit_identical(self, tmp_path):
        """The headline guarantee extended to lease workers: inline,
        2 workers, 4 workers and a warm replay emit the same tables and
        the same cache bytes."""
        serial = SweepExecutor(
            make_sweep(), jobs=1, cache_dir=tmp_path / "serial"
        ).run(analyze=True)
        two = SweepExecutor(make_sweep(), jobs=2, cache_dir=tmp_path / "w2").run()
        four = SweepExecutor(make_sweep(), jobs=4, cache_dir=tmp_path / "w4").run()
        warm = SweepExecutor(make_sweep(), jobs=4, cache_dir=tmp_path / "w4").run()

        assert serial.to_table() == two.to_table() == four.to_table()
        assert serial.to_csv() == two.to_csv() == four.to_csv() == warm.to_csv()
        assert (
            cache_bytes(tmp_path / "serial")
            == cache_bytes(tmp_path / "w2")
            == cache_bytes(tmp_path / "w4")
        )
        assert (tmp_path / "w4" / "queue").is_dir()  # workers ran
        assert warm.runs_executed == 0
        assert all(p == "cached" for p in warm.provenance)

    def test_worker_provenance_attributes_completions(self, tmp_path):
        result = SweepExecutor(make_sweep(), jobs=2, cache_dir=tmp_path).run()
        assert result.provenance == ["run"] * len(TAUS)
        assert result.runs_executed == len(TAUS)
        manifest = SweepManifest.load(tmp_path)
        assert sorted(manifest.completed) == sorted(result.fingerprints)
        assert set(manifest.workers) == set(result.fingerprints)


class TestWorkerLoop:
    def publish(self, root, sweep=None, analyze=True):
        executor = SweepExecutor(sweep or make_sweep(), cache_dir=root)
        return executor.publish(analyze=analyze)[0]

    def test_single_worker_drains_the_queue(self, tmp_path):
        plan = self.publish(tmp_path)
        report = run_worker(tmp_path, worker_id="solo")
        assert sorted(report.completed) == sorted(plan.fingerprints)
        assert not report.reclaimed
        # a second worker finds nothing to do
        again = run_worker(tmp_path, worker_id="late")
        assert again.completed == []
        assert again.already_cached == len(plan.fingerprints)

    def test_max_variants_stops_early(self, tmp_path):
        self.publish(tmp_path)
        report = run_worker(tmp_path, worker_id="partial", max_variants=2)
        assert len(report.completed) == 2
        assert report.already_cached == 0
        finisher = run_worker(tmp_path, worker_id="finisher", max_variants=1)
        assert len(finisher.completed) == 1
        # the early return still reports the peer's entries as cached
        assert finisher.already_cached == 2

    def test_killed_worker_is_reclaimed_and_table_unchanged(self, tmp_path):
        """The acceptance scenario: a worker dies mid-variant leaving a
        lease and no cache entry; a peer reclaims the stale lease, runs
        the variant, and the final table matches an uninterrupted run
        byte for byte."""
        plan = self.publish(tmp_path)
        # Complete all but the last variant.
        run_worker(tmp_path, worker_id="early", max_variants=len(plan) - 1)
        victim = plan.fingerprints[-1]
        board = LeaseBoard(tmp_path, owner="observer")
        crashed = ClaimRecord(
            owner="killed-mid-variant",
            resource=victim,
            host="gone-host",
            pid=1,
            acquired_at=time.time() - 120,
            expires_at=time.time() - 60,  # TTL long expired
        )
        assert write_claim(board.path(victim), crashed)
        assert ResultCache(tmp_path).get(victim) is None  # died before commit

        rescuer = run_worker(tmp_path, worker_id="rescuer")
        assert rescuer.reclaimed == [victim]
        assert rescuer.completed == [victim]

        merged = SweepExecutor(make_sweep(), cache_dir=tmp_path).run()
        reference = SweepExecutor(make_sweep(), jobs=1).run()
        assert merged.to_table() == reference.to_table()
        assert merged.to_csv() == reference.to_csv()

    def test_live_peer_lease_is_respected(self, tmp_path):
        plan = self.publish(tmp_path)
        board = LeaseBoard(tmp_path, owner="busy-peer", ttl=3600)
        held = plan.fingerprints[0]
        assert board.acquire(held)
        report = run_worker(tmp_path, worker_id="polite")
        assert held not in report.completed
        assert len(report.completed) == len(plan.fingerprints) - 1
        assert board.holder(held).owner == "busy-peer"

    def test_worker_without_published_sweep_errors(self, tmp_path):
        with pytest.raises(ScenarioError, match="no published sweep"):
            run_worker(tmp_path)

    def test_analyze_mode_recorded_in_queue(self, tmp_path):
        self.publish(tmp_path, analyze=False)
        run_worker(tmp_path, worker_id="smoke")
        entry = ResultCache(tmp_path).get(SweepPlan.of(make_sweep()).fingerprints[0])
        assert entry["analyze"] is False


class TestCostAwarePacking:
    """Every publisher stamps each item with its Eq. 5 traffic and
    workers claim longest-first; everything else stays bit-identical."""

    #: Costs differ across these variants: D3Q39 moves 936/456 the
    #: bytes of D3Q19 per cell update, and 4 steps twice 2 steps'.
    GRID = ["--param", "lattice=D3Q19,D3Q39", "--param", "steps=2,4"]
    EQ5_ORDER = [("D3Q39", 4), ("D3Q39", 2), ("D3Q19", 4), ("D3Q19", 2)]

    @staticmethod
    def costed_sweep():
        return Sweep(
            "taylor-green",
            {"lattice": ["D3Q19", "D3Q39"], "steps": [2, 4],
             "shape": [(8, 8, 4)]},
        )

    def test_publish_stamps_eq5_costs_and_orders_claims_lpt(self, tmp_path):
        sweep = self.costed_sweep()
        _, queue = SweepExecutor(sweep, cache_dir=tmp_path).publish()
        costs = [item.cost for item in queue.items]
        assert costs == predict_spec_costs(SweepPlan.of(sweep).specs)
        assert [
            (item.overrides["lattice"], item.overrides["steps"])
            for item in queue.claim_order()
        ] == self.EQ5_ORDER
        # The stamped costs survive the work items' round trip.
        assert [i.cost for i in WorkQueue.load(tmp_path).items] == costs

    def test_equal_costs_claim_in_grid_order(self, tmp_path):
        _, queue = SweepExecutor(make_sweep(), cache_dir=tmp_path).publish()
        assert len({item.cost for item in queue.items}) == 1
        assert queue.claim_order() == queue.items

    def test_any_uncosted_item_disables_the_reordering(self, tmp_path):
        plan = SweepPlan.of(self.costed_sweep())
        queue = WorkQueue.publish(
            tmp_path, plan, analyze=True, costs=[9.0, None, 1.0, 2.0]
        )
        assert queue.claim_order() == queue.items

    def test_misaligned_costs_rejected(self, tmp_path):
        plan = SweepPlan.of(self.costed_sweep())
        with pytest.raises(ScenarioError, match="align"):
            WorkQueue.publish(tmp_path, plan, analyze=True, costs=[1.0])

    def test_jobs2_claims_in_eq5_order_and_prints_the_jobs1_table(
        self, tmp_path, monkeypatch, capsys
    ):
        """Each forked worker logs the variants it runs: every worker
        runs its share in Eq. 5 order, the workers run all of them, and
        the printed table is the --jobs 1 table byte for byte."""
        from repro.scenarios import executor

        log = tmp_path / "runs.log"
        execute = executor._execute_variant

        def logged(task):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {task.fingerprint}\n")
            return execute(task)

        monkeypatch.setattr(executor, "_execute_variant", logged)
        argv = ["sweep", "taylor-green", *self.GRID]
        assert repro_main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        log.unlink()  # the inline runs of --jobs 1
        assert repro_main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

        plan = SweepPlan.of(
            Sweep("taylor-green", {"lattice": ["D3Q19", "D3Q39"],
                                   "steps": [2, 4]})
        )
        rank = {
            fingerprint: self.EQ5_ORDER.index(
                (overrides["lattice"], overrides["steps"])
            )
            for overrides, fingerprint in zip(plan.overrides, plan.fingerprints)
        }
        runs: dict[str, list[int]] = {}
        for line in log.read_text().splitlines():
            pid, fingerprint = line.split()
            runs.setdefault(pid, []).append(rank[fingerprint])
        assert str(os.getpid()) not in runs  # no variant was left inline
        assert sorted(r for ranks in runs.values() for r in ranks) == [0, 1, 2, 3]
        for ranks in runs.values():
            assert ranks == sorted(ranks)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_costed_grid_tables_match_jobs1_and_warm_replay(self, tmp_path, jobs):
        sweep = self.costed_sweep()
        reference = SweepExecutor(sweep, jobs=1).run()
        packed = SweepExecutor(sweep, jobs=jobs, cache_dir=tmp_path).run()
        warm = SweepExecutor(sweep, jobs=jobs, cache_dir=tmp_path).run()
        assert (tmp_path / "queue").is_dir()  # workers ran
        assert packed.to_table() == reference.to_table()
        assert packed.to_csv() == reference.to_csv() == warm.to_csv()
        assert warm.runs_executed == 0


class TestConcurrentPublish:
    def test_concurrent_publishes_never_leave_a_corrupt_queue(self, tmp_path):
        """4 threads x 100 publishes of one plan: each item is created
        once through its own temp file, so no publisher errors and no
        reader ever sees a truncated item."""
        plan = SweepPlan.of(make_sweep())
        errors: list[Exception] = []

        def publisher():
            for _ in range(100):
                try:
                    WorkQueue.publish(tmp_path, plan, analyze=True)
                except (OSError, ScenarioError) as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=publisher) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        queue = WorkQueue.load(tmp_path)
        assert [item.fingerprint for item in queue.items] == plan.fingerprints
        assert not list(tmp_path.rglob("*.tmp"))
