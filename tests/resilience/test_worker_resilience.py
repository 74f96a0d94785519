"""Fleet fault tolerance end to end: retries, quarantine, crash recovery.

Every scenario here runs under a deterministic :class:`FaultPlan`, so
the assertions can be byte-for-byte: surviving variants must produce
tables and cache entries identical to a fault-free run, and a poisoned
variant must surface as an explicit FAILED row instead of hanging the
sweep or killing workers.
"""

import json
import multiprocessing
import os

from repro.resilience import FAULT_PLAN_ENV, FailureLedger
from repro.scenarios import (
    ResultCache,
    Sweep,
    SweepExecutor,
    SweepManifest,
    run_worker,
)
from repro.scenarios.cache import CORRUPT_DIRNAME
from repro.scenarios.scheduler import sweep_status

TAUS = [0.6, 0.7, 0.8]


def make_sweep(taus=TAUS):
    return Sweep(
        "taylor-green", {"tau": list(taus), "shape": [(8, 8, 4)]}, steps=8
    )


def publish(root, sweep=None):
    return SweepExecutor(sweep or make_sweep(), cache_dir=root).publish()[0]


def merge(root):
    """The serial driver's merge of what the fleet left under ``root``."""
    return SweepExecutor(make_sweep(), cache_dir=root).run()


def clean_reference(root):
    """A fault-free run of the same sweep into its own cache dir."""
    return SweepExecutor(make_sweep(), jobs=1, cache_dir=root).run()


def assert_only_failed_row_differs(chaos, clean):
    chaos_lines = chaos.to_table().splitlines()
    clean_lines = clean.to_table().splitlines()
    assert len(chaos_lines) == len(clean_lines)
    diff = [(a, b) for a, b in zip(clean_lines, chaos_lines) if a != b]
    assert len(diff) == 1  # exactly the poisoned row changed
    assert "FAILED" in diff[0][1]


def write_plan(path, *faults):
    path.write_text(json.dumps({"version": 1, "faults": list(faults)}))
    return path


def _crashing_worker(cache_dir, plan_path):
    """Child-process entry: arm the fault plan, run until the crash."""
    os.environ[FAULT_PLAN_ENV] = str(plan_path)
    try:
        run_worker(cache_dir, worker_id="victim", lease_ttl=60.0)
    except BaseException:
        os._exit(1)
    os._exit(0)


def run_crasher(tmp_path, plan_path):
    child = multiprocessing.Process(
        target=_crashing_worker, args=(str(tmp_path), str(plan_path))
    )
    child.start()
    child.join(timeout=120)
    assert child.exitcode == 137  # died inside the injected crash
    return child


class TestPoisonQuarantine:
    def poison_plan(self, tmp_path):
        # index 0 raises on *every* attempt: a genuinely poisoned variant
        return write_plan(
            tmp_path / "plan.json",
            {
                "id": "poison",
                "action": "raise",
                "site": "run",
                "index": 0,
                "times": None,
                "message": "injected divergence",
            },
        )

    def test_worker_survives_retries_and_quarantines(
        self, tmp_path, monkeypatch
    ):
        plan = publish(tmp_path)
        monkeypatch.setenv(FAULT_PLAN_ENV, str(self.poison_plan(tmp_path)))
        report = run_worker(
            tmp_path, worker_id="w1", max_attempts=2, retry_backoff=0.0
        )
        victim = plan.fingerprints[0]
        # the exception never killed the worker: the healthy variants ran
        assert sorted(report.completed) == sorted(plan.fingerprints[1:])
        assert report.failed == [victim, victim]
        assert report.quarantined == [victim]
        assert "2 failed attempt(s)" in report.summary()
        assert "1 quarantined" in report.summary()

        ledger = FailureLedger(tmp_path)
        record = ledger.record(victim)
        assert record.quarantined and record.attempt_count == 2
        assert record.last.exception == "InjectedFault"
        assert "injected divergence" in record.last.message

        # the whole fleet skips a quarantined variant — instantly
        late = run_worker(
            tmp_path, worker_id="w2", max_attempts=2, retry_backoff=0.0
        )
        assert late.completed == [] and late.failed == []
        assert ledger.record(victim).attempt_count == 2

    def test_merge_renders_failed_row_others_byte_identical(
        self, tmp_path, monkeypatch
    ):
        publish(tmp_path / "chaos")
        monkeypatch.setenv(
            FAULT_PLAN_ENV, str(self.poison_plan(tmp_path / "chaos"))
        )
        run_worker(
            tmp_path / "chaos",
            worker_id="w1",
            max_attempts=2,
            retry_backoff=0.0,
        )
        monkeypatch.delenv(FAULT_PLAN_ENV)
        merged = merge(tmp_path / "chaos")
        assert merged.failed_count == 1
        assert merged.provenance[0] == "failed"
        assert not merged.results[0].passed

        assert_only_failed_row_differs(
            merged, clean_reference(tmp_path / "clean")
        )

    def test_jobs_sweep_quarantines_into_one_failed_row(
        self, tmp_path, monkeypatch
    ):
        """jobs=2 takes the fleet's failure policy: the poisoned variant
        is retried, then quarantined into the one FAILED row, where a
        process pool aborted the whole sweep."""
        monkeypatch.setenv(FAULT_PLAN_ENV, str(self.poison_plan(tmp_path)))
        chaos = tmp_path / "chaos"
        merged = SweepExecutor(
            make_sweep(), jobs=2, cache_dir=chaos, max_attempts=2
        ).run()
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert merged.provenance == ["failed", "run", "run"]
        record = FailureLedger(chaos).record(merged.fingerprints[0])
        assert record.quarantined and record.attempt_count == 2
        assert_only_failed_row_differs(
            merged, clean_reference(tmp_path / "clean")
        )

    def test_status_and_fleet_surface_quarantine(self, tmp_path, monkeypatch):
        plan = publish(tmp_path)
        monkeypatch.setenv(FAULT_PLAN_ENV, str(self.poison_plan(tmp_path)))
        run_worker(
            tmp_path,
            worker_id="w1",
            max_attempts=1,
            retry_backoff=0.0,
            telemetry_dir=tmp_path / "telemetry",
        )
        status = sweep_status(tmp_path)
        victim = plan.fingerprints[0]
        assert [r.fingerprint for r in status.quarantined] == [victim]
        assert status.failing == ()
        payload = status.to_payload()
        quarantined = payload["failures"]["quarantined"]
        assert len(quarantined) == 1
        assert quarantined[0]["fingerprint"] == victim
        assert quarantined[0]["attempts"][0]["exception"] == "InjectedFault"
        assert "quarantined: 1 variant(s) FAILED" in status.summary()
        # telemetry rollup (the GET /v1/fleet body) counts the events
        assert status.telemetry.failed == 1
        assert status.telemetry.quarantined == 1
        assert "1 quarantined" in "\n".join(status.telemetry.summary_lines())


class TestTransientRetry:
    def test_one_transient_failure_retries_to_a_clean_table(
        self, tmp_path, monkeypatch
    ):
        plan = publish(tmp_path / "chaos")
        plan_path = write_plan(
            tmp_path / "plan.json",
            {"id": "flake", "action": "raise", "site": "run", "index": 1,
             "times": 1},
        )
        monkeypatch.setenv(FAULT_PLAN_ENV, str(plan_path))
        report = run_worker(
            tmp_path / "chaos", worker_id="w1", retry_backoff=0.0
        )
        flaky = plan.fingerprints[1]
        assert report.failed == [flaky]
        assert report.quarantined == []
        assert sorted(report.completed) == sorted(plan.fingerprints)
        # success cleared the ledger record
        assert FailureLedger(tmp_path / "chaos").load() == {}

        monkeypatch.delenv(FAULT_PLAN_ENV)
        merged = merge(tmp_path / "chaos")
        reference = clean_reference(tmp_path / "clean")
        assert merged.to_table() == reference.to_table()
        assert merged.to_csv() == reference.to_csv()


class TestCrashRecovery:
    def test_crash_before_run_is_reclaimed_byte_identical(self, tmp_path):
        """Acceptance: worker 1 crashes on its first variant; worker 2
        reclaims the stale lease and the final table matches a
        fault-free sweep byte for byte."""
        chaos = tmp_path / "chaos"
        plan = publish(chaos)
        plan_path = write_plan(
            tmp_path / "plan.json",
            {"id": "die", "action": "crash", "site": "run", "index": 0,
             "times": 1},
        )
        run_crasher(chaos, plan_path)
        victim = plan.fingerprints[0]
        assert ResultCache(chaos).get(victim) is None  # died before commit

        rescuer = run_worker(chaos, worker_id="rescuer", wait=True)
        assert victim in rescuer.reclaimed
        assert sorted(rescuer.completed) == sorted(plan.fingerprints)

        merged = merge(chaos)
        reference = clean_reference(tmp_path / "clean")
        assert merged.to_table() == reference.to_table()
        assert merged.to_csv() == reference.to_csv()

    def test_crash_mid_commit_leaves_one_completion(self, tmp_path):
        """Crash *after* the cache write but before the lease release:
        the reclaiming worker must adopt the orphaned entry (no re-run,
        byte-identical bytes) and the manifest must record exactly one
        completion for the variant."""
        chaos = tmp_path / "chaos"
        plan = publish(chaos)
        plan_path = write_plan(
            tmp_path / "plan.json",
            {"id": "die-commit", "action": "crash", "site": "commit",
             "index": 0, "times": 1},
        )
        run_crasher(chaos, plan_path)
        victim = plan.fingerprints[0]
        cache = ResultCache(chaos)
        orphaned = cache.entry_path(victim).read_bytes()  # commit landed
        manifest = SweepManifest.load(chaos)
        assert victim not in manifest.completed  # ...but unrecorded

        rescuer = run_worker(chaos, worker_id="rescuer", wait=True)
        assert victim not in rescuer.completed  # adopted, not re-run
        assert cache.entry_path(victim).read_bytes() == orphaned

        manifest = SweepManifest.load(chaos)
        assert manifest.completed.count(victim) == 1
        assert manifest.workers[victim] == "rescuer"

        merged = merge(chaos)
        reference = clean_reference(tmp_path / "clean")
        assert merged.to_table() == reference.to_table()
        entry = ResultCache(tmp_path / "clean").entry_path(victim)
        assert entry.read_bytes() == orphaned  # byte-identical to clean


class TestCorruptWriteRecovery:
    def test_torn_commit_is_quarantined_and_rewarmed(
        self, tmp_path, monkeypatch
    ):
        chaos = tmp_path / "chaos"
        plan = publish(chaos)
        plan_path = write_plan(
            tmp_path / "plan.json",
            {"id": "torn", "action": "corrupt-write", "site": "commit",
             "index": 2, "times": 1},
        )
        monkeypatch.setenv(FAULT_PLAN_ENV, str(plan_path))
        run_worker(chaos, worker_id="w1", retry_backoff=0.0)
        monkeypatch.delenv(FAULT_PLAN_ENV)

        victim = plan.fingerprints[2]
        cache = ResultCache(chaos)
        assert cache.get(victim) is not None  # re-warmed with a valid entry
        sidecar = list((chaos / CORRUPT_DIRNAME).iterdir())
        assert len(sidecar) == 1  # the torn bytes were preserved, not lost
        assert sidecar[0].name == cache.entry_path(victim).name

        merged = merge(chaos)
        reference = clean_reference(tmp_path / "clean")
        assert merged.to_table() == reference.to_table()
        assert merged.to_csv() == reference.to_csv()


class TestIdleTimeout:
    def test_follow_worker_exits_after_idle_timeout(self, tmp_path):
        plan = publish(tmp_path)
        run_worker(tmp_path, worker_id="w1")  # drain the sweep
        follower = run_worker(
            tmp_path,
            worker_id="tail",
            follow=True,
            poll=0.05,
            idle_timeout=0.2,
        )
        assert follower.completed == []
        assert follower.already_cached == len(plan.fingerprints)
