"""Fleet telemetry: concurrent multi-worker sweeps merge without loss,
worker reports carry telemetry-sourced fields, heartbeats are emitted,
and sweep-status renders the rollup."""

import math
import time

import pytest

from repro.scenarios import Sweep, SweepExecutor, sweep_status
from repro.scenarios.scheduler import LeaseBoard
from repro.scenarios.workers import lease_heartbeat, run_worker
from repro.telemetry import Telemetry, load_run


def make_sweep(taus=(0.6, 0.7, 0.8)):
    return Sweep("taylor-green", {"tau": list(taus)}, steps=10)


class TestMultiWorkerMerge:
    def test_two_worker_sweep_merges_without_loss(self, tmp_path):
        telemetry_dir = tmp_path / "telemetry"
        result = SweepExecutor(
            make_sweep(), jobs=2, cache_dir=tmp_path, telemetry_dir=telemetry_dir
        ).run()
        assert result.passed

        aggregate = load_run(tmp_path)
        # the driver's own file (its cache probes) plus one exclusively
        # owned file per launched worker, no torn lines
        assert len(aggregate.files) == 3
        assert aggregate.dropped == 0
        # every variant executed exactly once, fleet-wide
        counters = aggregate.counters
        assert counters["variant.completed"] == 3
        spans = aggregate.variant_spans()
        assert len(spans) == 3
        assert {s["attrs"]["fingerprint"] for s in spans} == set(
            result.fingerprints
        )
        # span attrs and counters describe the same work
        updates = sum(
            s["attrs"]["steps"] * s["attrs"]["cells"] for s in spans
        )
        assert counters["variant.updates"] == updates
        stats = aggregate.worker_stats()
        assert sum(w.variants for w in stats.values()) == 3
        assert set(stats) <= {"w1", "w2"}

    def test_executor_pool_children_write_own_files(self, tmp_path):
        telemetry_dir = tmp_path / "telemetry"
        result = SweepExecutor(
            make_sweep(),
            jobs=2,
            cache_dir=tmp_path,
            telemetry_dir=telemetry_dir,
        ).run(analyze=False)
        assert result.runs_executed == 3
        aggregate = load_run(tmp_path)
        assert aggregate.dropped == 0
        assert aggregate.counters["variant.completed"] == 3
        # workers forked from the driver must not share its file
        assert len(aggregate.files) >= 2

    def test_warm_executor_counts_cached_variants(self, tmp_path):
        telemetry_dir = tmp_path / "telemetry"
        SweepExecutor(make_sweep(), cache_dir=tmp_path).run(analyze=False)
        warm = SweepExecutor(
            make_sweep(),
            cache_dir=tmp_path,
            telemetry_dir=telemetry_dir,
        ).run(analyze=False)
        assert warm.runs_executed == 0
        aggregate = load_run(tmp_path)
        assert aggregate.counters["variant.cached"] == 3
        assert aggregate.counters["cache.hit"] == 3
        assert aggregate.cache_hit_rate() == 1.0


class TestFleetHitRate:
    """Each variant counts once, fleet-wide: as the cache hit of whoever
    found it unmarked, or as the completion of whoever ran it."""

    def test_partly_warm_two_job_sweep_reads_true_rate(self, tmp_path):
        from repro import api

        api.run_sweep("taylor-green", {"tau": [0.6, 0.7]}, steps=3, cache_dir=tmp_path)
        api.run_sweep(
            "taylor-green",
            {"tau": [0.6, 0.7, 0.8, 0.9]},
            steps=3,
            jobs=2,
            telemetry=True,
            cache_dir=tmp_path,
        )
        counters = load_run(tmp_path).counters
        assert counters["variant.cached"] == 2
        assert counters["variant.completed"] == 2
        assert api.sweep_status(tmp_path).telemetry.cache_hit_rate == 0.5

    def test_worker_over_fully_marked_directory_counts_no_hit(self, tmp_path):
        SweepExecutor(make_sweep(), cache_dir=tmp_path).run(analyze=False)
        SweepExecutor(make_sweep(), cache_dir=tmp_path).publish(analyze=False)
        report = run_worker(
            tmp_path, worker_id="w1", telemetry_dir=tmp_path / "telemetry"
        )
        assert report.completed == []
        assert report.already_cached == 3
        assert report.cache_hits == 0

    def test_worker_counts_the_entries_it_adopts(self, tmp_path):
        from repro import api

        for tau in (0.6, 0.7):  # entries without done/ markers
            api.run_case("taylor-green", steps=10, overrides={"tau": tau},
                         cache_dir=tmp_path)
        SweepExecutor(make_sweep(), cache_dir=tmp_path).publish()
        telemetry_dir = tmp_path / "telemetry"
        first = run_worker(tmp_path, worker_id="w1", telemetry_dir=telemetry_dir)
        assert len(first.completed) == 1
        assert first.cache_hits == 2
        second = run_worker(tmp_path, worker_id="w2", telemetry_dir=telemetry_dir)
        assert second.cache_hits == 0
        assert load_run(tmp_path).cache_hit_rate() == pytest.approx(2 / 3)


class TestWorkerReport:
    def test_report_fields_sourced_from_telemetry(self, tmp_path):
        SweepExecutor(make_sweep(), cache_dir=tmp_path).publish()
        telemetry_dir = tmp_path / "telemetry"

        first = run_worker(
            tmp_path, worker_id="w1", telemetry_dir=telemetry_dir
        )
        assert len(first.completed) == 3
        assert first.cache_hits == 0
        assert first.mflups > 0
        assert "MFLUP/s" in first.summary()

        # w1's runs are counted once, as w1's completions: w2 finds
        # them marked, adopts nothing and so counts no cache hit.
        second = run_worker(
            tmp_path, worker_id="w2", telemetry_dir=telemetry_dir
        )
        assert second.completed == []
        assert second.already_cached == 3
        assert second.cache_hits == 0
        assert math.isnan(second.mflups)
        assert "cache hit" not in second.summary()

    def test_report_defaults_without_recorder(self, tmp_path):
        SweepExecutor(make_sweep((0.7,)), cache_dir=tmp_path).publish()
        report = run_worker(tmp_path, worker_id="w1")
        assert report.cache_hits == 0
        assert math.isnan(report.mflups)
        assert "cache hit" not in report.summary()
        assert "MFLUP/s" not in report.summary()


class TestHeartbeat:
    def test_heartbeat_emits_events(self, tmp_path):
        board = LeaseBoard(tmp_path, owner="w1", ttl=0.2)
        assert board.acquire("fp123")
        recorder = Telemetry.in_memory(process="w1")
        try:
            with lease_heartbeat(board, "fp123", recorder):
                time.sleep(0.18)  # ttl/4 = 50 ms -> a few beats
        finally:
            board.release("fp123")
        beats = [
            e for e in recorder.events() if e["name"] == "worker.heartbeat"
        ]
        assert beats
        assert beats[0]["attrs"] == {"worker": "w1", "fingerprint": "fp123"}

    def test_heartbeat_defaults_to_silent(self, tmp_path):
        board = LeaseBoard(tmp_path, owner="w1", ttl=0.2)
        assert board.acquire("fp123")
        try:
            with lease_heartbeat(board, "fp123"):
                time.sleep(0.12)
        finally:
            board.release("fp123")  # no recorder, no error


class TestStatusRollup:
    def test_status_includes_telemetry_lines(self, tmp_path):
        SweepExecutor(
            make_sweep(), jobs=2, cache_dir=tmp_path,
            telemetry_dir=tmp_path / "telemetry",
        ).run()
        status = sweep_status(tmp_path)
        assert status.telemetry is not None
        assert status.telemetry.events > 0
        assert status.to_payload()["telemetry"]["events"] > 0
        summary = status.summary()
        assert "telemetry:" in summary
        assert "cache hit rate" in summary
        assert "MFLUP/s" in summary

    def test_status_without_telemetry_stays_bare(self, tmp_path):
        SweepExecutor(make_sweep((0.7,)), cache_dir=tmp_path).run(
            analyze=False
        )
        status = sweep_status(tmp_path)
        assert status.telemetry is None
        assert status.to_payload()["telemetry"] is None
        assert "telemetry:" not in status.summary()


@pytest.mark.parametrize("jobs", [1, 2])
def test_telemetry_never_changes_the_table(tmp_path, jobs):
    """Observation is not perturbation at the sweep level either: the
    data columns are byte-identical with and without telemetry."""
    plain = SweepExecutor(make_sweep(), cache_dir=tmp_path / "a").run(
        analyze=False
    )
    instrumented = SweepExecutor(
        make_sweep(),
        jobs=jobs,
        cache_dir=tmp_path / "b",
        telemetry_dir=tmp_path / "b" / "telemetry",
    ).run(analyze=False)
    assert instrumented.to_table() == plain.to_table()
    assert instrumented.to_csv() == plain.to_csv()
