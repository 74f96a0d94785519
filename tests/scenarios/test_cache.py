"""ResultCache/markers/SweepManifest units + warm/corrupt/partial cache behavior."""

import json
import threading

import pytest

from repro.errors import ScenarioError
from repro.scenarios import ResultCache, Sweep, SweepExecutor, SweepManifest
from repro.scenarios import executor as executor_module
from repro.scenarios.cache import SWEEPS_DIRNAME, sweep_key

PAYLOAD = {
    "case": "x",
    "metrics": {"steps_run": 10, "err": 0.125},
    "series": {"step": [0.0, 5.0], "mass": [1.0, 1.0]},
    "checks": {"ok": True},
}


def make_sweep():
    return Sweep(
        "taylor-green", {"tau": [0.6, 0.8], "shape": [(8, 8, 4)]}, steps=10
    )


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("abc123", PAYLOAD)
        assert cache.get("abc123") == PAYLOAD
        assert cache.keys() == ("abc123",)

    def test_missing_entry_is_none(self, tmp_path):
        assert ResultCache(tmp_path).get("nope") is None

    def test_truncated_entry_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("abc123", PAYLOAD)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.get("abc123") is None

    def test_tampered_entry_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("abc123", PAYLOAD)
        envelope = json.loads(path.read_text())
        envelope["data"]["metrics"]["err"] = 99.0  # checksum now stale
        path.write_text(json.dumps(envelope))
        assert cache.get("abc123") is None

    def test_entry_under_wrong_key_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("abc123", PAYLOAD)
        path.rename(tmp_path / "def456.json")
        assert cache.get("def456") is None

    def test_manifest_not_listed_as_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepManifest.create(tmp_path, "x", ["tau"], ["abc123"])
        cache.put("abc123", PAYLOAD)
        assert cache.keys() == ("abc123",)

    def test_corrupt_entry_moved_to_sidecar_and_rewarmable(self, tmp_path):
        from repro.scenarios.cache import CORRUPT_DIRNAME

        cache = ResultCache(tmp_path)
        path = cache.put("abc123", PAYLOAD)
        torn = path.read_text()[:40]
        path.write_text(torn)
        assert cache.lookup("abc123").status == "corrupt"
        # the torn bytes were preserved for post-mortem, not destroyed
        assert not path.exists()
        sidecar = tmp_path / CORRUPT_DIRNAME / path.name
        assert sidecar.read_text() == torn
        # ...and the slot re-warms like any cold fingerprint
        assert cache.lookup("abc123").status == "miss"
        cache.put("abc123", PAYLOAD)
        assert cache.get("abc123") == PAYLOAD
        assert cache.keys() == ("abc123",)  # sidecar dir never listed


class TestSweepManifest:
    def test_create_load_round_trip(self, tmp_path):
        created = SweepManifest.create(tmp_path, "x", ["tau"], ["f1", "f2"])
        created.mark_complete("f1")
        loaded = SweepManifest.load(tmp_path)
        assert loaded.case == "x"
        assert loaded.completed == ["f1"]
        assert loaded.missing() == ["f2"]
        assert not loaded.complete
        assert loaded.key == sweep_key("x", ["f1", "f2"])

    def test_load_absent_or_corrupt_is_none(self, tmp_path):
        assert SweepManifest.load(tmp_path) is None
        (tmp_path / SWEEPS_DIRNAME).mkdir()
        (tmp_path / SWEEPS_DIRNAME / "abc.json").write_text("{not json")
        assert SweepManifest.load(tmp_path) is None
        assert SweepManifest.load(tmp_path, "abc") is None

    def test_resume_needs_this_sweeps_record(self, tmp_path):
        SweepManifest.create(tmp_path, "x", ["tau"], ["f1"])
        with pytest.raises(ScenarioError, match="nothing to resume"):
            SweepManifest.resume(tmp_path, "y", ["tau"], ["f1"])
        assert SweepManifest.resume(tmp_path, "x", ["tau"], ["f1"]).case == "x"

    def test_records_of_many_sweeps_sit_side_by_side(self, tmp_path):
        """The single manifest slot is gone: a later sweep no longer
        replaces an earlier one's record, so both stay resumable."""
        first = SweepManifest.create(tmp_path, "x", ["tau"], ["f1", "f2"])
        SweepManifest.create(tmp_path, "y", ["kn"], ["g1"])
        first.mark_complete("f2")
        resumed = SweepManifest.resume(tmp_path, "x", ["tau"], ["f1", "f2"])
        assert resumed.completed == ["f2"]
        assert resumed.missing() == ["f1"]
        assert [m.case for m in SweepManifest.records(tmp_path)] == ["x", "y"]

    def test_save_is_create_once(self, tmp_path):
        manifest = SweepManifest.create(tmp_path, "x", ["tau"], ["f1"])
        before = manifest.path.read_bytes()
        again = SweepManifest.create(tmp_path, "x", ["tau"], ["f1"])
        assert again.path == manifest.path
        assert manifest.path.read_bytes() == before


class TestMarkers:
    def test_first_marker_keeps_its_attribution(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("abc123", PAYLOAD)
        assert cache.mark_done("abc123", "w1")
        assert not cache.mark_done("abc123", "w2")
        assert cache.committer("abc123") == "w1"
        assert cache.done() == {"abc123"}
        assert cache.keys() == ("abc123",)  # markers are not entries

    def test_corrupt_lookup_drops_the_marker(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("abc123", PAYLOAD)
        cache.mark_done("abc123", "w1")
        path.write_text("{torn")
        assert cache.get("abc123") is None
        assert cache.done() == {"abc123"}  # silent probes change nothing
        assert cache.lookup("abc123").status == "corrupt"
        assert cache.done() == set()

    def test_unusable_entry_read_drops_the_marker(self, tmp_path):
        """A silent read that finds the entry torn, or of the other
        analyze mode, unmarks it so worker drains run it again."""
        cache = ResultCache(tmp_path)
        cache.put("abc123", {**PAYLOAD, "analyze": True})
        cache.mark_done("abc123", "w1")
        assert executor_module.usable_entry(cache, "abc123", True, count=False)
        assert cache.done() == {"abc123"}
        assert executor_module.usable_entry(cache, "abc123", False, count=False) is None
        assert cache.done() == set()
        cache.mark_done("abc123", "w1")
        cache.entry_path("abc123").write_text("{torn")
        assert executor_module.usable_entry(cache, "abc123", True, count=False) is None
        assert cache.done() == set()
        # a plain miss leaves markers alone (no entry to judge)
        cache.mark_done("gone", "w1")
        assert executor_module.usable_entry(cache, "gone", True) is None
        assert "gone" in cache.done()

    def test_legacy_single_slot_files_are_ignored_with_one_warning(
        self, tmp_path, caplog
    ):
        from repro.scenarios.cache import warn_legacy_state

        (tmp_path / "queue.json").write_text("{}")
        (tmp_path / "manifest.json").write_text("{}")
        with caplog.at_level("WARNING", logger="repro.scenarios.cache"):
            SweepExecutor(make_sweep(), jobs=1, cache_dir=tmp_path).run(
                analyze=False
            )
            warn_legacy_state(tmp_path)
        warnings = [r for r in caplog.records if "older release" in r.message]
        assert len(warnings) == 1
        assert "queue.json and manifest.json" in warnings[0].message
        assert "README" in warnings[0].message
        assert (tmp_path / "queue.json").read_text() == "{}"  # never touched
        assert SweepManifest.load(tmp_path).case == "taylor-green"


class TestWarmCacheSweeps:
    def test_warm_cache_executes_zero_runs_same_table(
        self, tmp_path, monkeypatch
    ):
        cold = SweepExecutor(make_sweep(), jobs=1, cache_dir=tmp_path).run(
            analyze=False
        )
        assert cold.runs_executed == 2

        def forbidden(task):  # any execution attempt is a failure
            raise AssertionError("warm cache must not run variants")

        monkeypatch.setattr(executor_module, "_execute_variant", forbidden)
        warm = SweepExecutor(make_sweep(), jobs=1, cache_dir=tmp_path).run(
            analyze=False
        )
        assert warm.runs_executed == 0
        assert warm.provenance == ["cached", "cached"]
        assert warm.to_table() == cold.to_table()
        assert warm.to_csv() == cold.to_csv()

    def test_corrupted_entry_is_rerun(self, tmp_path):
        cold = SweepExecutor(make_sweep(), jobs=1, cache_dir=tmp_path).run(
            analyze=False
        )
        cache = ResultCache(tmp_path)
        victim = cache.keys()[0]
        cache.entry_path(victim).write_text("garbage{{{")
        repaired = SweepExecutor(make_sweep(), jobs=1, cache_dir=tmp_path).run(
            analyze=False
        )
        assert repaired.runs_executed == 1
        assert sorted(repaired.provenance) == ["cached", "run"]
        assert repaired.to_table() == cold.to_table()
        # the re-run rewrote a valid entry
        assert cache.get(victim) is not None

    def test_partial_entry_is_rerun(self, tmp_path):
        cold = SweepExecutor(make_sweep(), jobs=1, cache_dir=tmp_path).run(
            analyze=False
        )
        cache = ResultCache(tmp_path)
        victim = cache.keys()[1]
        path = cache.entry_path(victim)
        path.write_text(path.read_text()[:40])  # simulated torn write
        repaired = SweepExecutor(make_sweep(), jobs=1, cache_dir=tmp_path).run(
            analyze=False
        )
        assert repaired.runs_executed == 1
        assert repaired.to_table() == cold.to_table()

    def test_cache_shared_across_jobs_settings(self, tmp_path):
        SweepExecutor(make_sweep(), jobs=2, cache_dir=tmp_path).run(
            analyze=False
        )
        warm = SweepExecutor(make_sweep(), jobs=1, cache_dir=tmp_path).run(
            analyze=False
        )
        assert warm.runs_executed == 0


class TestConcurrentManifest:
    def make_manifest(self, root):
        return SweepManifest.create(root, "case", ["tau"], ["f1", "f2", "f3"])

    def test_record_completion_merges_concurrent_writers(self, tmp_path):
        """Two in-memory manifests (two workers) over one directory:
        neither erases the other's completions."""
        a = self.make_manifest(tmp_path)
        b = SweepManifest.load(tmp_path)
        a.record_completion("f1", worker="wa")
        b.record_completion("f2", worker="wb")
        merged = SweepManifest.load(tmp_path)
        assert sorted(merged.completed) == ["f1", "f2"]
        assert merged.workers == {"f1": "wa", "f2": "wb"}

    def test_concurrent_completions_never_collide(self, tmp_path):
        """Eight writers completing variants at once (more than this
        host's cores): each completion is its own marker, so none
        raises, the first marker of each variant keeps its worker, and
        no temp file is left behind."""
        self.make_manifest(tmp_path)
        errors = []

        def hammer(fingerprint, worker):
            mine = SweepManifest.load(tmp_path)
            try:
                for _ in range(20):
                    mine.record_completion(fingerprint, worker=worker)
            except OSError as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(f"f{i % 3 + 1}", f"w{i}"))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        merged = SweepManifest.load(tmp_path)
        assert merged.completed == ["f1", "f2", "f3"]
        assert set(merged.workers) == {"f1", "f2", "f3"}
        assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == sorted(
            ["f1", "f2", "f3", f"{merged.key}.json"]
        )

    def test_record_completion_ignores_foreign_manifest(self, tmp_path):
        mine = self.make_manifest(tmp_path)
        SweepManifest.create(tmp_path, "other-case", ["kn"], ["g1"]).save()
        mine.record_completion("f1")
        assert mine.completed == ["f1"]  # no union with the foreign sweep

    def test_workers_map_roundtrips(self, tmp_path):
        manifest = self.make_manifest(tmp_path)
        manifest.record_completion("f3", worker="w9")
        assert SweepManifest.load(tmp_path).workers == {"f3": "w9"}

    def test_inline_completions_are_unattributed(self, tmp_path):
        manifest = self.make_manifest(tmp_path)
        manifest.mark_complete("f2")
        loaded = SweepManifest.load(tmp_path)
        assert loaded.completed == ["f2"]
        assert loaded.workers == {}


class TestCacheDiff:
    def test_identical_caches(self, tmp_path):
        a = ResultCache(tmp_path / "a")
        b = ResultCache(tmp_path / "b")
        a.put("f1", PAYLOAD)
        b.put("f1", PAYLOAD)
        diff = a.diff(b)
        assert diff.identical
        assert diff.matching == ("f1",)
        assert "1 matching" in diff.summary()

    def test_differing_and_one_sided_entries(self, tmp_path):
        a = ResultCache(tmp_path / "a")
        b = ResultCache(tmp_path / "b")
        a.put("shared", PAYLOAD)
        b.put("shared", {**PAYLOAD, "metrics": {"steps_run": 99}})
        a.put("only-a", PAYLOAD)
        b.put("only-b", PAYLOAD)
        diff = a.diff(b)
        assert not diff.identical
        assert diff.differing == ("shared",)
        assert diff.only_self == ("only-a",)
        assert diff.only_other == ("only-b",)

    def test_invalid_entries_count_as_missing(self, tmp_path):
        a = ResultCache(tmp_path / "a")
        b = ResultCache(tmp_path / "b")
        a.put("f1", PAYLOAD)
        b.put("f1", PAYLOAD)
        (b.root / "f1.json").write_text("{torn")
        diff = a.diff(b)
        assert diff.only_self == ("f1",)
        assert a.checksum("f1") is not None
        assert b.checksum("f1") is None


class TestCacheLookup:
    def make_cache(self, tmp_path):
        from repro.telemetry import Telemetry

        return ResultCache(tmp_path, telemetry=Telemetry.in_memory())

    def test_statuses(self, tmp_path):
        cache = self.make_cache(tmp_path)
        assert cache.lookup("absent").status == "miss"
        cache.put("abc123", PAYLOAD)
        found = cache.lookup("abc123")
        assert found.status == "hit" and found.hit
        assert found.payload == PAYLOAD
        cache.entry_path("abc123").write_text("{torn")
        torn = cache.lookup("abc123")
        assert torn.status == "corrupt"
        assert torn.payload is None and not torn.hit

    def test_corrupt_entry_logged_and_counted(self, tmp_path, caplog):
        cache = self.make_cache(tmp_path)
        cache.put("abc123", PAYLOAD)
        path = cache.entry_path("abc123")
        path.write_text("{torn")
        with caplog.at_level("WARNING", logger="repro.scenarios.cache"):
            assert cache.lookup("abc123").status == "corrupt"
        assert "corrupt cache entry" in caplog.text
        t = cache.telemetry
        assert t.counters["cache.corrupt"] == 1
        corrupt = [
            e
            for e in t.events()
            if e["type"] == "count" and e["name"] == "cache.corrupt"
        ]
        assert corrupt[0]["attrs"]["path"] == str(path)

    def test_get_probes_silently_lookup_counts(self, tmp_path):
        cache = self.make_cache(tmp_path)
        assert cache.get("absent") is None
        assert cache.telemetry.counters == {}
        assert cache.lookup("absent").status == "miss"
        cache.put("abc123", PAYLOAD)
        assert cache.lookup("abc123").hit
        assert cache.telemetry.counters == {"cache.miss": 1, "cache.hit": 1}
