"""SweepExecutor: parallel determinism, interruption, exact run counts."""

import dataclasses

import pytest

from repro.errors import ScenarioError
from repro.scenarios import (
    ResultCache,
    Sweep,
    SweepExecutor,
    SweepManifest,
    get_case,
    steady_state,
)
from repro.scenarios import executor as executor_module

TAUS = [0.55, 0.7, 0.8, 0.95]


def make_sweep(taus=TAUS):
    return Sweep(
        "taylor-green", {"tau": list(taus), "shape": [(8, 8, 4)]}, steps=10
    )


class TestDeterminism:
    def test_jobs1_and_jobs4_bit_identical(self, tmp_path):
        """The headline guarantee: sharding across 4 processes changes
        nothing — same tables, same cache keys, same cache bytes."""
        serial = SweepExecutor(
            make_sweep(), jobs=1, cache_dir=tmp_path / "serial"
        ).run(analyze=False)
        parallel = SweepExecutor(
            make_sweep(), jobs=4, cache_dir=tmp_path / "parallel"
        ).run(analyze=False)

        assert serial.to_table() == parallel.to_table()
        assert serial.to_csv() == parallel.to_csv()
        assert serial.fingerprints == parallel.fingerprints

        serial_keys = ResultCache(tmp_path / "serial").keys()
        assert serial_keys == ResultCache(tmp_path / "parallel").keys()
        assert len(serial_keys) == len(TAUS)
        for key in serial_keys:
            assert (tmp_path / "serial" / f"{key}.json").read_bytes() == (
                tmp_path / "parallel" / f"{key}.json"
            ).read_bytes()

    def test_uncached_parallel_matches_serial(self, tmp_path):
        serial = SweepExecutor(make_sweep(TAUS[:2]), jobs=1).run(analyze=False)
        parallel = SweepExecutor(make_sweep(TAUS[:2]), jobs=2).run(analyze=False)
        assert serial.to_table() == parallel.to_table()
        for a, b in zip(serial.results, parallel.results):
            assert a.series == b.series
            assert a.metrics == b.metrics

    def test_timing_metrics_stripped_from_payloads(self, tmp_path):
        result = SweepExecutor(
            make_sweep(TAUS[:2]), jobs=1, cache_dir=tmp_path
        ).run(analyze=False)
        for case_result in result.results:
            assert "mflups" not in case_result.metrics
            assert case_result.metrics["steps_run"] == 10


class TestInterruptionAndResume:
    def test_interrupted_after_2_resumes_with_exactly_2_runs(
        self, tmp_path, monkeypatch
    ):
        """The acceptance scenario: a 4-variant sweep dies after 2
        variants; the resumed sweep executes exactly the missing 2."""
        real = executor_module._execute_variant
        calls = []

        def crashing(task):
            if len(calls) == 2:
                raise RuntimeError("simulated crash")
            calls.append(task.fingerprint)
            return real(task)

        monkeypatch.setattr(executor_module, "_execute_variant", crashing)
        with pytest.raises(RuntimeError, match="simulated crash"):
            SweepExecutor(make_sweep(), jobs=1, cache_dir=tmp_path).run(
                analyze=False
            )
        assert len(ResultCache(tmp_path).keys()) == 2
        manifest = SweepManifest.load(tmp_path)
        assert sorted(manifest.completed) == sorted(calls)
        assert len(manifest.missing()) == 2

        executed = []

        def counting(task):
            executed.append(task.fingerprint)
            return real(task)

        monkeypatch.setattr(executor_module, "_execute_variant", counting)
        result = SweepExecutor(
            make_sweep(), jobs=1, cache_dir=tmp_path, resume=True
        ).run(analyze=False)
        assert len(executed) == 2
        assert sorted(executed) == sorted(manifest.missing())
        assert result.provenance.count("cached") == 2
        assert result.provenance.count("run") == 2
        assert result.runs_executed == 2
        assert SweepManifest.load(tmp_path).complete

    def test_resumed_table_matches_uninterrupted_run(self, tmp_path):
        uninterrupted = SweepExecutor(make_sweep(), jobs=1).run(analyze=False)
        # "Interrupt" by completing only the first two variants.
        SweepExecutor(make_sweep(TAUS[:2]), jobs=1, cache_dir=tmp_path).run(
            analyze=False
        )
        resumed = SweepExecutor(make_sweep(), jobs=2, cache_dir=tmp_path).run(
            analyze=False
        )
        assert resumed.runs_executed == 2
        assert resumed.provenance == ["cached", "cached", "run", "run"]
        assert resumed.to_table() == uninterrupted.to_table()

    def test_resume_without_manifest_errors(self, tmp_path):
        with pytest.raises(ScenarioError, match="nothing to resume"):
            SweepExecutor(
                make_sweep(), jobs=1, cache_dir=tmp_path, resume=True
            ).run(analyze=False)

    def test_resume_of_a_sweep_never_started_here_errors(self, tmp_path):
        SweepExecutor(make_sweep(TAUS[:2]), jobs=1, cache_dir=tmp_path).run(
            analyze=False
        )
        other = Sweep(
            "taylor-green", {"tau": [0.66], "shape": [(8, 8, 4)]}, steps=10
        )
        with pytest.raises(ScenarioError, match="nothing to resume: no record"):
            SweepExecutor(other, jobs=1, cache_dir=tmp_path, resume=True).run(
                analyze=False
            )

    def test_resume_after_another_sweep_ran_in_the_directory(
        self, tmp_path, monkeypatch
    ):
        """Each sweep keeps its own record, so a sweep interrupted
        before a different one ran over the same directory still
        resumes, running only its missing variants."""
        real = executor_module._execute_variant
        calls = []

        def crashing(task):
            if len(calls) == 2:
                raise RuntimeError("simulated crash")
            calls.append(task.fingerprint)
            return real(task)

        monkeypatch.setattr(executor_module, "_execute_variant", crashing)
        with pytest.raises(RuntimeError, match="simulated crash"):
            SweepExecutor(make_sweep(), jobs=1, cache_dir=tmp_path).run(
                analyze=False
            )
        monkeypatch.setattr(executor_module, "_execute_variant", real)
        other = Sweep(
            "taylor-green", {"tau": [0.66], "shape": [(8, 8, 4)]}, steps=10
        )
        SweepExecutor(other, jobs=1, cache_dir=tmp_path).run(analyze=False)
        resumed = SweepExecutor(
            make_sweep(), jobs=1, cache_dir=tmp_path, resume=True
        ).run(analyze=False)
        assert resumed.provenance.count("cached") == 2
        assert resumed.runs_executed == 2
        assert resumed.to_table() == SweepExecutor(make_sweep()).run(
            analyze=False
        ).to_table()

    def test_resume_requires_cache_dir(self):
        with pytest.raises(ScenarioError, match="cache directory"):
            SweepExecutor(make_sweep(), resume=True)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ScenarioError, match="jobs"):
            SweepExecutor(make_sweep(), jobs=0)


class TestCaseRefPortability:
    def test_registered_spec_object_pools_fine(self):
        """A registered spec object resolves to its registry name, so
        closure-valued fields (steady_state stops) don't hit pickle."""
        spec = get_case("poiseuille-channel")
        assert spec.stop_when is not None  # the hazardous field
        sweep = Sweep(spec, {"tau": [0.9, 1.0]}, steps=10)
        result = SweepExecutor(sweep, jobs=2).run(analyze=False)
        assert result.runs_executed == 2
        assert [r.metrics["steps_run"] for r in result.results] == [10, 10]

    def test_unpicklable_spec_falls_back_to_serial(self, tmp_path):
        """An unregistered spec holding a closure can't be published for
        workers; jobs>1 silently degrades to the inline path."""
        spec = dataclasses.replace(
            get_case("taylor-green"),
            name="tg-unregistered",
            stop_when=steady_state(lambda sim: 0.0),
        )
        sweep = Sweep(spec, {"tau": [0.6, 0.8], "shape": [(8, 8, 4)]}, steps=10)
        result = SweepExecutor(sweep, jobs=2, cache_dir=tmp_path).run(
            analyze=False
        )
        assert result.provenance == ["run", "run"]
        assert not (tmp_path / "queue").exists()

    def test_unpicklable_override_value_falls_back_to_serial(self, tmp_path):
        """Closure-valued sweep *parameters* must not crash the worker
        path; they degrade to inline just like closure-bearing specs."""
        sweep = Sweep(
            "taylor-green",
            {
                "profile": [lambda x: x, lambda x: 2 * x],
                "shape": [(8, 8, 4)],
            },
            steps=10,
        )
        result = SweepExecutor(sweep, jobs=4, cache_dir=tmp_path).run(
            analyze=False
        )
        assert result.provenance == ["run", "run"]
        assert not (tmp_path / "queue").exists()
        assert [r.metrics["steps_run"] for r in result.results] == [10, 10]


class TestLeaseWorkers:
    def test_serial_sweep_starts_and_publishes_nothing(
        self, tmp_path, monkeypatch
    ):
        """jobs=1, cold and warm — the path the sweep-session benchmark
        times — starts no process, prices no variant and writes no work
        order or lease."""
        import multiprocessing

        from repro.scenarios import scheduler

        def forbidden(*args, **kwargs):
            raise AssertionError("the serial path must not get here")

        monkeypatch.setattr(multiprocessing.Process, "start", forbidden)
        monkeypatch.setattr(scheduler, "predict_spec_costs", forbidden)
        for runs in (len(TAUS), 0):
            result = SweepExecutor(make_sweep(), jobs=1, cache_dir=tmp_path).run(
                analyze=False
            )
            assert result.runs_executed == runs
            assert not (tmp_path / "queue").exists()
            assert not (tmp_path / "leases").exists()

    def test_variants_dead_workers_left_run_inline(self, tmp_path, monkeypatch):
        from repro.scenarios import workers

        monkeypatch.setattr(workers, "run_worker", lambda *a, **kw: None)
        result = SweepExecutor(make_sweep(), jobs=2, cache_dir=tmp_path).run(
            analyze=False
        )
        assert (tmp_path / "queue").is_dir()  # workers were started
        assert result.provenance == ["run"] * len(TAUS)
        serial = SweepExecutor(make_sweep(), jobs=1).run(analyze=False)
        assert result.to_table() == serial.to_table()
        manifest = SweepManifest.load(tmp_path)
        assert sorted(manifest.completed) == sorted(result.fingerprints)

    def test_inline_commits_keep_worker_completions(self, tmp_path, monkeypatch):
        """One worker runs one variant and stops, leaving the rest
        inline; the driver reloads the manifest before committing, so
        its saves keep that worker's completion and attribution."""
        from repro.scenarios import workers

        real = workers.run_worker

        def one_variant_from_w1(root, *, worker_id, **kw):
            if worker_id == "w1":
                real(root, worker_id=worker_id, max_variants=1, **kw)

        monkeypatch.setattr(workers, "run_worker", one_variant_from_w1)
        result = SweepExecutor(make_sweep(), jobs=2, cache_dir=tmp_path).run(
            analyze=False
        )
        assert result.provenance == ["run"] * len(TAUS)
        manifest = SweepManifest.load(tmp_path)
        assert sorted(manifest.completed) == sorted(result.fingerprints)
        assert list(manifest.workers.values()) == ["w1"]


class TestAnalyzeFlagCaching:
    def test_analyze_false_entries_not_served_to_analyze_true(self, tmp_path):
        """Regression: a smoke sweep (analyze=False) must not poison
        the cache with vacuously-passing, metric-less payloads."""
        sweep = Sweep("taylor-green", {"tau": [0.7]}, steps=40)
        smoke = SweepExecutor(sweep, jobs=1, cache_dir=tmp_path).run(
            analyze=False
        )
        assert smoke.results[0].checks == {}
        full = SweepExecutor(sweep, jobs=1, cache_dir=tmp_path).run(
            analyze=True
        )
        assert full.runs_executed == 1  # cache miss: analyze differs
        assert "decay_error" in full.results[0].metrics
        assert full.results[0].checks  # real verdicts, not vacuous PASS
        # and the analyze=True entry now serves analyze=True warm runs
        warm = SweepExecutor(sweep, jobs=1, cache_dir=tmp_path).run(
            analyze=True
        )
        assert warm.runs_executed == 0


class TestSweepRunDelegation:
    def test_sweep_run_routes_to_executor(self, tmp_path):
        result = make_sweep(TAUS[:2]).run(
            analyze=False, jobs=2, cache_dir=tmp_path
        )
        assert result.provenance == ["run", "run"]
        assert result.runs_executed == 2
        # Lean results: scalar outcomes only, no simulation attached.
        assert all(r.simulation is None for r in result.results)

    def test_default_run_is_lean(self):
        """Sweep.run() always goes through the executor: the same lean
        rows as every CLI sweep, never a wall-clock column."""
        result = make_sweep(TAUS[:2]).run(analyze=False)
        assert result.provenance == ["run", "run"]
        assert all(r.simulation is None for r in result.results)
        assert all("mflups" not in r.metrics for r in result.results)
        assert result.to_table() == SweepExecutor(
            make_sweep(TAUS[:2])
        ).run(analyze=False).to_table()
