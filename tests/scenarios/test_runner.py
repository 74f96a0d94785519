"""CaseRunner: series recording, stopping criteria, checkpoint/restart."""

import tracemalloc

import numpy as np
import pytest

from repro.core import total_mass
from repro.errors import ScenarioError
from repro.scenarios import CaseRunner, CaseSpec, run_case, steady_state

FAST_TG = dict(shape=(8, 8, 4), steps=20, monitor_every=5)


class TestRun:
    def test_records_series_rows(self):
        result = CaseRunner("taylor-green", **FAST_TG).run(analyze=False)
        # initial row + one per monitor chunk
        assert result.series["step"] == [0.0, 5.0, 10.0, 15.0, 20.0]
        for name in ("total_mass", "kinetic_energy", "max_speed"):
            assert len(result.series[name]) == 5
        assert result.metrics["steps_run"] == 20

    def test_analysis_and_checks_hooks(self):
        result = run_case("taylor-green", steps=100, shape=(16, 16, 4))
        assert "decay_error" in result.metrics
        assert result.checks["decay_matches_viscous_theory"]
        assert result.passed

    def test_run_case_shortcut_matches_runner(self):
        a = run_case("taylor-green", analyze=False, **FAST_TG)
        b = CaseRunner("taylor-green", **FAST_TG).run(analyze=False)
        np.testing.assert_array_equal(a.simulation.f, b.simulation.f)

    def test_steady_state_stop(self):
        spec = CaseSpec(
            name="rest",
            title="fluid at rest never changes",
            shape=(4, 4, 4),
            steps=1000,
            monitor_every=5,
            stop_when=steady_state(lambda sim: total_mass(sim.f)),
            observables={"total_mass": lambda sim: total_mass(sim.f)},
        )
        result = CaseRunner(spec).run(analyze=False)
        # converged at the second monitor point, far before 1000 steps
        assert result.simulation.time_step == 10

    def test_stop_condition_state_not_shared_between_runs(self):
        spec = CaseSpec(
            name="rest2",
            title="t",
            shape=(4, 4, 4),
            steps=40,
            monitor_every=5,
            stop_when=steady_state(lambda sim: total_mass(sim.f)),
        )
        first = CaseRunner(spec).run(analyze=False)
        second = CaseRunner(spec).run(analyze=False)
        assert first.simulation.time_step == second.simulation.time_step == 10


class TestCheckpointRestart:
    def test_bit_identical_restart(self, tmp_path):
        path = tmp_path / "tg.npz"
        ref = CaseRunner("taylor-green", **FAST_TG).run(analyze=False)
        CaseRunner("taylor-green", shape=(8, 8, 4), steps=10).run(
            checkpoint=path, analyze=False
        )
        resumed = CaseRunner("taylor-green", **FAST_TG).run(
            resume=path, analyze=False
        )
        assert resumed.simulation.time_step == 20
        np.testing.assert_array_equal(ref.simulation.f, resumed.simulation.f)

    def test_bit_identical_with_boundaries_and_forcing(self, tmp_path):
        """Restart rebuilds walls/forcing from the spec, bit-exactly."""
        path = tmp_path / "clog.npz"
        overrides = dict(shape=(10, 9, 9), steps=16, monitor_every=4)
        ref = CaseRunner("microfluidic-clogging", **overrides).run(analyze=False)
        CaseRunner("microfluidic-clogging", shape=(10, 9, 9), steps=8).run(
            checkpoint=path, analyze=False
        )
        resumed = CaseRunner("microfluidic-clogging", **overrides).run(
            resume=path, analyze=False
        )
        np.testing.assert_array_equal(ref.simulation.f, resumed.simulation.f)

    def test_periodic_checkpointing_writes_resumable_state(self, tmp_path):
        path = tmp_path / "periodic.npz"
        CaseRunner("taylor-green", shape=(8, 8, 4), steps=13, monitor_every=5).run(
            checkpoint=path, checkpoint_every=5, analyze=False
        )
        resumed = CaseRunner("taylor-green", **FAST_TG).run(
            resume=path, analyze=False
        )
        assert resumed.simulation.time_step == 20

    def test_checkpoint_every_not_aliased_by_monitor_every(
        self, tmp_path, monkeypatch
    ):
        """Periodic saves fire on elapsed steps, not step-count multiples."""
        saved = []
        original = CaseRunner.save

        def recording_save(self, path, sim, series=None):
            saved.append(sim.time_step)
            return original(self, path, sim, series=series)

        monkeypatch.setattr(CaseRunner, "save", recording_save)
        CaseRunner("taylor-green", shape=(8, 8, 4), steps=26, monitor_every=4).run(
            checkpoint=tmp_path / "c.npz", checkpoint_every=6, analyze=False
        )
        # monitor points at 4,8,...,24,26; saves once >=6 steps have
        # elapsed since the last one, plus the final save
        assert saved == [8, 16, 24, 26]

    def test_resume_restores_series_history(self, tmp_path):
        """A resumed run carries the pre-checkpoint observable rows, so
        its full series is bit-identical to an uninterrupted run's."""
        path = tmp_path / "tg.npz"
        ref = CaseRunner("taylor-green", **FAST_TG).run(analyze=False)
        CaseRunner("taylor-green", shape=(8, 8, 4), steps=10, monitor_every=5).run(
            checkpoint=path, analyze=False
        )
        resumed = CaseRunner("taylor-green", **FAST_TG).run(
            resume=path, analyze=False
        )
        assert resumed.series == ref.series

    def test_resume_from_periodic_checkpoint_keeps_history(self, tmp_path):
        path = tmp_path / "periodic.npz"
        ref = CaseRunner("taylor-green", **FAST_TG).run(analyze=False)
        # Periodic saves at 5 and 10, final save at 13.
        CaseRunner("taylor-green", shape=(8, 8, 4), steps=13, monitor_every=5).run(
            checkpoint=path, checkpoint_every=5, analyze=False
        )
        from repro.core.io import load_checkpoint_data

        assert load_checkpoint_data(path).time_step == 13
        resumed = CaseRunner("taylor-green", **FAST_TG).run(
            resume=path, analyze=False
        )
        assert resumed.series["step"] == [0.0, 5.0, 10.0, 13.0, 18.0, 20.0]
        for name, values in ref.series.items():
            assert values[:3] == resumed.series[name][:3]

    def test_resume_from_pre_series_checkpoint_still_works(self, tmp_path):
        """Checkpoints written before series support resume fine; the
        series just starts at the checkpoint step."""
        from repro.core.io import save_checkpoint

        path = tmp_path / "old.npz"
        runner = CaseRunner("taylor-green", shape=(8, 8, 4), steps=10)
        result = runner.run(analyze=False)
        save_checkpoint(path, result.simulation, extra={"case": "taylor-green"})
        resumed = CaseRunner("taylor-green", **FAST_TG).run(
            resume=path, analyze=False
        )
        assert resumed.series["step"] == [10.0, 15.0, 20.0]

    def test_wrong_case_rejected(self, tmp_path):
        path = tmp_path / "tg.npz"
        CaseRunner("taylor-green", shape=(8, 8, 4), steps=5).run(
            checkpoint=path, analyze=False
        )
        with pytest.raises(ScenarioError, match="written by case"):
            CaseRunner("porous-darcy").run(resume=path, analyze=False)

    def test_checkpoint_beyond_case_steps_rejected(self, tmp_path):
        path = tmp_path / "tg.npz"
        CaseRunner("taylor-green", shape=(8, 8, 4), steps=30).run(
            checkpoint=path, analyze=False
        )
        with pytest.raises(ScenarioError, match="beyond"):
            CaseRunner("taylor-green", **FAST_TG).run(resume=path, analyze=False)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "tg.npz"
        CaseRunner("taylor-green", shape=(8, 8, 4), steps=5).run(
            checkpoint=path, analyze=False
        )
        with pytest.raises(ScenarioError, match="shape"):
            CaseRunner("taylor-green", shape=(16, 16, 4), steps=20).run(
                resume=path, analyze=False
            )


class TestBuild:
    def test_initializes_from_spec_initial(self):
        sim, _ = CaseRunner("taylor-green", shape=(8, 8, 4)).build()
        assert sim.time_step == 0
        assert np.isfinite(sim.f).all()
        # Taylor-Green start carries kinetic energy; rest state would not
        assert np.abs(sim.f - sim.f.mean(axis=(1, 2, 3), keepdims=True)).max() > 0

    def test_default_initial_is_uniform_rest(self):
        spec = CaseSpec(name="rest3", title="t", shape=(4, 4, 4))
        sim, _ = CaseRunner(spec).build()
        rho, u = sim.macroscopic()
        np.testing.assert_allclose(rho, 1.0)
        np.testing.assert_allclose(u, 0.0, atol=1e-15)

    def test_geometry_shape_mismatch_raises(self):
        spec = CaseSpec(
            name="badgeom",
            title="t",
            shape=(4, 4, 4),
            geometry=lambda spec: np.zeros((3, 3, 3), dtype=bool),
        )
        with pytest.raises(ScenarioError, match="geometry"):
            CaseRunner(spec).build()


class TestObservableRows:
    """The probes of one row share one moments pass; no row reads the
    moments of another row's populations."""

    @staticmethod
    def _alone(runner, sim):
        """Every probe evaluated on its own, outside any shared row."""
        return {name: float(probe(sim)) for name, probe in runner.spec.observables.items()}

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"lattice": "D3Q39"}, {"layout": "aos"}, {"dtype": "float32"}],
    )
    def test_series_match_probes_evaluated_alone(self, overrides):
        runner = CaseRunner("taylor-green", **FAST_TG, **overrides)
        result = runner.run(analyze=False)
        sim, _ = runner.build()
        expected = {name: [] for name in runner.spec.observables}
        for step in result.series["step"]:
            sim.run(int(step) - sim.time_step)
            for name, value in self._alone(runner, sim).items():
                expected[name].append(value)
        for name, values in expected.items():
            assert np.array(result.series[name]).tobytes() == np.array(values).tobytes()

    def test_one_moments_pass_per_row(self, monkeypatch):
        from repro.core import observables

        calls = []
        real = observables.macroscopic

        def counted(lattice, f):
            calls.append(1)
            return real(lattice, f)

        monkeypatch.setattr(observables, "macroscopic", counted)
        result = CaseRunner("taylor-green", **FAST_TG).run(analyze=False)
        # kinetic_energy, max_speed and enstrophy read one pass per row
        assert len(calls) == len(result.series["step"])

    def _two_rows(self, change):
        """Record a row, apply ``change(runner, sim)``, record another."""
        from repro.scenarios.runner import CaseResult

        runner = CaseRunner("taylor-green", **FAST_TG)
        sim, solid = runner.build()
        result = CaseResult(runner.spec, sim, solid)
        runner._record(result)
        change(runner, sim)
        runner._record(result)
        for name, value in self._alone(runner, sim).items():
            assert result.series[name][-1] == value, name
        return result

    def test_row_after_field_write_sees_new_populations(self):
        from repro.core import equilibrium, macroscopic

        def write(runner, sim):
            rho, u = macroscopic(sim.lattice, sim.f)
            sim.field.data[...] = equilibrium(sim.lattice, rho, 2.0 * u)

        result = self._two_rows(write)
        first, second = result.series["max_speed"]
        assert second == pytest.approx(2.0 * first)

    def test_row_after_initialize_sees_new_populations(self):
        from repro.core.initial_conditions import taylor_green

        def reinitialize(runner, sim):
            sim.initialize(*taylor_green(runner.spec.shape, u0=3e-3))

        result = self._two_rows(reinitialize)
        first, second = result.series["max_speed"]
        assert second == pytest.approx(3.0 * first)

    def test_row_after_restore_sees_new_populations(self, tmp_path):
        runner = CaseRunner("taylor-green", **FAST_TG)
        stepped, _ = runner.build()
        stepped.run(7)
        path = runner.save(tmp_path / "ck.npz", stepped)

        def restore(runner, sim):
            runner._restore(sim, path)

        result = self._two_rows(restore)
        assert result.series["kinetic_energy"][-1] == float(
            runner.spec.observables["kinetic_energy"](stepped)
        )
        assert result.series["kinetic_energy"][0] != result.series["kinetic_energy"][1]


class TestBuildAllocations:
    @pytest.mark.parametrize("lattice", ["D3Q19", "D3Q39"])
    def test_second_build_peak_within_seven_fields(self, lattice):
        """A build allocates the two population arrays, the gather table
        and the equilibrium's intermediates, no throwaway field copies."""
        CaseRunner("taylor-green", lattice=lattice, steps=3).build()
        tracemalloc.start()
        try:
            sim, _ = CaseRunner("taylor-green", lattice=lattice, steps=3).build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7 * sim.field.nbytes
