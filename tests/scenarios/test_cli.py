"""The ``python -m repro`` scenario subcommands."""

import json
import tempfile

import pytest

from repro.__main__ import main
from repro.errors import ScenarioError
from repro.scenarios import available_cases
from repro.scenarios.cli import _parse_assignments, _parse_grid


class TestCasesCommand:
    def test_lists_catalog(self, capsys):
        assert main(["cases"]) == 0
        out = capsys.readouterr().out
        for name in available_cases():
            assert name in out


class TestCaseCommand:
    def test_runs_case_with_steps_override(self, capsys):
        code = main(["case", "taylor-green", "--steps", "40",
                     "--set", "shape=16,16,4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "taylor-green" in out
        assert "PASS" in out

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        ckpt = str(tmp_path / "tg.npz")
        assert main(["case", "taylor-green", "--steps", "10",
                     "--set", "shape=16,16,4", "--checkpoint", ckpt]) == 0
        assert main(["case", "taylor-green", "--steps", "20",
                     "--set", "shape=16,16,4", "--resume", ckpt]) == 0
        out = capsys.readouterr().out
        assert "reached step 20" in out


class TestSweepCommand:
    def test_two_parameter_sweep_emits_table(self, capsys, tmp_path):
        csv = tmp_path / "sweep.csv"
        code = main([
            "sweep", "taylor-green",
            "--param", "tau=0.6,0.8",
            "--param", "lattice=D3Q19,D3Q27",
            "--steps", "10",
            "--csv", str(csv),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Sweep over taylor-green" in out
        assert "D3Q27" in out
        assert csv.read_text().startswith("tau,lattice")


class TestSweepExecutorFlags:
    def test_jobs_and_cache_dir_then_warm_resume(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = [
            "sweep", "taylor-green",
            "--param", "tau=0.6,0.8",
            "--steps", "10",
            "--jobs", "2",
            "--cache-dir", cache,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 variants: 2 run, 0 cached" in out
        assert "source" in out  # provenance column in the CLI table

        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "2 variants: 0 run, 2 cached" in out

    def test_plain_sweep_is_deterministic_no_timing_column(self, capsys):
        """The CLI always executes through SweepExecutor, so wall-clock
        metrics never appear and --jobs N output is byte-identical."""
        argv = ["sweep", "taylor-green", "--param", "tau=0.6,0.8",
                "--steps", "10"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert "mflups" not in serial
        assert "2 variants: 2 run, 0 cached" in serial
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_jobs_json_is_one_document(self, tmp_path, capfd):
        """Workers the driver starts print nothing, so --json stdout
        (captured at the file-descriptor level, children included)
        parses as exactly one JSON document."""
        code = main([
            "sweep", "taylor-green",
            "--param", "tau=0.6,0.7",
            "--steps", "5",
            "--jobs", "2",
            "--cache-dir", str(tmp_path),
            "--json",
        ])
        assert code == 0
        assert (tmp_path / "queue").is_dir()  # workers ran
        out = capfd.readouterr().out
        payload = json.loads(out)
        assert payload["kind"] == "sweep"
        assert out.count("\n") == 1

    def test_jobs_without_cache_dir_leaves_no_temp_files(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        assert tempfile.gettempdir() == str(tmp_path)
        code = main(["sweep", "taylor-green", "--param", "tau=0.6,0.7",
                     "--steps", "5", "--jobs", "2"])
        assert code == 0
        assert "2 variants: 2 run, 0 cached" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_resume_without_cache_dir_is_an_error(self, capsys):
        code = main([
            "sweep", "taylor-green",
            "--param", "tau=0.6",
            "--steps", "10",
            "--resume",
        ])
        assert code == 2
        assert "cache directory" in capsys.readouterr().err


class TestErrorPaths:
    """Every malformed invocation exits 2 with a message on stderr."""

    def test_unknown_case_name(self, capsys):
        code = main(["case", "no-such-case", "--steps", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown case" in err
        assert "taylor-green" in err  # lists what *is* available

    def test_unknown_sweep_case_name(self, capsys):
        code = main(["sweep", "no-such-case", "--param", "tau=0.6"])
        assert code == 2
        assert "unknown case" in capsys.readouterr().err

    def test_malformed_param_no_equals(self, capsys):
        code = main(["sweep", "taylor-green", "--param", "tau"])
        assert code == 2
        assert "expected key=v1,v2" in capsys.readouterr().err

    def test_malformed_param_empty_values(self, capsys):
        code = main(["sweep", "taylor-green", "--param", "tau="])
        assert code == 2
        assert "expected key=v1,v2" in capsys.readouterr().err

    def test_malformed_set_assignment(self, capsys):
        code = main(["case", "taylor-green", "--set", "tau"])
        assert code == 2
        assert "expected key=value" in capsys.readouterr().err

    def test_publish_without_cache_dir(self, capsys):
        code = main(["sweep", "taylor-green", "--param", "tau=0.6",
                     "--steps", "10", "--publish"])
        assert code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_adaptive_conflicts_with_workers(self, tmp_path, capsys):
        code = main(["sweep", "taylor-green", "--param", "tau=0.6,0.7,0.8",
                     "--steps", "10", "--adaptive", "steps_run",
                     "--publish", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "--adaptive" in capsys.readouterr().err

    def test_worker_against_unpublished_dir(self, tmp_path, capsys):
        code = main(["sweep-worker", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "no published sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("kernel", ["fused-gather", "sparse-legacy", "roll"])
    def test_retired_kernel_lists_the_kernels_left(self, capsys, kernel):
        code = main(["case", "taylor-green", "--steps", "5", "--kernel", kernel])
        assert code == 2
        err = capsys.readouterr().err
        assert f"unknown kernel {kernel!r}" in err
        assert "available: naive, planned, sparse-planned" in err

    @pytest.mark.parametrize("kernel", ["legacy", "sparse-legacy"])
    def test_sparse_case_refuses_the_retired_rung(self, capsys, kernel):
        code = main(
            ["case", "bifurcating-vessel", "--steps", "5", "--kernel", kernel]
        )
        assert code == 2
        assert "sparse cases run kernel 'planned'" in capsys.readouterr().err

    def test_adaptive_unknown_observable(self, tmp_path, capsys):
        code = main(["sweep", "taylor-green",
                     "--param", "tau=0.6,0.7,0.8", "--steps", "10",
                     "--adaptive", "bogus"])
        assert code == 2
        assert "unknown observable" in capsys.readouterr().err


class TestDistributedCommands:
    ARGS = ["--param", "tau=0.6,0.8", "--steps", "10"]

    def test_publish_then_worker_then_merge(self, tmp_path, capsys):
        cache = str(tmp_path / "shared")
        assert main(["sweep", "taylor-green", *self.ARGS,
                     "--cache-dir", cache, "--publish"]) == 0
        out = capsys.readouterr().out
        assert "published 2 variant(s)" in out
        assert "sweep-worker" in out  # launch recipe printed

        assert main(["sweep-worker", "--cache-dir", cache,
                     "--worker-id", "t1"]) == 0
        out = capsys.readouterr().out
        assert "worker t1: ran 2 variant(s)" in out

        assert main(["sweep", "taylor-green", *self.ARGS,
                     "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "2 variants: 0 run, 2 cached" in out

    def test_jobs_with_cache_dir_matches_serial_output(self, tmp_path, capsys):
        serial_csv = tmp_path / "serial.csv"
        dist_csv = tmp_path / "dist.csv"
        assert main(["sweep", "taylor-green", *self.ARGS,
                     "--csv", str(serial_csv)]) == 0
        capsys.readouterr()
        assert main(["sweep", "taylor-green", *self.ARGS,
                     "--jobs", "2", "--cache-dir", str(tmp_path / "c"),
                     "--csv", str(dist_csv)]) == 0
        out = capsys.readouterr().out
        assert "2 variants: 2 run, 0 cached" in out
        assert serial_csv.read_bytes() == dist_csv.read_bytes()


class TestAdaptiveCommand:
    def test_adaptive_samples_strict_subset(self, capsys):
        code = main(["sweep", "taylor-green",
                     "--param", "tau=0.55,0.6,0.7,0.8,0.95",
                     "--steps", "10",
                     "--adaptive", "final_kinetic_energy"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sampled 4/5 grid points (3 coarse + 1 refined)" in out
        assert "stage" in out  # per-row stage column in the CLI table


class TestLegacyCommands:
    def test_experiment_list_still_works(self, capsys):
        assert main(["--list"]) == 0
        assert "fig8a" in capsys.readouterr().out


class TestParsing:
    def test_assignment_scalars_and_tuples(self):
        parsed = _parse_assignments(["tau=0.9", "shape=8,8,4", "lattice=D3Q19"])
        assert parsed == {"tau": 0.9, "shape": (8, 8, 4), "lattice": "D3Q19"}

    def test_grid_values(self):
        assert _parse_grid(["kn=0.05,0.1"]) == {"kn": [0.05, 0.1]}

    def test_malformed_assignment_rejected(self):
        with pytest.raises(ScenarioError):
            _parse_assignments(["tau"])
        with pytest.raises(ScenarioError):
            _parse_grid(["kn="])


class TestAutoKernelAlias:
    """`--kernel auto` is a fixed alias for the planned rung: no
    resolution step, no per-host state read or written."""

    def test_auto_resolves_silently(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        code = main(
            ["case", "taylor-green", "--steps", "20", "--kernel", "auto"]
        )
        assert code == 0
        assert "kernel auto ->" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_case_json_auto_matches_planned(self, capsys):
        outputs = {}
        for kernel in ("auto", "planned"):
            code = main(
                ["case", "taylor-green", "--steps", "20", "--json",
                 "--kernel", kernel]
            )
            assert code == 0
            outputs[kernel] = capsys.readouterr().out
        assert outputs["auto"] == outputs["planned"]

    def test_sweep_auto_matches_planned(self, capsys):
        tables = {}
        for kernel in ("auto", "planned"):
            code = main(
                ["sweep", "taylor-green", "--param", "tau=0.7,0.8",
                 "--steps", "5", "--kernel", kernel]
            )
            assert code == 0
            tables[kernel] = capsys.readouterr().out
        assert tables["auto"] == tables["planned"]


class TestPerfModelCommand:
    """``repro perf-model predict`` prints the Eq. 5 ceiling; the fitted
    model's subcommands and flags are gone."""

    @pytest.fixture(autouse=True)
    def probe(self, monkeypatch):
        import importlib

        roofline = importlib.import_module("repro.machine.roofline")
        monkeypatch.setattr(roofline, "copy_bandwidth", lambda: 12e9)

    def test_predict_prints_the_ceiling(self, capsys):
        code = main(["perf-model", "predict", "--lattice", "D3Q19"])
        assert code == 0
        assert capsys.readouterr().out == (
            "D3Q19 float64: 26.32 MFLUP/s ceiling "
            "(Bm 12.00 GB/s / B(Q) 456 B)\n"
        )

    def test_predict_adds_wall_clock_with_shape_and_steps(self, capsys):
        code = main(["perf-model", "predict", "--lattice", "D3Q19",
                     "--dtype", "float32", "--shape", "64,64,64",
                     "--steps", "100"])
        assert code == 0
        assert capsys.readouterr().out == (
            "D3Q19 float32: 52.63 MFLUP/s ceiling "
            "(Bm 12.00 GB/s / B(Q) 228 B), >= 0.498s for 100 steps "
            "on 64x64x64\n"
        )

    @pytest.mark.parametrize("action", ["fit", "show"])
    def test_fit_and_show_exit_2(self, action, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perf-model", action, "bench.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag", ["--kernel=planned", "--ranks=2", "--host=h", "--path=p.json"]
    )
    def test_removed_predict_flags_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perf-model", "predict", "--lattice", "D3Q19", flag])
        assert exc.value.code == 2

    def test_unknown_lattice_is_an_error_not_a_traceback(self, capsys):
        code = main(["perf-model", "predict", "--lattice", "D3Q99"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTelemetryFlags:
    def test_telemetry_without_cache_dir(self, capsys):
        code = main(["sweep", "taylor-green", "--param", "tau=0.6",
                     "--steps", "10", "--telemetry"])
        assert code == 2
        assert "--telemetry needs --cache-dir" in capsys.readouterr().err

    def test_telemetry_conflicts_with_adaptive(self, tmp_path, capsys):
        code = main(["sweep", "taylor-green", "--param", "tau=0.6,0.7,0.8",
                     "--steps", "10", "--adaptive", "steps_run",
                     "--cache-dir", str(tmp_path), "--telemetry"])
        assert code == 2
        assert "not supported with --adaptive" in capsys.readouterr().err


class TestEventsCommand:
    def test_no_telemetry_recorded(self, tmp_path, capsys):
        code = main(["events", "--cache-dir", str(tmp_path)])
        assert code == 1
        assert "no telemetry under" in capsys.readouterr().out

    def test_tails_a_recorded_sweep(self, tmp_path, capsys):
        assert main(["sweep", "taylor-green", "--param", "tau=0.6,0.8",
                     "--steps", "10", "--cache-dir", str(tmp_path),
                     "--telemetry"]) == 0
        capsys.readouterr()
        code = main(["events", "--cache-dir", str(tmp_path),
                     "--name", "variant", "--tail", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "variant" in out
        assert "event(s) from" in out

    def test_type_filter_validated_by_parser(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["events", "--cache-dir", str(tmp_path),
                  "--type", "bogus"])
        assert "invalid choice" in capsys.readouterr().err
