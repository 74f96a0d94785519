"""The fitted performance model (repro.perf.model).

Fits are exercised against the *committed* BENCH_PR3–PR5 history — the
same records `repro perf-model fit` consumes — so these tests double as
a round-trip check that the calibration reproduces the measurements it
was fitted from.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.perf.model import (
    FittedPerfModel,
    MeasuredSample,
    PerfModelError,
    calibration_path,
    fit,
    fit_samples,
    kernel_cache_dir,
    load_calibration,
    samples_from_bench,
    save_calibration,
)

REPO = Path(__file__).resolve().parents[2]
BENCH_PATHS = [REPO / f"BENCH_PR{n}.json" for n in (3, 4, 5)]


def bench_samples():
    samples = []
    for path in BENCH_PATHS:
        found, skipped = samples_from_bench(
            json.loads(path.read_text()), source=path.name
        )
        assert skipped == 0, f"{path.name} rows should all be attributable"
        samples.extend(found)
    return samples


@pytest.fixture(scope="module")
def history_model():
    return fit_samples(bench_samples(), host="fit-host")


class TestSampleExtraction:
    def test_committed_history_yields_samples(self):
        samples = bench_samples()
        # 4 rows in PR3, 10 in PR4, 16 in PR5 (2 non-throughput rows).
        assert len(samples) == 30
        kernels = {s.kernel for s in samples}
        assert kernels == {"roll", "fused-gather", "planned", "legacy"}
        assert all(s.mflups > 0 for s in samples)
        # Committed records predate host stamping (schema <= 3).
        assert all(s.host is None for s in samples)

    def test_legacy_class_names_map_to_registry_names(self):
        record = {
            "kernels": {
                "test_kernel_throughput[RollKernel-D3Q19]": {"mflups": 2.5},
                "test_kernel_throughput[FusedGatherKernel-D3Q39]": {"mflups": 0.8},
            }
        }
        samples, skipped = samples_from_bench(record)
        assert skipped == 0
        assert {(s.kernel, s.lattice) for s in samples} == {
            ("roll", "D3Q19"),
            ("fused-gather", "D3Q39"),
        }

    def test_unattributable_rows_are_skipped_not_fatal(self):
        record = {
            "kernels": {
                "test_kernel_throughput[MysteryKernel-noQ]": {"mflups": 1.0},
                "test_kernel_throughput[roll-D3Q19]": {
                    "mflups": 2.0,
                    "kernel": "roll",
                },
                "test_flop_ratio": {"measured_ratio": 2.4},
            }
        }
        samples, skipped = samples_from_bench(record)
        assert skipped == 1  # the mystery row; the ratio row isn't throughput
        assert len(samples) == 1

    def test_schema4_host_is_carried(self):
        record = {
            "host": "bench-host",
            "kernels": {
                "test_kernel_throughput[roll-float64-D3Q19]": {
                    "mflups": 2.0,
                    "kernel": "roll",
                    "dtype": "float64",
                }
            },
        }
        samples, _ = samples_from_bench(record)
        assert samples[0].host == "bench-host"


class TestFit:
    def test_round_trip_within_tolerance(self, history_model):
        """Every measured row predicts back within run-to-run noise.

        The fitted entry is the group mean, so each sample must sit
        within the group's observed spread; 30% is well above the
        largest spread in the committed history (~8%) while still tight
        enough to catch a mis-keyed fit (cross-kernel errors are 2x+).
        """
        for sample in bench_samples():
            predicted = history_model.predict_mflups(
                sample.kernel,
                sample.lattice,
                sample.dtype,
                ranks=2 if sample.mode == "distributed" else 1,
            )
            assert predicted == pytest.approx(sample.mflups, rel=0.30), sample

    def test_exact_cells_reproduce_group_means(self, history_model):
        entry = next(
            e
            for e in history_model.entries
            if e.key == ("planned", "single", "float64", "D3Q19")
        )
        predicted = history_model.predict_mflups("planned", "D3Q19", "float64")
        assert predicted == pytest.approx(entry.mflups, rel=1e-12)

    def test_unknown_kernel_predicts_nan(self, history_model):
        assert math.isnan(history_model.predict_mflups("naive", "D3Q19"))

    def test_pooled_fallback_scales_by_bytes_per_cell(self, history_model):
        """fused-gather was never measured at float32: the prediction
        pools the float64 fits and rescales along the roofline's B(Q)."""
        prediction = history_model.predict("fused-gather", "D3Q19", "float32")
        assert prediction is not None
        assert prediction.level == "kernel"
        f64 = history_model.predict_mflups("fused-gather", "D3Q19", "float64")
        # Halving B should roughly double the bandwidth-bound rate.
        assert prediction.mflups > f64

    def test_distributed_mode_is_separate(self, history_model):
        single = history_model.predict_mflups("planned", "D3Q19", "float64")
        dist = history_model.predict_mflups("planned", "D3Q19", "float64", ranks=4)
        assert single != dist  # halo overhead fits differently

    def test_other_hosts_samples_are_excluded(self):
        mine = MeasuredSample("roll", "D3Q19", "float64", 2.0, host="me")
        theirs = MeasuredSample("roll", "D3Q19", "float64", 9.0, host="them")
        legacy = MeasuredSample("roll", "D3Q19", "float64", 2.2, host=None)
        model = fit_samples([mine, theirs, legacy], host="me")
        assert model.skipped == 1
        assert model.predict_mflups("roll", "D3Q19") == pytest.approx(2.1)

    def test_fit_from_files_and_empty_error(self, tmp_path):
        model = fit(BENCH_PATHS, host="h")
        assert model.entries
        assert model.sources == tuple(p.name for p in BENCH_PATHS)
        with pytest.raises(PerfModelError, match="no usable"):
            empty = tmp_path / "empty.json"
            empty.write_text('{"kernels": {}}')
            fit([empty], host="h")

    def test_predict_case_seconds_scales_with_work(self, history_model):
        one = history_model.predict_case_seconds(
            "planned", "D3Q19", "float64", (16, 16, 16), 100
        )
        four = history_model.predict_case_seconds(
            "planned", "D3Q19", "float64", (16, 16, 16), 400
        )
        assert four == pytest.approx(4 * one)
        assert math.isnan(
            history_model.predict_case_seconds(
                "naive", "D3Q19", "float64", (16, 16, 16), 100
            )
        )


class TestPersistence:
    def test_save_load_round_trip(self, history_model, tmp_path):
        path = save_calibration(history_model, tmp_path / "cal.json")
        loaded = load_calibration(path)
        assert loaded is not None
        assert loaded.entries == history_model.entries
        assert loaded.host == history_model.host

    def test_default_path_is_host_keyed_under_cache_dir(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path))
        path = calibration_path("node-7")
        assert path == tmp_path / "perf-model" / "node-7.json"

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path / "kc"))
        assert kernel_cache_dir() == tmp_path / "kc"

    def test_cache_dir_follows_xdg_cache_home(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert kernel_cache_dir() == tmp_path / "xdg" / "repro" / "kernel-auto"

    def test_cache_dir_falls_back_to_home_cache(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert kernel_cache_dir() == tmp_path / ".cache" / "repro" / "kernel-auto"

    def test_calibration_at_the_default_path_loads(
        self, history_model, tmp_path, monkeypatch
    ):
        """A calibration saved under the historical root keeps loading
        once ``auto`` no longer writes verdicts beside it."""
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path))
        path = save_calibration(history_model)
        assert path == tmp_path / "perf-model" / "fit-host.json"
        loaded = load_calibration(host="fit-host")
        assert loaded is not None
        assert loaded.entries == history_model.entries
        assert list(tmp_path.iterdir()) == [tmp_path / "perf-model"]

    def test_missing_and_corrupt_read_as_absent(self, tmp_path):
        assert load_calibration(tmp_path / "nope.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert load_calibration(bad) is None
        wrong_schema = tmp_path / "schema.json"
        wrong_schema.write_text('{"schema": 99, "entries": []}')
        assert load_calibration(wrong_schema) is None

    def test_host_filter_on_load(self, history_model, tmp_path):
        path = save_calibration(history_model, tmp_path / "cal.json")
        assert load_calibration(path, host="someone-else") is None
        assert load_calibration(path, host=history_model.host) is not None

    def test_from_json_rejects_wrong_schema_loudly(self):
        with pytest.raises(PerfModelError, match="schema"):
            FittedPerfModel.from_json({"schema": 99})
