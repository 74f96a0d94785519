"""The ``repro.api`` facade: one code path for CLI, HTTP and library."""

import json

import pytest

from repro import api
from repro.core.io import render_response, response_envelope
from repro.errors import ScenarioError

CASE = "taylor-green"
SMALL = {"shape": (10, 10, 4)}


class TestCaseRequest:
    def test_fingerprint_matches_spec(self):
        request = api.case_request(CASE, steps=5, overrides=SMALL)
        assert request.fingerprint == request.spec.fingerprint()
        assert request.overrides["steps"] == 5

    def test_decoded_json_overrides_fingerprint_identically(self):
        # JSON bodies carry lists; decode_overrides retuples them so the
        # fingerprint matches what --set shape=10,10,4 produces.
        from_json = api.case_request(
            CASE, steps=5, overrides=api.decode_overrides({"shape": [10, 10, 4]})
        )
        native = api.case_request(CASE, steps=5, overrides=SMALL)
        assert from_json.fingerprint == native.fingerprint

    def test_invalid_override_raises(self):
        with pytest.raises(ScenarioError):
            api.case_request(CASE, overrides={"lattice": "D3Q999"})


class TestRunCase:
    def test_cold_then_warm_payloads_identical(self, tmp_path):
        cold = api.run_case(CASE, steps=5, overrides=SMALL, cache_dir=tmp_path)
        warm = api.run_case(CASE, steps=5, overrides=SMALL, cache_dir=tmp_path)
        assert not cold.cached and warm.cached
        assert cold.payload == warm.payload
        assert render_response("case", cold.payload) == render_response(
            "case", warm.payload
        )

    def test_warm_hit_runs_zero_steps(self, tmp_path, monkeypatch):
        api.run_case(CASE, steps=5, overrides=SMALL, cache_dir=tmp_path)
        from repro.scenarios.runner import CaseRunner

        def boom(self, **kwargs):
            raise AssertionError("a warm request must not execute")

        monkeypatch.setattr(CaseRunner, "run", boom)
        warm = api.run_case(CASE, steps=5, overrides=SMALL, cache_dir=tmp_path)
        assert warm.cached
        assert warm.result.simulation is None

    def test_cache_dir_rejects_checkpoint(self, tmp_path):
        with pytest.raises(ScenarioError, match="checkpoint"):
            api.run_case(
                CASE,
                steps=5,
                overrides=SMALL,
                cache_dir=tmp_path,
                checkpoint=str(tmp_path / "x.npz"),
            )


class TestSweepRequest:
    def test_expansion_is_aligned(self):
        request = api.sweep_request(CASE, {"tau": [0.7, 0.8]}, steps=5)
        assert len(request) == 2
        assert request.parameters == ("tau",)
        assert [v["tau"] for v in request.variants] == [0.7, 0.8]
        assert len(request.fingerprints) == len(set(request.fingerprints))

    def test_assemble_requires_every_variant_warm(self, tmp_path):
        request = api.sweep_request(
            CASE, {"tau": [0.7, 0.8]}, steps=5
        )
        assert api.assemble_sweep(request, tmp_path) is None
        api.run_case(
            CASE, steps=5, overrides={"tau": 0.7}, cache_dir=tmp_path
        )
        assert api.assemble_sweep(request, tmp_path) is None
        api.run_case(
            CASE, steps=5, overrides={"tau": 0.8}, cache_dir=tmp_path
        )
        result = api.assemble_sweep(request, tmp_path)
        assert result is not None
        assert result.passed

    def test_run_sweep_payload_matches_assembled(self, tmp_path):
        grid = {"tau": [0.7, 0.8]}
        ran = api.run_sweep(CASE, grid, steps=5, cache_dir=tmp_path)
        request = api.sweep_request(CASE, grid, steps=5)
        assembled = api.assemble_sweep(request, tmp_path)
        assert api.sweep_payload(ran) == api.sweep_payload(assembled)


class TestSweepOptionValidation:
    def test_telemetry_needs_cache_dir(self):
        with pytest.raises(ScenarioError, match="--telemetry"):
            api.run_sweep(CASE, {"tau": [0.7]}, telemetry=True)


class TestEnvelope:
    def test_schema_versioned_and_canonical(self):
        rendered = render_response("thing", {"b": 1, "a": (1, 2)})
        assert rendered == '{"data":{"a":[1,2],"b":1},"kind":"thing","schema":1}'
        assert json.loads(rendered) == response_envelope(
            "thing", {"b": 1, "a": (1, 2)}
        )

    def test_nan_is_rejected(self):
        with pytest.raises(ValueError):
            render_response("thing", {"x": float("nan")})


@pytest.fixture
def probe(monkeypatch):
    """A copy probe that reports 12 GB/s and counts its calls."""
    import importlib

    roofline = importlib.import_module("repro.machine.roofline")
    calls = []

    def copy_bandwidth():
        calls.append(1)
        return 12e9

    monkeypatch.setattr(roofline, "copy_bandwidth", copy_bandwidth)
    return calls


class TestPredictCost:
    """``predict_cost`` is Eq. 5's bandwidth term with a measured ``Bm``."""

    def test_ceiling_is_bm_over_bq(self, probe):
        estimate = api.predict_cost(lattice="D3Q19")
        assert estimate.bandwidth == 12e9
        assert estimate.bytes_per_cell == 456
        assert estimate.mflups == 12e9 / 456 / 1e6
        assert estimate.seconds is None

    def test_float32_halves_bq_and_doubles_the_ceiling(self, probe):
        f64 = api.predict_cost(lattice="D3Q39")
        f32 = api.predict_cost(lattice="D3Q39", dtype="float32")
        assert (f64.bytes_per_cell, f32.bytes_per_cell) == (936, 468)
        assert f32.mflups == 2 * f64.mflups

    def test_seconds_are_the_work_at_the_ceiling(self, probe):
        estimate = api.predict_cost(
            lattice="D3Q19", shape=(64, 64, 64), steps=100
        )
        assert estimate.seconds == 100 * 64**3 * 456 / 12e9

    def test_probes_on_every_call_and_touches_no_file(
        self, probe, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        api.predict_cost(lattice="D3Q19")
        api.predict_cost(lattice="D3Q19")
        assert len(probe) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "query", [{"lattice": "D3Q99"}, {"lattice": "D3Q19", "dtype": "int8"}]
    )
    def test_unknown_lattice_or_dtype_is_a_scenario_error(self, probe, query):
        with pytest.raises(ScenarioError):
            api.predict_cost(**query)
        assert probe == []
