"""Layout and sparse-domain axes through the scenario layer.

The acceptance-level layout equivalence: soa and aos runs of two dense
cases are byte-identical per dtype (every layout transform is an exact
permutation); the sparse bifurcating-vessel case runs end-to-end on the
indirect-addressing path with the kernel rung as an override axis.
"""

import numpy as np
import pytest

from repro import api
from repro.__main__ import main
from repro.errors import ScenarioError
from repro.scenarios import get_case, run_case


class TestLayoutSpecField:
    def test_default_is_soa(self):
        assert get_case("taylor-green").layout == "soa"

    def test_layout_override_accepted(self):
        spec = get_case("taylor-green").with_overrides(
            kernel="planned", layout="aos"
        )
        spec.validate()
        assert spec.layout == "aos"

    def test_unknown_layout_rejected(self):
        spec = get_case("taylor-green").with_overrides(layout="csoa")
        with pytest.raises(ScenarioError, match="layout"):
            spec.validate()

    def test_aos_without_planned_kernel_rejected(self):
        spec = get_case("taylor-green").with_overrides(
            kernel="naive", layout="aos"
        )
        with pytest.raises(ScenarioError, match="requires kernel='planned'"):
            spec.validate()

    def test_fingerprint_distinguishes_layouts(self):
        base = get_case("taylor-green").with_overrides(kernel="planned")
        aos = base.with_overrides(layout="aos")
        assert base.fingerprint() != aos.fingerprint()


class TestLayoutEquivalence:
    @pytest.mark.parametrize(
        "case", ["taylor-green", "poiseuille-channel", "artery-flow"]
    )
    def test_soa_and_aos_are_byte_identical(self, case):
        runs = {}
        for layout in ("soa", "aos"):
            runs[layout] = run_case(
                case, steps=30, kernel="planned", layout=layout
            )
        soa, aos = runs["soa"], runs["aos"]
        assert soa.series == aos.series
        assert np.array_equal(soa.simulation.f, aos.simulation.f)
        assert soa.checks == aos.checks

    def test_api_case_request_aos_auto_is_forced_planned(self):
        request = api.case_request(
            "taylor-green", kernel="auto", layout="aos"
        )
        assert request.overrides["kernel"] == "planned"

    def test_cli_layout_flag(self, capsys):
        code = main([
            "case", "taylor-green", "--steps", "20",
            "--set", "shape=16,16,4",
            "--kernel", "planned", "--layout", "aos",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_cli_layout_sweep_axis(self, capsys):
        code = main([
            "sweep", "taylor-green",
            "--param", "layout=soa,aos",
            "--kernel", "planned",
            "--steps", "10",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "aos" in out and "soa" in out


class TestSparseCase:
    def test_bifurcating_vessel_passes(self):
        result = run_case("bifurcating-vessel", steps=60)
        assert result.passed
        assert result.metrics["fill_fraction"] < 0.5
        # sparse driver, not the dense Simulation
        from repro.core.sparse import SparseSimulation

        assert isinstance(result.simulation, SparseSimulation)

    def test_sparse_planned_spellings_run_the_same_kernel(self):
        planned = run_case("bifurcating-vessel", steps=40, kernel="planned")
        spelled = run_case("bifurcating-vessel", steps=40, kernel="sparse-planned")
        assert np.array_equal(spelled.simulation.f, planned.simulation.f)

    @pytest.mark.parametrize("kernel", [None, "legacy", "sparse-legacy", "roll"])
    def test_sparse_spec_refuses_every_other_kernel(self, kernel):
        """A sparse domain steps through the planned sparse kernel only:
        the retired rung's names (and the legacy pair's None) must fail
        validation, never run that kernel under their old fingerprint."""
        spec = get_case("bifurcating-vessel").with_overrides(kernel=kernel)
        with pytest.raises(ScenarioError, match="sparse cases run kernel 'planned'"):
            spec.validate()

    def test_dense_spec_rejects_sparse_kernel(self):
        spec = get_case("taylor-green").with_overrides(
            kernel="sparse-planned"
        )
        with pytest.raises(ScenarioError, match="sparse domain"):
            spec.validate()

    def test_sparse_spec_rejects_aos_layout(self):
        spec = get_case("bifurcating-vessel").with_overrides(layout="aos")
        with pytest.raises(ScenarioError, match="sparse"):
            spec.validate()

    def test_checkpoint_rejected(self, tmp_path):
        from repro.scenarios.runner import CaseRunner

        runner = CaseRunner("bifurcating-vessel", steps=10)
        with pytest.raises(ScenarioError, match="checkpoint"):
            runner.run(checkpoint=str(tmp_path / "x.npz"))

    def test_sparse_case_through_api_cache(self, tmp_path):
        cold = api.run_case(
            "bifurcating-vessel", steps=40, cache_dir=tmp_path
        )
        warm = api.run_case(
            "bifurcating-vessel", steps=40, cache_dir=tmp_path
        )
        assert not cold.cached and warm.cached
        assert cold.payload == warm.payload
