"""Kernel/dtype selection through the scenario layer.

The acceptance-level dtype equivalence: float32 runs of the two
analytic validation cases (taylor-green, poiseuille) agree with their
float64 runs within order-aware tolerances, and both pass their own
physics checks; kernel choice is an override/sweep axis like any other.
"""

import numpy as np
import pytest

from repro.errors import ScenarioError
from repro.scenarios import CaseSpec, Sweep, get_case, run_case


class TestSpecValidation:
    def test_kernel_accepted(self):
        spec = get_case("taylor-green").with_overrides(kernel="planned")
        spec.validate()
        assert spec.kernel == "planned"

    def test_unknown_kernel_rejected(self):
        spec = get_case("taylor-green").with_overrides(kernel="simd")
        with pytest.raises(ScenarioError, match="unknown kernel"):
            spec.validate()

    def test_auto_kernel_stored_as_planned_in_specs(self):
        """'auto' is a fixed alias, so a spec stores the rung it names
        and fingerprints exactly like the planned spec."""
        base = get_case("taylor-green")
        spec = base.with_overrides(kernel="auto")
        spec.validate()
        assert spec.kernel == "planned"
        planned = base.with_overrides(kernel="planned")
        assert spec.fingerprint() == planned.fingerprint()

    def test_bad_dtype_rejected(self):
        spec = get_case("taylor-green").with_overrides(dtype="float16")
        with pytest.raises(ScenarioError, match="dtype"):
            spec.validate()

    def test_collision_factory_needs_planned_soa(self):
        """A custom operator replaces only the planned collide: the naive
        kernel is BGK-only, and AoS storage is refused."""
        base = get_case("microchannel-knudsen")  # regularized collision
        assert base.collision is not None
        base.validate()
        assert base.kernel == "planned"
        for overrides in ({"kernel": "naive"}, {"layout": "aos"}):
            spec = base.with_overrides(**overrides)
            with pytest.raises(ScenarioError, match="collision factory runs on"):
                spec.validate()

    def test_kernel_none_refused(self):
        """``None`` named the retired legacy pair."""
        spec = CaseSpec(name="x", title="x", kernel=None)
        with pytest.raises(ScenarioError, match="unknown kernel None"):
            spec.validate()

    def test_fingerprints_distinguish_kernel_and_dtype(self):
        base = get_case("taylor-green")
        prints = {
            base.fingerprint(),
            base.with_overrides(kernel="naive").fingerprint(),
            base.with_overrides(dtype="float32").fingerprint(),
            base.with_overrides(kernel="naive", dtype="float32").fingerprint(),
        }
        assert len(prints) == 4

    def test_defaults_are_backward_compatible(self):
        spec = CaseSpec(name="x", title="x")
        assert spec.kernel == "planned"
        assert spec.dtype == "float64"


class TestDtypeEquivalence:
    def test_taylor_green_float32_tracks_float64(self):
        r64 = run_case("taylor-green", steps=100)
        r32 = run_case("taylor-green", steps=100, dtype="float32")
        assert r32.passed, r32.checks
        assert r64.passed, r64.checks
        # Order-aware tolerance: the decay norm is a ratio of kinetic
        # energies ~u0^2 (1e-6), so float32 rounding (eps ~ 1.2e-7)
        # shows up at the 1e-3 relative level, far inside the 10%
        # physics tolerance.
        assert r32.metrics["decay_measured"] == pytest.approx(
            r64.metrics["decay_measured"], rel=1e-3
        )

    def test_poiseuille_float32_tracks_float64(self):
        r64 = run_case("poiseuille-channel")
        r32 = run_case("poiseuille-channel", dtype="float32")
        assert r32.passed, r32.checks
        assert r64.passed, r64.checks
        assert r32.metrics["peak_velocity"] == pytest.approx(
            r64.metrics["peak_velocity"], rel=5e-3
        )

    def test_planned_kernel_passes_case_checks(self):
        result = run_case(
            "taylor-green", steps=100, kernel="planned", dtype="float32"
        )
        assert result.passed, result.checks
        assert result.spec.kernel == "planned"


#: Taylor-green small enough for the naive kernel's per-cell loops, and
#: large enough for its decay check to pass.
NAIVE_SIZED = {"shape": (12, 12, 4)}


class TestKernelSweeps:
    def test_sweep_over_kernels_agrees(self):
        sweep = Sweep(
            "taylor-green", {"kernel": ["naive", "planned"]},
            steps=20,
            overrides=NAIVE_SIZED,
        )
        result = sweep.run()
        assert result.passed
        finals = [r.final("kinetic_energy") for r in result.results]
        assert np.allclose(finals, finals[0], rtol=1e-12)

    def test_fixed_overrides_reach_every_variant(self):
        sweep = Sweep(
            "taylor-green",
            {"tau": [0.7, 0.8]},
            steps=10,
            overrides={"kernel": "planned", "dtype": "float32"},
        )
        for spec in sweep.specs():
            assert spec.kernel == "planned"
            assert spec.dtype == "float32"
        # grid values win on collision with fixed overrides
        sweep2 = Sweep(
            "taylor-green",
            {"kernel": ["naive", "planned"]},
            steps=10,
            overrides={"kernel": "naive"},
        )
        assert [s.kernel for s in sweep2.specs()] == ["naive", "planned"]

    def test_kernel_dtype_sweep_is_cacheable(self, tmp_path):
        grid = {"kernel": ["naive", "planned"], "dtype": ["float32", "float64"]}
        cold = Sweep("taylor-green", grid, steps=10, overrides=NAIVE_SIZED).run(
            cache_dir=tmp_path / "cache"
        )
        warm = Sweep("taylor-green", grid, steps=10, overrides=NAIVE_SIZED).run(
            cache_dir=tmp_path / "cache"
        )
        assert cold.runs_executed == 4
        assert warm.runs_executed == 0
        assert warm.to_csv() == cold.to_csv()


class TestDistributedCases:
    """The two parallel cases ride the spec's dtype end-to-end into
    DistributedSimulation, whose planned slabs match the planned single
    domain bit for bit and the other kernels to rounding."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"kernel": "planned", "dtype": "float32"},
        ],
        ids=["default-float64", "planned-float32"],
    )
    def test_deep_halo_tuning(self, overrides):
        result = run_case("deep-halo-tuning", **overrides)
        assert result.passed, result.checks
        # the functional-equivalence metric is dtype-tolerance bounded
        tol = 1e-13 if result.spec.dtype == "float64" else 2e-5
        assert result.metrics["halo_error_depth2"] < tol

    def test_scaling_study_distributed_metrics(self):
        result = run_case(
            "scaling-study", steps=20, kernel="planned", dtype="float32"
        )
        assert result.passed, result.checks
        assert result.metrics["distributed_gather_error"] < 2e-5
        assert result.metrics["distributed_comm_bytes"] > 0
        assert result.checks["distributed_matches_single_domain"]

    def test_scaling_study_float32_halves_comm_bytes(self):
        f64 = run_case("scaling-study", steps=10)
        f32 = run_case("scaling-study", steps=10, dtype="float32")
        assert (
            f64.metrics["distributed_comm_bytes"]
            == 2 * f32.metrics["distributed_comm_bytes"]
        )

    def test_distributed_mflups_stripped_from_sweep_payloads(self, tmp_path):
        """Measured slab throughput is wall-clock, so the executor must
        drop it (like `mflups`) or sweep tables lose byte-identity
        across --jobs and cache states."""
        from repro.scenarios.executor import (
            NONDETERMINISTIC_METRICS,
            SweepExecutor,
        )

        assert "distributed_mflups" in NONDETERMINISTIC_METRICS
        sweep = Sweep("scaling-study", {"dtype": ["float32"]}, steps=5)
        result = SweepExecutor(sweep, cache_dir=tmp_path / "c").run()
        header = result.to_csv().splitlines()[0]
        assert "distributed_mflups" not in header
        assert "distributed_comm_bytes" in header
