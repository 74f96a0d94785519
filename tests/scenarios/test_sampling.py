"""Adaptive grid sampling: strict subsets, row fidelity, refinement."""

import json

import pytest

from repro.errors import ScenarioError
from repro.resilience import FAULT_PLAN_ENV
from repro.scenarios import AdaptiveSampler, ResultCache, Sweep, SweepExecutor
from repro.scenarios.executor import SweepPlan
from repro.scenarios.sampling import _Segment, coarse_axis_indices

GRID = {"tau": [0.55, 0.6, 0.7, 0.8, 0.95], "steps": [10, 20, 30]}
OBSERVABLE = "final_kinetic_energy"


def make_sampler(**kwargs):
    defaults = dict(observable=OBSERVABLE)
    defaults.update(kwargs)
    return AdaptiveSampler(Sweep("taylor-green", GRID), **defaults)


class TestCoarseIndices:
    def test_endpoints_always_kept(self):
        assert coarse_axis_indices(5, 2) == [0, 2, 4]
        assert coarse_axis_indices(6, 2) == [0, 2, 4, 5]
        assert coarse_axis_indices(7, 3) == [0, 3, 6]
        assert coarse_axis_indices(2, 4) == [0, 1]
        assert coarse_axis_indices(1, 2) == [0]


class TestValidation:
    def test_stride_below_2_rejected(self):
        with pytest.raises(ScenarioError, match="stride"):
            make_sampler(coarse_stride=1)

    def test_refine_fraction_range(self):
        with pytest.raises(ScenarioError, match="fraction"):
            make_sampler(refine_fraction=1.5)

    def test_jobs_positive(self):
        with pytest.raises(ScenarioError, match="jobs"):
            make_sampler(jobs=0)

    def test_unknown_observable_lists_available(self, tmp_path):
        sampler = make_sampler(observable="no-such-thing")
        with pytest.raises(ScenarioError, match="final_kinetic_energy"):
            sampler.run(analyze=False)


class TestTwoParameterAcceptance:
    """The acceptance criterion: a 2-parameter grid runs strictly fewer
    variants than the Cartesian product, and every sampled row matches
    the exhaustive sweep's row for that variant."""

    def test_strict_subset_with_matching_rows(self, tmp_path):
        sampled = make_sampler(cache_dir=tmp_path).run(analyze=False)
        assert sampled.grid_total == 15
        assert len(sampled.results) < sampled.grid_total

        exhaustive = SweepExecutor(
            Sweep("taylor-green", GRID), jobs=1
        ).run(analyze=False)
        by_fp_exhaustive = dict(
            zip(exhaustive.fingerprints, exhaustive.rows()[1])
        )
        by_fp_sampled = dict(zip(sampled.fingerprints, sampled.rows()[1]))
        assert set(by_fp_sampled) < set(by_fp_exhaustive)
        for fingerprint, row in by_fp_sampled.items():
            assert row == by_fp_exhaustive[fingerprint]

    def test_stages_cover_coarse_and_refined(self, tmp_path):
        result = make_sampler(cache_dir=tmp_path).run(analyze=False)
        assert set(result.stages) == {"coarse", "refined"}
        # coarse pass = product of subsampled axes: ceil-ish 3 x 2 = 6
        assert result.stages.count("coarse") == 6

    def test_warm_cache_executes_nothing_and_is_bit_identical(self, tmp_path):
        cold = make_sampler(cache_dir=tmp_path).run(analyze=False)
        warm = make_sampler(cache_dir=tmp_path).run(analyze=False)
        assert warm.runs_executed == 0
        assert warm.to_csv() == cold.to_csv()
        assert warm.to_table() == cold.to_table()

    def test_adaptive_over_exhaustive_cache_is_all_cached(self, tmp_path):
        SweepExecutor(
            Sweep("taylor-green", GRID), jobs=1, cache_dir=tmp_path
        ).run(analyze=False)
        result = make_sampler(cache_dir=tmp_path).run(analyze=False)
        assert result.runs_executed == 0

    def test_jobs2_matches_jobs1_and_runs_only_sampled_variants(self, tmp_path):
        serial = make_sampler(cache_dir=tmp_path / "serial").run(analyze=False)
        parallel = make_sampler(jobs=2, cache_dir=tmp_path / "parallel").run(
            analyze=False
        )
        assert parallel.rows(provenance=True) == serial.rows(provenance=True)
        assert (tmp_path / "parallel" / "queue").is_dir()  # workers ran
        # each pass published only its own variants: nothing unsampled ran
        cache = ResultCache(tmp_path / "parallel")
        assert sorted(cache.keys()) == sorted(parallel.fingerprints)

    def test_quarantined_variant_samples_as_nan(self, tmp_path, monkeypatch):
        """With jobs=2 a raising coarse variant is quarantined into a
        FAILED row; its observable reads NaN (refined around first)
        instead of failing the whole adaptive sweep."""
        poisoned = SweepPlan.of(Sweep("taylor-green", GRID)).fingerprints[0]
        plan = tmp_path / "plan.json"
        fault = {"id": "poison", "action": "raise", "site": "run",
                 "fingerprint": poisoned, "times": None}
        plan.write_text(json.dumps({"version": 1, "faults": [fault]}))
        monkeypatch.setenv(FAULT_PLAN_ENV, str(plan))
        result = make_sampler(jobs=2, cache_dir=tmp_path / "cache").run(
            analyze=False
        )
        assert result.failed_count == 1
        assert result.fingerprints[0] == poisoned
        assert result.provenance[0] == "failed"

    def test_refine_everything_still_strict_subset(self, tmp_path):
        # refine_fraction=1.0 fills every segment, but the coarse grid
        # never revisits non-segment interior points of *other* axes.
        result = make_sampler(refine_fraction=1.0, cache_dir=tmp_path).run(
            analyze=False
        )
        assert len(result.results) < result.grid_total


class TestRefinementTargeting:
    def test_fastest_segments_selected_deterministically(self):
        sampler = make_sampler(refine_fraction=0.5)
        # two refinable segments along axis 0 (5 values, stride 2):
        # [0,2] and [2,4], at each of axis 1's two coarse points; axis 1
        # itself ([0,1]) has no skipped interior
        coarse_axes = [[0, 2, 4], [0, 1]]
        segments = sampler._segments(coarse_axes)
        assert len(segments) == 4
        assert all(s.axis == 0 for s in segments)

        import itertools

        flat = {
            coord: i
            for i, coord in enumerate(itertools.product(range(5), range(2)))
        }
        # observable jumps only between axis-0 indices 2 and 4 at axis-1=0
        values = {flat[c]: 0.0 for c in flat}
        values[flat[(4, 0)]] = 100.0
        chosen = sampler._fastest(segments, values, flat)
        assert len(chosen) == 2  # ceil(0.5 * 4)
        assert chosen[0] == _Segment(axis=0, lo=2, hi=4, fixed=(0,))
        # runner-up rank is deterministic: ties broken by coordinates
        assert chosen[1] == _Segment(axis=0, lo=0, hi=2, fixed=(0,))

    def test_nan_delta_refines_first(self):
        sampler = make_sampler(refine_fraction=0.15)
        coarse_axes = [[0, 2, 4], [0, 2]]
        segments = sampler._segments(coarse_axes)
        assert len(segments) == 7  # 2x2 along axis 0 + 1x3 along axis 1
        import itertools

        flat = {
            coord: i
            for i, coord in enumerate(itertools.product(range(5), range(3)))
        }
        values = {flat[c]: 1.0 for c in flat}
        values[flat[(2, 2)]] = float("nan")  # instability inside the grid
        chosen = sampler._fastest(segments, values, flat)
        assert len(chosen) == 2  # ceil(0.15 * 7)
        for segment in chosen:  # only segments touching the NaN win
            endpoints = (
                segment.coordinate(segment.lo),
                segment.coordinate(segment.hi),
            )
            assert (2, 2) in endpoints

    def test_zero_refine_fraction_runs_coarse_only(self, tmp_path):
        result = make_sampler(refine_fraction=0.0, cache_dir=tmp_path).run(
            analyze=False
        )
        assert set(result.stages) == {"coarse"}
        assert len(result.results) == 6
