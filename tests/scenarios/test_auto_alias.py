"""``kernel="auto"`` is a fixed alias for the planned rung.

It reads no per-host state: a calibration an older release left in the
former default root, ranking ``roll`` first, changes nothing on dense
or on sparse cases, and no kernel takes a timed step while an ``auto``
selection resolves.
"""

import json
import platform

import numpy as np
import pytest

from repro import api
from repro.core import (
    NaiveKernel,
    PlannedKernel,
    PlannedSparseKernel,
    Simulation,
    SparseSimulation,
)
from repro.scenarios.registry import available_cases, get_case
from repro.scenarios.scheduler import predict_spec_costs

DENSE, SPARSE = "taylor-green", "bifurcating-vessel"


@pytest.fixture
def roll_first_calibration(tmp_path, monkeypatch):
    """This host's calibration file in the former default root, in the
    layout older releases fitted, ranking ``roll`` above ``planned`` on
    D3Q19/float64.  Yields its text, which must stay unchanged."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    path = tmp_path / "repro" / "kernel-auto" / "perf-model"
    path.mkdir(parents=True)
    path = path / f"{platform.node()}.json"
    entries = [
        {
            "kernel": kernel,
            "mode": "single",
            "dtype": "float64",
            "lattice": "D3Q19",
            "bytes_per_cell": 456.0,
            "beta": mflups * 456e6,
            "mflups": mflups,
            "n": 1,
            "spread": 0.0,
        }
        for kernel, mflups in {"roll": 9.0, "planned": 6.0}.items()
    ]
    text = json.dumps(
        {"schema": 1, "host": platform.node(), "entries": entries}
    )
    path.write_text(text)
    yield text
    assert path.read_text() == text


class TestAutoReadsNoHostState:
    @pytest.mark.parametrize("case", [DENSE, SPARSE])
    def test_requests_store_planned(self, roll_first_calibration, case):
        request = api.case_request(case, kernel="auto")
        assert request.spec.kernel == "planned"
        assert request.overrides["kernel"] == "planned"

    @pytest.mark.parametrize(
        "case, layout", [(DENSE, "soa"), (DENSE, "aos"), (SPARSE, None)]
    )
    def test_auto_shares_the_planned_fingerprint(
        self, roll_first_calibration, case, layout
    ):
        auto = api.case_request(case, kernel="auto", layout=layout)
        planned = api.case_request(case, kernel="planned", layout=layout)
        assert auto.fingerprint == planned.fingerprint

    def test_auto_variants_cost_like_planned(self, roll_first_calibration):
        """Sweep packing prices every rung alike (Eq. 5 has no kernel
        term), whatever an old calibration ranked first."""
        spec = get_case(DENSE)
        auto, planned, naive = predict_spec_costs(
            [spec.with_overrides(kernel=k) for k in ("auto", "planned", "naive")]
        )
        assert auto == planned == naive > 0

    def test_sparse_run_steps_with_planned_sparse_kernel(
        self, roll_first_calibration
    ):
        outcome = api.run_case(SPARSE, kernel="auto", steps=3, analyze=False)
        sim = outcome.result.simulation
        assert isinstance(sim.kernel, PlannedSparseKernel)
        assert sim.time_step == 3
        assert np.isfinite(sim.f).all()


@pytest.mark.parametrize("case", available_cases())
def test_every_registered_case_stores_planned(case):
    spec = get_case(case)
    auto = spec.with_overrides(kernel="auto")
    planned = spec.with_overrides(kernel="planned")
    assert auto.kernel == "planned"
    assert auto == planned
    assert auto.fingerprint() == planned.fingerprint()


def test_auto_resolves_without_stepping_any_kernel(monkeypatch):
    def step(self, f):
        raise AssertionError("a kernel stepped while 'auto' resolved")

    for cls in (NaiveKernel, PlannedKernel, PlannedSparseKernel):
        monkeypatch.setattr(cls, "step", step)
    dense = Simulation("D3Q19", (6, 6, 6), tau=0.8, kernel="auto")
    sparse = SparseSimulation("D3Q19", np.zeros((6, 5, 4), dtype=bool), tau=0.8)
    assert isinstance(dense.kernel, PlannedKernel)
    assert isinstance(sparse.kernel, PlannedSparseKernel)
