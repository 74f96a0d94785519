"""Sweep work is priced with the paper's Eq. 5 traffic.

``predict_spec_costs`` returns ``steps * prod(shape) * B(Q)`` bytes per
spec: a pure function of the spec that reads no file and no host name,
so every publisher stamps the same costs on the same grid.
"""

import builtins
import io
import json
import math
import os
import platform
import socket

import pytest

from repro.lattice import get_lattice
from repro.machine.roofline import bytes_per_cell
from repro.scenarios.registry import available_cases, get_case
from repro.scenarios.scheduler import predict_spec_costs

CASES = available_cases()


def all_specs():
    return [get_case(name) for name in CASES]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("case", CASES)
def test_every_registered_case_prices_at_eq5_traffic(case, dtype):
    spec = get_case(case).with_overrides(dtype=dtype)
    b = bytes_per_cell(get_lattice(spec.lattice), dtype)
    assert predict_spec_costs([spec]) == [spec.steps * math.prod(spec.shape) * b]


@pytest.mark.parametrize("case", CASES)
def test_auto_planned_and_naive_price_alike(case):
    """Eq. 5 has no kernel term: every rung of one spec costs the same."""
    spec = get_case(case)
    costs = predict_spec_costs(
        [spec.with_overrides(kernel=k) for k in ("auto", "planned", "naive")]
    )
    assert len(set(costs)) == 1


def test_d3q39_costs_table_ii_ratio_of_d3q19():
    spec = get_case("taylor-green")
    q19, q39 = predict_spec_costs(
        [spec.with_overrides(lattice=name) for name in ("D3Q19", "D3Q39")]
    )
    assert q39 / q19 == 936 / 456


def test_opens_no_file(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("pricing must not open a file")

    expected = predict_spec_costs(all_specs())
    with monkeypatch.context() as patch:
        for owner in (builtins, io, os):
            patch.setattr(owner, "open", forbidden)
        costs = predict_spec_costs(all_specs())
    assert costs == expected


def test_same_under_a_patched_host_name(monkeypatch):
    expected = predict_spec_costs(all_specs())
    monkeypatch.setattr(platform, "node", lambda: "some-other-host")
    monkeypatch.setattr(socket, "gethostname", lambda: "some-other-host")
    assert predict_spec_costs(all_specs()) == expected


def test_old_calibration_in_the_former_default_root_changes_nothing(
    tmp_path, monkeypatch
):
    """A calibration an older release fitted for this host, at the
    former default root, is neither read nor touched."""
    expected = predict_spec_costs(all_specs())
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    root = tmp_path / "repro" / "kernel-auto" / "perf-model"
    root.mkdir(parents=True)
    path = root / f"{platform.node()}.json"
    text = json.dumps(
        {
            "schema": 1,
            "host": platform.node(),
            "entries": [
                {
                    "kernel": "planned",
                    "mode": "single",
                    "dtype": "float64",
                    "lattice": "D3Q39",
                    "bytes_per_cell": 936.0,
                    "beta": 1e15,
                    "mflups": 1e6,
                    "n": 1,
                    "spread": 0.0,
                }
            ],
        }
    )
    path.write_text(text)
    assert predict_spec_costs(all_specs()) == expected
    assert path.read_text() == text
