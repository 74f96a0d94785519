"""Tests for the Wellein/Eq. 5 roofline — Table II must reproduce."""

import importlib
import math

import pytest

from repro.lattice import get_lattice
from repro.machine import (
    BLUE_GENE_P,
    BLUE_GENE_Q,
    FLOPS_PER_CELL,
    Limiter,
    flops_per_cell,
    hardware_efficiency_bound,
    roofline,
    torus_lower_bound,
)


class TestTableII:
    """Every cell of the paper's Table II within 3%."""

    @pytest.mark.parametrize(
        "machine,lname,p_bm,p_peak",
        [
            (BLUE_GENE_P, "D3Q19", 29.0, 76.4),
            (BLUE_GENE_Q, "D3Q19", 94.0, 1150.0),
            (BLUE_GENE_P, "D3Q39", 14.5, 71.5),
            (BLUE_GENE_Q, "D3Q39", 45.0, 1077.0),
        ],
    )
    def test_values(self, machine, lname, p_bm, p_peak):
        r = roofline(machine, get_lattice(lname))
        assert r.p_bandwidth_mflups == pytest.approx(p_bm, rel=0.03)
        assert r.p_peak_mflups == pytest.approx(p_peak, rel=0.01)

    def test_always_bandwidth_limited(self):
        """'IN ALL CASES, THE CODE IS EXTREMELY BANDWIDTH LIMITED.'"""
        for machine in (BLUE_GENE_P, BLUE_GENE_Q):
            for lname in ("D3Q19", "D3Q39"):
                r = roofline(machine, get_lattice(lname))
                assert r.limiter is Limiter.BANDWIDTH
                assert r.attainable_mflups == r.p_bandwidth_mflups


class TestSectionIIIC:
    @pytest.mark.parametrize(
        "machine,lname,bound",
        [
            (BLUE_GENE_P, "D3Q19", 11.1),
            (BLUE_GENE_Q, "D3Q19", 70.0),
            (BLUE_GENE_P, "D3Q39", 5.4),
            (BLUE_GENE_Q, "D3Q39", 34.0),
        ],
    )
    def test_torus_lower_bounds(self, machine, lname, bound):
        got = torus_lower_bound(machine, get_lattice(lname))
        assert got == pytest.approx(bound, rel=0.02)

    def test_efficiency_bounds_on_bgp(self):
        """'38% (D3Q19) and 20% (D3Q39) hardware efficiency'."""
        assert hardware_efficiency_bound(
            BLUE_GENE_P, get_lattice("D3Q19")
        ) == pytest.approx(0.38, abs=0.02)
        assert hardware_efficiency_bound(
            BLUE_GENE_P, get_lattice("D3Q39")
        ) == pytest.approx(0.20, abs=0.01)

    def test_bgq_efficiency_ceiling_lower(self):
        """The growing bandwidth/flops disparity the paper warns about."""
        for lname in ("D3Q19", "D3Q39"):
            assert hardware_efficiency_bound(
                BLUE_GENE_Q, get_lattice(lname)
            ) < hardware_efficiency_bound(BLUE_GENE_P, get_lattice(lname))


class TestFlopsPerCell:
    def test_paper_constants(self):
        assert FLOPS_PER_CELL == {"D3Q19": 178, "D3Q39": 190}
        assert flops_per_cell(get_lattice("D3Q19")) == 178
        assert flops_per_cell(get_lattice("D3Q39")) == 190

    def test_interpolation_for_other_lattices(self):
        f15 = flops_per_cell(get_lattice("D3Q15"))
        f27 = flops_per_cell(get_lattice("D3Q27"))
        assert 170 < f15 < 178
        assert 178 < f27 < 190


#: The module itself: the package re-exports its ``roofline`` function
#: under the same name.
roofline_module = importlib.import_module("repro.machine.roofline")


class TestCopyBandwidth:
    """``Bm`` for this host: a copy probe measured on every call."""

    def test_measures_a_positive_finite_rate(self):
        bandwidth = roofline_module.copy_bandwidth()
        assert math.isfinite(bandwidth) and bandwidth > 0

    def test_reports_read_plus_write_bytes_of_the_best_copy(self, monkeypatch):
        """Five timed copies of 10 s, 4 s, 5 s, 2 s, 8 s: the 2 s copy
        sets the rate, over twice the buffer (read + write)."""
        monkeypatch.setattr(roofline_module, "COPY_PROBE_BYTES", 1 << 16)
        durations = iter([10.0, 4.0, 5.0, 2.0, 8.0])
        clock = {"now": 0.0, "stop": False}

        def perf_counter():
            if clock["stop"]:
                clock["now"] += next(durations)
            clock["stop"] = not clock["stop"]
            return clock["now"]

        monkeypatch.setattr(roofline_module.time, "perf_counter", perf_counter)
        assert roofline_module.copy_bandwidth() == 2 * (1 << 16) / 2.0
