"""Telemetry overhead: instrumented stepping vs the disabled default.

The observability contract is that the *disabled* recorder costs one
attribute lookup per phase boundary and the *enabled* recorder stays a
small, bounded tax (a handful of span events per step — per rank for
the distributed driver, per ``run()`` call for the single domain).
This file measures both sides so ``compare_bench.py`` keeps the
disabled path inside the standing >30% regression gate, and reports
the enabled/disabled ratio for the record.
"""

import numpy as np
import pytest

from repro.core import Simulation, shear_wave
from repro.parallel import DistributedSimulation
from repro.perf import mflups
from repro.telemetry import Telemetry

SHAPE = (32, 16, 16)


def _single(telemetry=None):
    sim = Simulation("D3Q19", SHAPE, tau=0.8, kernel="planned", telemetry=telemetry)
    rho, u = shear_wave(SHAPE)
    sim.initialize(rho, u)
    sim.run(2)  # warm the plan arena / lazy caches
    return sim


def _distributed(telemetry=None):
    dist = DistributedSimulation(
        "D3Q19",
        SHAPE,
        tau=0.8,
        num_ranks=4,
        ghost_depth=2,
        telemetry=telemetry,
    )
    rho, u = shear_wave(SHAPE)
    dist.initialize(rho, u)
    dist.run(2)
    return dist


@pytest.mark.parametrize("telemetry", ["disabled", "enabled"])
def test_single_domain_step_overhead(benchmark, telemetry):
    recorder = Telemetry.in_memory() if telemetry == "enabled" else None
    sim = _single(recorder)
    benchmark(sim.run, 1)
    cells = int(np.prod(SHAPE))
    benchmark.extra_info["mflups"] = round(
        mflups(1, cells, benchmark.stats["mean"]), 2
    )
    benchmark.extra_info["telemetry"] = telemetry


@pytest.mark.parametrize("telemetry", ["disabled", "enabled"])
def test_distributed_step_overhead(benchmark, telemetry):
    recorder = Telemetry.in_memory() if telemetry == "enabled" else None
    dist = _distributed(recorder)
    benchmark(dist.run, 1)
    cells = int(np.prod(SHAPE))
    benchmark.extra_info["mflups"] = round(
        mflups(1, cells, benchmark.stats["mean"]), 2
    )
    benchmark.extra_info["telemetry"] = telemetry
