"""Measured data-layout effect (the paper's §V-B DH optimization).

Compares the paper's collision-optimized velocity-major layout (SoA)
against the propagation-optimized cell-major alternative (AoS) on this
host, both stepped by the planned kernel.  Its plan remaps the gather
table per layout, so the two produce byte-identical populations
(tested) and differ only in memory order, which is what DH is about.
"""

import numpy as np
import pytest

from repro.core import PlannedKernel, equilibrium
from repro.lattice import get_lattice

SHAPE = (32, 32, 32)

LAYOUTS = {
    "soa": "velocity-major (paper's choice)",
    "aos": "cell-major (AoS alternative)",
}


def _state(lattice, layout):
    """Equilibrium populations ``(Q, *SHAPE)`` stored in ``layout``'s
    physical order."""
    rng = np.random.default_rng(1)
    rho = 1.0 + 0.01 * rng.standard_normal(SHAPE)
    u = 0.01 * rng.standard_normal((3, *SHAPE))
    f = equilibrium(lattice, rho, u)
    if layout == "soa":
        return f
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(f, 0, -1)), -1, 0)


@pytest.mark.parametrize("lname", ["D3Q19", "D3Q39"])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_planned_layout_step(benchmark, layout, lname):
    lattice = get_lattice(lname)
    kernel = PlannedKernel(lattice, tau=0.8, shape=SHAPE, layout=layout)
    f = kernel.step(_state(lattice, layout))  # warm the plan

    benchmark(kernel.step, f)
    benchmark.extra_info["layout"] = LAYOUTS[layout]
    assert np.isfinite(f).all()
