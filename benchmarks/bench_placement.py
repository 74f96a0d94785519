"""Step time of the planned one-pass step by where its arrays land.

``np.empty`` promises 16-byte alignment, so an array a plan allocates
may start 0, 16, 32 or 48 bytes past a 64-byte cache line.  This script
builds the same plan once per such placement: while a plan is built,
every ``np.empty`` result is shifted to start ``shift`` bytes past a
cache line (the heap shift), so a plan that takes its block scratch
straight from ``np.empty`` inherits the shift, and one that aligns its
arrays does not.  The plans then step the same two population arrays,
in rotating order, and the script prints each plan's scratch offset
mod 64, its median ms/step and, per shape, the max/min spread of those
medians.

Shapes: the ``artery-flow`` case's plan (D3Q19 48x21x21 float64, its
walls folded in, its Guo forcing fused) and a periodic D3Q39 32x32x4
float64 plan.  Without the compiled loop (no ``cc``) there is no
scratch, and the script says so and exits 0.

    python benchmarks/bench_placement.py            # ~10 s
    python benchmarks/bench_placement.py --smoke    # a few steps, CI

Nothing is gated on the timings; they depend on the host.
"""

from __future__ import annotations

import argparse
import contextlib
import statistics
import time

import numpy as np

from repro.core import BounceBackWalls, KernelPlan, compiled, equilibrium
from repro.lattice import get_lattice
from repro.scenarios import CaseRunner

LINE = 64
SHIFTS = (0, 16, 32, 48)


@contextlib.contextmanager
def shifted_heap(shift: int):
    """Every ``np.empty`` made inside starts ``shift`` bytes past a
    ``LINE``-byte boundary."""
    real = np.empty

    def empty(shape, dtype=float, order="C", **kwargs):
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        raw = real(nbytes + 2 * LINE, dtype=np.uint8)
        start = (shift - raw.ctypes.data) % LINE
        return raw[start : start + nbytes].view(dtype).reshape(shape)

    np.empty = empty
    try:
        yield
    finally:
        np.empty = real


def artery_setup():
    """(plan factory, src, out, omega) of the artery-flow case."""
    sim = CaseRunner("artery-flow").build()[0]
    walls = [bc.solid_mask for bc in sim.boundaries if type(bc) is BounceBackWalls]
    omega = sim.collision.omega

    def make():
        plan = KernelPlan(sim.lattice, sim.shape, dtype=sim.dtype)
        for mask in walls:
            plan.fold_bounce_back(mask)
        plan.set_forcing(sim.forcing.force, omega)
        return plan

    return make, sim.field.data, np.empty_like(sim.field.data), omega


def periodic_setup(name: str, shape: tuple[int, ...]):
    lattice = get_lattice(name)
    rng = np.random.default_rng(1)
    rho = 1.0 + 0.01 * rng.standard_normal(shape)
    u = 0.02 * rng.standard_normal((lattice.dim, *shape))
    src = np.ascontiguousarray(equilibrium(lattice, rho, u))
    return lambda: KernelPlan(lattice, shape), src, np.empty_like(src), 1.0 / 0.8


def measure(label: str, setup, rounds: int, steps: int) -> None:
    make, src, out, omega = setup
    plans = []
    for shift in SHIFTS:
        with shifted_heap(shift):
            plan = make()
            plan.buffer  # noqa: B018 - allocated under the shift too
        plan.advance(src, out, omega)  # warm
        plans.append((shift, plan))
    times = {shift: [] for shift in SHIFTS}
    for r in range(rounds):
        order = plans[r % len(plans) :] + plans[: r % len(plans)]
        for shift, plan in order:
            t0 = time.perf_counter()
            for _ in range(steps):
                plan.advance(src, out, omega)
            times[shift].append((time.perf_counter() - t0) / steps * 1e3)
    medians = []
    print(f"{label}: {rounds} rounds x {steps} steps per plan")
    print("  heap shift  scratch mod 64  ms/step")
    for shift, plan in plans:
        median = statistics.median(times[shift])
        medians.append(median)
        offset = plan._scratch.ctypes.data % LINE
        print(f"  {shift:>10}  {offset:>14}  {median:7.3f}")
    print(f"  spread max/min: {max(medians) / min(medians):.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="a few steps only")
    args = parser.parse_args(argv)
    if compiled.load("float64") is None:
        print("no compiled collide on this host (no cc): nothing to place")
        return 0
    rounds, steps = (2, 2) if args.smoke else (24, 40)
    measure("artery-flow D3Q19 48x21x21", artery_setup(), rounds, steps)
    measure(
        "D3Q39 32x32x4",
        periodic_setup("D3Q39", (32, 32, 4)),
        rounds,
        steps,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
