"""Walls and forcing carried by the planned kernel.

Static bounce-back folded into the gather table must be byte-identical
to streaming followed by :class:`BounceBackWalls`; the Guo-forced arena
collide must track the generic forced collide
:class:`~repro.core.simulation.Simulation` takes under the naive kernel
to rounding.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    BounceBackWalls,
    GuoForcing,
    KernelPlan,
    MovingWallBounceBack,
    PlannedKernel,
    Simulation,
    equilibrium,
)
from repro.errors import LatticeError
from repro.lattice import get_lattice

#: Every (lattice, order) pair: order 3 keeps the arena's ``cu`` buffer,
#: lower orders write ``cu / cs2`` straight into ``work``.
LATTICE_ORDERS = [
    (lname, order)
    for lname in ("D3Q15", "D3Q19", "D3Q27", "D3Q39")
    for order in range(1, get_lattice(lname).equilibrium_order + 1)
]


def _populations(lattice, shape, rng, dtype, layout):
    """Random populations in the layout's physical order (logical view)."""
    if layout == "aos":
        buf = rng.random((*shape, lattice.q)).astype(dtype)
        return np.moveaxis(buf, -1, 0)
    return rng.random((lattice.q, *shape)).astype(dtype)


def _near_equilibrium(lattice, shape, rng):
    rho = 1.0 + 0.02 * rng.standard_normal(shape)
    u = 0.03 * rng.standard_normal((3, *shape))
    return equilibrium(lattice, rho, u) + 1e-4 * rng.standard_normal(
        (lattice.q, *shape)
    )


class TestFoldedBounceBack:
    @settings(max_examples=60, deadline=None)
    @given(
        lname=st.sampled_from(["D3Q19", "D3Q39"]),
        dtype=st.sampled_from(["float32", "float64"]),
        layout=st.sampled_from(["soa", "aos"]),
        shape=st.tuples(*[st.integers(1, 6)] * 3),
        seed=st.integers(0, 2**32 - 1),
        fills=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    )
    def test_fold_equals_stream_then_walls(
        self, lname, dtype, layout, shape, seed, fills
    ):
        """Byte for byte, over random masks (several in sequence, possibly
        overlapping) on every lattice/dtype/layout combination."""
        lat = get_lattice(lname)
        rng = np.random.default_rng(seed)
        masks = [rng.random(shape) < fill for fill in fills]
        f = _populations(lat, shape, rng, dtype, layout)
        folded = KernelPlan(lat, shape, dtype=dtype, layout=layout)
        plain = KernelPlan(lat, shape, dtype=dtype, layout=layout)
        for mask in masks:
            folded.fold_bounce_back(mask)
        got = np.empty((lat.q, *shape), dtype=dtype)
        expected = np.empty_like(got)
        folded.stream_into(f, got)
        plain.stream_into(f, expected)
        for mask in masks:
            BounceBackWalls(lat, mask).apply(expected, f)
        assert got.tobytes() == expected.tobytes()
        assert folded.folded_walls == len(masks)

    @pytest.mark.parametrize("layout", ["soa", "aos"])
    def test_fold_then_moving_wall_equals_unfolded_sequence(self, q19, layout):
        """The lid keeps running after streaming, in its declared order,
        on top of the folded static walls."""
        shape = (6, 5, 4)
        rng = np.random.default_rng(3)
        static = np.zeros(shape, dtype=bool)
        static[:, 0, :] = static[:, -1, :] = True
        lid = np.zeros(shape, dtype=bool)
        lid[:, 1:-1, -1] = True
        moving = MovingWallBounceBack(q19, lid, wall_velocity=(0.05, 0.0, 0.0))
        f = _populations(q19, shape, rng, "float64", layout)
        folded = KernelPlan(q19, shape, layout=layout)
        folded.fold_bounce_back(static)
        got = np.empty((q19.q, *shape))
        folded.stream_into(f, got)
        moving.apply(got, f)
        expected = np.empty_like(got)
        KernelPlan(q19, shape, layout=layout).stream_into(f, expected)
        BounceBackWalls(q19, static).apply(expected, f)
        moving.apply(expected, f)
        assert got.tobytes() == expected.tobytes()

    def test_mask_shape_checked(self, q19):
        plan = KernelPlan(q19, (4, 4, 4))
        with pytest.raises(LatticeError, match="mask shape"):
            plan.fold_bounce_back(np.zeros((4, 4, 5), dtype=bool))


class TestForcedArenaCollide:
    @pytest.mark.parametrize("dtype,rtol", [("float64", 1e-13), ("float32", 2e-6)])
    @pytest.mark.parametrize("lname,order", LATTICE_ORDERS)
    def test_matches_generic_forced_collide(self, lname, order, dtype, rtol):
        """One forced collide, arena vs Simulation's generic Guo path
        (the naive kernel's): within 1e-13 relative at float64, a few
        float32 ulps at float32 (measured <= 3.2e-7)."""
        lat = get_lattice(lname)
        shape = (5, 4, 3)
        force = (2e-4, -1e-4, 5e-5)
        src = _near_equilibrium(lat, shape, np.random.default_rng(11)).astype(dtype)
        generic = Simulation(
            lat,
            shape,
            tau=0.7,
            order=order,
            forcing=GuoForcing(lat, force),
            kernel="naive",
            dtype=dtype,
        )
        assert generic.effective_path["collide"] == "generic"
        expected = np.empty_like(src)
        generic._collide(src, out=expected)
        plan = KernelPlan(lat, shape, order=order, dtype=dtype)
        plan.set_forcing(force, generic.collision.omega)
        got = np.empty_like(src)
        plan.collide_into(
            src.reshape(lat.q, -1), got.reshape(lat.q, -1), generic.collision.omega
        )
        error = np.abs(got.astype(np.float64) - expected).max()
        assert error <= rtol * np.abs(expected).max()
        if dtype == "float64":
            # the forcing really acts: the unforced arena collide differs
            bare = np.empty_like(src)
            KernelPlan(lat, shape, order=order).collide_into(
                src.reshape(lat.q, -1),
                bare.reshape(lat.q, -1),
                generic.collision.omega,
            )
            assert np.abs(bare - expected).max() > 1e3 * error

    @pytest.mark.parametrize(
        "dtype,rtol", [("float64", 1e-13), ("float32", 1e-5)]
    )
    def test_forced_walled_run_tracks_generic_path(self, dtype, rtol, expected_collide):
        """40 forced, walled steps: planned (folded walls, arena forcing)
        vs naive (post-stream walls, generic forcing)."""
        lat = get_lattice("D3Q19")
        shape = (8, 9, 6)
        solid = np.zeros(shape, dtype=bool)
        solid[:, 0, :] = solid[:, -1, :] = True
        sims = [
            Simulation(
                lat,
                shape,
                tau=0.8,
                boundaries=[BounceBackWalls(lat, solid)],
                forcing=GuoForcing(lat, (1e-5, 0.0, 0.0)),
                kernel=kernel,
                dtype=dtype,
            )
            for kernel in ("planned", "naive")
        ]
        for sim in sims:
            sim.initialize(1.0, np.zeros((3, *shape)))
            sim.run(40)
        planned, naive = (sim.f.astype(np.float64) for sim in sims)
        assert np.abs(planned - naive).max() <= rtol * np.abs(naive).max()
        collide = expected_collide(dtype)
        assert sims[0].effective_path == {
            "stream": "fused",
            "walls": "folded",
            "collide": collide,
            "forcing": collide,
        }
        assert sims[1].effective_path == {
            "stream": "generic",
            "walls": "post-stream",
            "collide": "generic",
            "forcing": "generic",
        }

    def test_force_components_checked(self, q19):
        with pytest.raises(LatticeError, match="3 components"):
            KernelPlan(q19, (4, 4, 4)).set_forcing((1e-5, 0.0), 1.25)

    def test_omega_is_fixed_with_the_constants(self, q19):
        plan = KernelPlan(q19, (4, 4, 4))
        plan.set_forcing((1e-5, 0.0, 0.0), 1.25)
        src = np.ones((q19.q, plan.num_cells))
        with pytest.raises(LatticeError, match="omega"):
            plan.collide_into(src, np.empty_like(src), 1.0)


class TestSimulationInstall:
    def test_only_the_leading_static_run_is_folded(self, q19):
        shape = (6, 6, 6)
        a = np.zeros(shape, dtype=bool)
        a[:, 0, :] = True
        lid = np.zeros(shape, dtype=bool)
        lid[:, :, -1] = True
        walls = [
            BounceBackWalls(q19, a),
            MovingWallBounceBack(q19, lid, wall_velocity=(0.01, 0.0, 0.0)),
            BounceBackWalls(q19, a.transpose(1, 0, 2)),
        ]
        sim = Simulation(q19, shape, tau=0.8, boundaries=walls, kernel="planned")
        assert sim.kernel.plan_for(shape).folded_walls == 1
        assert sim._post_stream == walls[1:]
        assert sim.effective_path["walls"] == "post-stream"

    def test_shared_kernel_instance_rejected_once_configured(self, q19):
        """A plan carrying one simulation's walls must not silently step
        another simulation."""
        shape = (4, 5, 4)
        solid = np.zeros(shape, dtype=bool)
        solid[:, 0, :] = True
        kernel = PlannedKernel(q19, 0.8, shape=shape)
        Simulation(q19, shape, boundaries=[BounceBackWalls(q19, solid)], kernel=kernel)
        with pytest.raises(LatticeError, match="another simulation"):
            Simulation(q19, shape, kernel=kernel)

    def test_fused_planned_step_carries_walls_and_forcing(self, q19):
        """PlannedKernel.step (the fused path) replays the installed
        plan: identical bytes to the simulation's split step."""
        shape = (5, 6, 4)
        solid = np.zeros(shape, dtype=bool)
        solid[:, 0, :] = solid[:, -1, :] = True
        sim = Simulation(
            q19,
            shape,
            tau=0.9,
            boundaries=[BounceBackWalls(q19, solid)],
            forcing=GuoForcing(q19, (1e-4, 0.0, 0.0)),
            kernel="planned",
        )
        sim.initialize(1.0, np.zeros((3, *shape)))
        fused = sim.kernel.step(sim.f.copy())
        sim.step()
        assert fused.tobytes() == sim.f.tobytes()
