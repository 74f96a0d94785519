"""Tests for the indirect-addressing sparse domain."""

import tracemalloc

import numpy as np
import pytest

from repro.core import Simulation, shear_wave, sphere_mask
from repro.core.sparse import (
    PlannedSparseKernel,
    SparseDomain,
    SparseSimulation,
    build_sparse_gather_table,
)
from repro.errors import LatticeError


class TestSparseDomain:
    def test_all_fluid_neighbor_table_is_periodic_shift(self, q19):
        mask = np.zeros((4, 4, 4), dtype=bool)
        dom = SparseDomain(q19, mask)
        assert dom.num_fluid == 64
        assert dom.num_wall_links == 0
        # rest velocity pulls from itself
        rest = q19.rest_index
        assert np.array_equal(dom.pull_from[rest], np.arange(64))

    def test_wall_links_counted(self, q19):
        mask = np.zeros((4, 6, 4), dtype=bool)
        mask[:, 0, :] = True
        mask[:, -1, :] = True
        dom = SparseDomain(q19, mask)
        assert dom.num_fluid == 4 * 4 * 4
        # every fluid node adjacent to a wall has blocked links
        assert dom.num_wall_links > 0

    def test_no_fluid_rejected(self, q19):
        with pytest.raises(LatticeError, match="no fluid"):
            SparseDomain(q19, np.ones((3, 3, 3), dtype=bool))

    def test_scatter_gather_roundtrip(self, q19, rng):
        mask = rng.random((5, 5, 5)) < 0.3
        mask[0, 0, 0] = False
        dom = SparseDomain(q19, mask)
        values = rng.random(dom.num_fluid)
        dense = dom.scatter(values)
        assert np.isnan(dense[mask]).all()
        assert np.array_equal(dom.gather_from_dense(dense), values)


class TestSparseSimulation:
    def test_matches_dense_on_fully_fluid_box(self):
        """No walls: indirect addressing must equal the dense planned
        solver's moments byte for byte."""
        shape = (12, 6, 6)
        rho, u = shear_wave(shape, amplitude=1e-3)
        dense = Simulation("D3Q19", shape, tau=0.8, kernel="planned")
        dense.initialize(rho, u)
        dense.run(10)

        sparse = SparseSimulation("D3Q19", np.zeros(shape, dtype=bool), tau=0.8)
        sparse.initialize(rho, u)
        sparse.run(10)
        rho_s = sparse.density_dense()
        from repro.core import density

        assert np.array_equal(rho_s, density(dense.f))
        u_s = sparse.velocity_dense()
        from repro.core import macroscopic

        _, u_d = macroscopic(dense.lattice, dense.f)
        assert np.array_equal(u_s, u_d)

    def test_mass_conserved_with_walls(self):
        shape = (6, 9, 6)
        mask = np.zeros(shape, dtype=bool)
        mask[:, 0, :] = True
        mask[:, -1, :] = True
        sim = SparseSimulation("D3Q19", mask, tau=0.8, force=(1e-6, 0, 0))
        sim.initialize(1.0)
        m0 = sim.total_mass
        sim.run(50)
        assert sim.total_mass == pytest.approx(m0, rel=1e-12)

    def test_forced_channel_gives_poiseuille_profile(self):
        """Half-way bounce-back channel: parabolic profile with zero
        velocity extrapolating to half a cell outside the fluid."""
        ny = 11
        shape = (4, ny + 2, 4)
        mask = np.zeros(shape, dtype=bool)
        mask[:, 0, :] = True
        mask[:, -1, :] = True
        g = 1e-6
        tau = 0.9
        sim = SparseSimulation("D3Q19", mask, tau=tau, force=(g, 0, 0))
        sim.initialize(1.0)
        sim.run(2000)
        u = sim.velocity_dense()
        profile = u[0][:, 1:-1, :].mean(axis=(0, 2))
        nu = (1 / 3) * (tau - 0.5)
        y = np.arange(ny) + 0.5  # walls at y=0 and y=ny (half-way)
        analytic = g / (2 * nu) * y * (ny - y)
        assert np.allclose(profile, analytic, rtol=0.03)

    def test_multi_speed_lattice_rejected(self):
        with pytest.raises(LatticeError, match="k=1"):
            SparseSimulation("D3Q39", np.zeros((6, 6, 6), dtype=bool))

    def test_memory_savings(self):
        """An artery-like domain stores only the fluid fraction."""
        shape = (16, 16, 16)
        from repro.core import sphere_mask

        solid = ~sphere_mask(shape, (8, 8, 8), 5.0)  # fluid = sphere interior
        sim = SparseSimulation("D3Q19", solid, tau=0.8)
        dense_bytes = 19 * 8 * np.prod(shape)
        assert sim.memory_bytes < 0.2 * dense_bytes

    def test_flow_around_obstacle_is_stable_and_deflected(self):
        from repro.core import sphere_mask

        shape = (16, 12, 12)
        mask = sphere_mask(shape, (8, 6, 6), 2.5)
        sim = SparseSimulation("D3Q19", mask, tau=0.9, force=(2e-6, 0, 0))
        sim.initialize(1.0)
        sim.run(400)
        u = sim.velocity_dense()
        assert np.isfinite(sim.f).all()
        # flow goes around: transverse velocity appears near the sphere
        assert np.abs(u[1]).max() > 1e-7
        # and the mean axial flow is positive
        assert u[0].mean() > 0


class TestSparseDtypePolicy:
    def test_default_is_float64(self, q19):
        sim = SparseSimulation("D3Q19", np.zeros((4, 4, 4), dtype=bool))
        sim.initialize(1.0)
        assert sim.f.dtype == np.float64

    def test_float32_populations_and_memory(self):
        mask = np.zeros((6, 6, 6), dtype=bool)
        mask[:, 0, :] = mask[:, -1, :] = True
        f64 = SparseSimulation("D3Q19", mask, tau=0.8)
        f32 = SparseSimulation("D3Q19", mask, tau=0.8, dtype="float32")
        f64.initialize(1.0)
        f32.initialize(1.0)
        assert f32.f.dtype == np.float32
        assert f64.memory_bytes == 2 * f32.memory_bytes

    def test_float32_tracks_float64(self):
        """The sparse solver under the dtype policy stays within single
        precision of the float64 run (forced channel, walls, steps)."""
        mask = np.zeros((6, 8, 6), dtype=bool)
        mask[:, 0, :] = mask[:, -1, :] = True
        runs = {}
        for dtype in ("float64", "float32"):
            sim = SparseSimulation(
                "D3Q19", mask, tau=0.9, force=(1e-5, 0, 0), dtype=dtype
            )
            sim.initialize(1.0)
            sim.run(50)
            assert sim.f.dtype == np.dtype(dtype)
            runs[dtype] = sim.f.astype(np.float64)
        assert np.allclose(runs["float32"], runs["float64"], rtol=0, atol=1e-5)

    def test_float32_scatter_preserves_dtype(self):
        mask = np.zeros((4, 4, 4), dtype=bool)
        sim = SparseSimulation("D3Q19", mask, tau=0.8, dtype="float32")
        sim.initialize(1.0)
        assert sim.density_dense().dtype == np.float32
        assert sim.velocity_dense().dtype == np.float32

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(LatticeError, match="unsupported"):
            SparseSimulation(
                "D3Q19", np.zeros((4, 4, 4), dtype=bool), dtype="int32"
            )


def _walled_sphere_mask(shape):
    """Walls + sphere obstacle: wall links on every boundary kind."""
    centre = tuple(s / 2 for s in shape)
    mask = sphere_mask(shape, centre, min(shape) / 3.5)
    mask[:, 0, :] = mask[:, -1, :] = True
    return mask


class TestSparseKernelEquivalence:
    """The sparse plan against the dense planned kernel and against the
    neighbor lists' fancy-index gather."""

    @pytest.mark.parametrize("lattice", ["D3Q15", "D3Q19", "D3Q27"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_fully_fluid_equals_dense_planned(self, lattice, dtype):
        """With no solid node the gather table is the dense periodic one
        over the same flat order, and both run the plan's collide, so
        every population matches byte for byte."""
        shape = (6, 5, 4)
        rng = np.random.default_rng(11)
        rho = 1.0 + 0.01 * rng.standard_normal(shape)
        u = 0.02 * rng.standard_normal((3, *shape))
        dense = Simulation(lattice, shape, tau=0.8, kernel="planned", dtype=dtype)
        dense.initialize(rho, u)
        dense.run(10)
        sparse = SparseSimulation(
            lattice, np.zeros(shape, dtype=bool), tau=0.8, dtype=dtype
        )
        sparse.initialize(rho, u)
        sparse.run(10)
        assert sparse.f.dtype == np.dtype(dtype)
        assert np.array_equal(sparse.f, dense.f.reshape(sparse.f.shape))

    def test_gather_table_fuses_stream_and_bounce_back(self, q19, rng):
        """One flat take must equal the two-array fancy-index gather."""
        mask = _walled_sphere_mask((8, 7, 6))
        dom = SparseDomain(q19, mask)
        table = build_sparse_gather_table(dom)
        f = rng.random((q19.q, dom.num_fluid))
        via_table = f.reshape(-1)[table].reshape(q19.q, dom.num_fluid)
        via_fancy = f[dom.pull_velocity, dom.pull_from]
        assert np.array_equal(via_table, via_fancy)

    def test_gather_table_is_writable_and_contiguous(self, q19):
        dom = SparseDomain(q19, _walled_sphere_mask((8, 7, 6)))
        table = build_sparse_gather_table(dom)
        assert table.flags.c_contiguous and table.flags.writeable
        assert table.shape == (q19.q * dom.num_fluid,)


class TestPlannedSparseKernelAllocation:
    def test_step_is_zero_allocation(self, collide_path):
        """The tentpole claim: after construction, stepping the planned
        sparse kernel (with forcing) allocates nothing on the heap, on
        the compiled one-pass loop and on its no-``cc`` form."""
        mask = _walled_sphere_mask((12, 10, 8))
        sim = SparseSimulation("D3Q19", mask, tau=0.8, force=(1e-6, 0, 0))
        assert sim.kernel.plan.compiled == (collide_path == "compiled")
        sim.initialize(1.0)
        sim.run(3)  # warm every code path before measuring
        tracemalloc.start()
        for _ in range(5):
            sim.step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Generous slack for tracemalloc's own frames; far below one
        # population row (num_fluid * 8 bytes).
        assert peak < sim.domain.num_fluid * 8 // 2

    def test_planned_step_alternates_two_buffers(self):
        """The step writes the other array of a pair, the simulation's
        own and the plan's buffer; nothing else is ever allocated."""
        mask = np.zeros((6, 5, 4), dtype=bool)
        sim = SparseSimulation("D3Q19", mask, tau=0.8)
        sim.initialize(1.0)
        own = sim.f
        seen = []
        for _ in range(4):
            sim.step()
            seen.append(sim.f)
        assert seen[0] is sim.kernel.plan.buffer and seen[1] is own
        assert seen[2] is seen[0] and seen[3] is own


class TestSparseKernelSelection:
    """A sparse domain steps one way: the planned sparse kernel."""

    def test_simulation_builds_the_planned_kernel(self):
        sim = SparseSimulation("D3Q19", _walled_sphere_mask((8, 7, 6)), tau=0.9)
        assert isinstance(sim.kernel, PlannedSparseKernel)
        assert sim.kernel.collision.tau == 0.9
        assert sim.collision is sim.kernel.collision

    def test_takes_no_kernel_argument(self):
        """A caller still naming a sparse rung fails loudly instead of
        running another kernel."""
        with pytest.raises(TypeError, match="kernel"):
            SparseSimulation(
                "D3Q19", np.zeros((4, 4, 4), dtype=bool), kernel="legacy"
            )

    def test_dense_make_kernel_rejects_sparse_names(self, q19):
        from repro.core.plan import make_kernel

        with pytest.raises(LatticeError, match="SparseDomain"):
            make_kernel("sparse-planned", q19, 0.8, shape=(6, 5, 4))

    def test_registry_lists_only_the_planned_sparse_rung(self):
        from repro.core.plan import available_kernels

        names = available_kernels()
        assert "sparse-planned" in names and "sparse-legacy" not in names
