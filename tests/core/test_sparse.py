"""Tests for the indirect-addressing sparse domain."""

import tracemalloc

import numpy as np
import pytest

from repro.core import Simulation, shear_wave, sphere_mask
from repro.core.sparse import (
    LegacySparseKernel,
    PlannedSparseKernel,
    SparseDomain,
    SparseSimulation,
    build_sparse_gather_table,
    make_sparse_kernel,
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
        """No walls: indirect addressing must equal the dense solver."""
        shape = (12, 6, 6)
        rho, u = shear_wave(shape, amplitude=1e-3)
        dense = Simulation("D3Q19", shape, tau=0.8)
        dense.initialize(rho, u)
        dense.run(10)

        sparse = SparseSimulation("D3Q19", np.zeros(shape, dtype=bool), tau=0.8)
        sparse.initialize(rho, u)
        sparse.run(10)
        rho_s = sparse.density_dense()
        from repro.core import density

        assert np.allclose(rho_s, density(dense.f), atol=1e-13)
        u_s = sparse.velocity_dense()
        from repro.core import macroscopic

        _, u_d = macroscopic(dense.lattice, dense.f)
        assert np.allclose(u_s, u_d, atol=1e-13)

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
        assert np.allclose(runs["float32"], runs["float64"], atol=1e-5)

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
    """Planned vs legacy rung: same arithmetic, matched to the dense
    kernel matrix's tolerances (the gather is an exact permutation)."""

    @pytest.mark.parametrize("lattice", ["D3Q15", "D3Q19", "D3Q27"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_planned_matches_legacy(self, lattice, dtype):
        shape = (10, 9, 8)
        mask = _walled_sphere_mask(shape)
        runs = {}
        for kernel in ("legacy", "planned"):
            sim = SparseSimulation(
                lattice, mask, tau=0.8, force=(1e-5, 0, 0),
                dtype=dtype, kernel=kernel,
            )
            sim.initialize(1.0)
            sim.run(10)
            assert sim.kernel.name == f"sparse-{kernel}"
            runs[kernel] = sim.f.astype(np.float64)
        atol = 1e-13 if dtype == "float64" else 1e-5
        assert np.allclose(runs["planned"], runs["legacy"], atol=atol)

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
    def test_step_is_zero_allocation(self):
        """The tentpole claim: after construction, stepping the planned
        sparse kernel (with forcing) allocates nothing on the heap."""
        mask = _walled_sphere_mask((12, 10, 8))
        sim = SparseSimulation(
            "D3Q19", mask, tau=0.8, force=(1e-6, 0, 0), kernel="planned"
        )
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

    def test_legacy_step_allocates(self):
        """Contrast: the legacy rung's fancy-index gather allocates a
        fresh (Q, N) array every step — the cost the plan removes."""
        mask = _walled_sphere_mask((12, 10, 8))
        sim = SparseSimulation("D3Q19", mask, tau=0.8, kernel="legacy")
        sim.initialize(1.0)
        sim.run(3)
        tracemalloc.start()
        sim.step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak >= sim.f.nbytes

    def test_planned_step_is_in_place(self):
        mask = np.zeros((6, 5, 4), dtype=bool)
        sim = SparseSimulation("D3Q19", mask, tau=0.8, kernel="planned")
        sim.initialize(1.0)
        buffer = sim.f
        sim.run(4)
        assert sim.f is buffer


class TestSparseKernelSelection:
    def _domain(self, q19):
        return SparseDomain(q19, _walled_sphere_mask((8, 7, 6)))

    def test_default_is_legacy(self, q19):
        kernel = make_sparse_kernel(None, self._domain(q19), 0.8)
        assert isinstance(kernel, LegacySparseKernel)

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("legacy", LegacySparseKernel),
            ("planned", PlannedSparseKernel),
            ("sparse-legacy", LegacySparseKernel),
            ("sparse-planned", PlannedSparseKernel),
            ("auto", PlannedSparseKernel),
        ],
    )
    def test_names_and_aliases(self, q19, name, cls):
        kernel = make_sparse_kernel(name, self._domain(q19), 0.8)
        assert isinstance(kernel, cls)

    def test_instance_passthrough(self, q19):
        dom = self._domain(q19)
        kernel = PlannedSparseKernel(dom, 0.8)
        assert make_sparse_kernel(kernel, dom, 0.8) is kernel

    def test_unknown_name_rejected(self, q19):
        with pytest.raises(LatticeError, match="unknown sparse kernel"):
            make_sparse_kernel("roll", self._domain(q19), 0.8)

    def test_dense_make_kernel_routes_through_domain(self, q19):
        from repro.core.plan import make_kernel

        dom = self._domain(q19)
        kernel = make_kernel("sparse-planned", q19, 0.8, domain=dom)
        assert isinstance(kernel, PlannedSparseKernel)

    def test_dense_make_kernel_without_domain_rejects_sparse_names(self, q19):
        from repro.core.plan import make_kernel

        with pytest.raises(LatticeError, match="SparseDomain"):
            make_kernel("sparse-planned", q19, 0.8, shape=(6, 5, 4))

    def test_aos_layout_rejected_on_sparse_domain(self, q19):
        from repro.core.plan import make_kernel

        with pytest.raises(LatticeError, match="per fluid site"):
            make_kernel("sparse-planned", q19, 0.8, domain=self._domain(q19),
                        layout="aos")

    def test_registry_lists_sparse_rungs(self):
        from repro.core.plan import available_kernels

        names = available_kernels()
        assert "sparse-legacy" in names and "sparse-planned" in names


class TestSparseAutoSelection:
    def test_simulation_auto_kernel(self, q19, tmp_path):
        mask = _walled_sphere_mask((8, 7, 6))
        sim = SparseSimulation("D3Q19", mask, tau=0.8, kernel="auto")
        assert isinstance(sim.kernel, PlannedSparseKernel)
        sim.initialize(1.0)
        sim.run(3)
        assert np.isfinite(sim.f).all()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_auto_steps_bit_identical_to_planned(self, dtype):
        mask = _walled_sphere_mask((8, 7, 6))
        runs = {}
        for kernel in ("auto", "planned"):
            sim = SparseSimulation(
                "D3Q19", mask, tau=0.8, force=(1e-5, 0, 0),
                dtype=dtype, kernel=kernel,
            )
            assert sim.kernel.name == "sparse-planned"
            sim.initialize(1.0)
            sim.run(5)
            runs[kernel] = sim.f.copy()
        assert runs["auto"].dtype == np.dtype(dtype)
        assert np.array_equal(runs["auto"], runs["planned"])
