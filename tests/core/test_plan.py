"""Planned kernel: zero-allocation property, equivalence, selection."""

import json
import tracemalloc

import numpy as np
import pytest

from repro.core import (
    AUTO_KERNEL,
    BounceBackWalls,
    HermiteMRTCollision,
    KernelPlan,
    NaiveKernel,
    PlannedKernel,
    RegularizedBGKCollision,
    Simulation,
    available_kernels,
    equilibrium,
    make_kernel,
    stream_periodic,
)
from repro.core.plan import build_aos_gather_table, build_gather_table
from repro.errors import LatticeError
from repro.lattice import get_lattice

#: Every (lattice, order) combination any kernel must support: orders up
#: to each lattice's native equilibrium order.
LATTICE_ORDERS = [
    (lname, order)
    for lname in ("D3Q15", "D3Q19", "D3Q27", "D3Q39")
    for order in range(1, get_lattice(lname).equilibrium_order + 1)
]


def _initial_state(lattice, shape, seed=7, dtype=np.float64):
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.02 * rng.standard_normal(shape)
    u = 0.02 * rng.standard_normal((3, *shape))
    f = equilibrium(lattice, rho, u) + 1e-4 * rng.standard_normal(
        (lattice.q, *shape)
    )
    return np.ascontiguousarray(f, dtype=dtype)


class TestGatherTable:
    @pytest.mark.parametrize("lname", ["D3Q19", "D3Q39"])
    def test_matches_roll_streaming(self, lname):
        lat = get_lattice(lname)
        shape = (5, 4, 3)
        f = _initial_state(lat, shape)
        expected = stream_periodic(lat, f)
        table = build_gather_table(lat, shape)
        got = np.take(f.reshape(-1), table).reshape(f.shape)
        assert np.array_equal(got, expected)

    def test_table_is_a_permutation(self, q39):
        table = build_gather_table(q39, (4, 3, 5))
        assert np.array_equal(np.sort(table), np.arange(table.size))

    @pytest.mark.parametrize("lname", ["D3Q15", "D3Q19", "D3Q27", "D3Q39"])
    @pytest.mark.parametrize("shape", [(5, 4, 3), (1, 2, 7), (9, 1, 4)])
    def test_in_place_tables_equal_the_index_grid_construction(
        self, lname, shape
    ):
        """The row-by-row table fill reproduces the construction it
        replaced: a full coordinate grid per velocity, stacked, plus
        per-layout row offsets."""
        lat = get_lattice(lname)
        coords = np.indices(shape)
        flat = np.arange(int(np.prod(shape))).reshape(shape)
        rows = np.stack([
            flat[tuple((coords[a] - int(c[a])) % shape[a] for a in range(3))].ravel()
            for c in lat.velocities
        ])
        n = rows.shape[1]
        soa = (rows + (np.arange(lat.q) * n)[:, None]).reshape(-1)
        aos = (rows * lat.q + np.arange(lat.q)[:, None]).reshape(-1)
        for got, expected in (
            (build_gather_table(lat, shape), soa),
            (build_aos_gather_table(lat, shape), aos),
        ):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
            assert got.flags.c_contiguous and got.flags.writeable


class TestPlannedEquivalence:
    @pytest.mark.parametrize("lname,order", LATTICE_ORDERS)
    def test_planned_matches_naive(self, lname, order):
        """The planned kernel reproduces the literal Fig. 3/4 pseudocode
        on every lattice at every supported expansion order."""
        lat = get_lattice(lname)
        shape = (4, 3, 3)
        f = _initial_state(lat, shape)
        ref = NaiveKernel(lat, tau=0.8, order=order).step(f.copy())
        got = PlannedKernel(lat, tau=0.8, order=order).step(f.copy())
        assert np.allclose(got, ref, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("lname", ["D3Q19", "D3Q39"])
    def test_float32_matches_float64_within_eps(self, lname):
        """Single precision tracks double to O(sqrt(N) * eps32)."""
        lat = get_lattice(lname)
        shape = (5, 4, 3)
        f64 = _initial_state(lat, shape)
        ref = PlannedKernel(lat, tau=0.8).step(f64.copy())
        got = PlannedKernel(lat, tau=0.8, dtype="float32").step(
            f64.astype(np.float32)
        )
        assert got.dtype == np.float32
        assert np.allclose(got, ref, rtol=0, atol=1e-5)

    def test_multi_step_equivalence(self, q39):
        shape = (4, 4, 4)
        f = _initial_state(q39, shape)
        a, b = f.copy(), f.copy()
        naive, planned = NaiveKernel(q39, 0.7), PlannedKernel(q39, 0.7)
        for _ in range(5):
            a = naive.step(a)
            b = planned.step(b)
        assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_plan_rebuilt_on_shape_change(self, q19):
        k = PlannedKernel(q19, 0.8)
        k.step(_initial_state(q19, (4, 4, 4)))
        out = k.step(_initial_state(q19, (5, 4, 3)))
        assert out.shape == (19, 5, 4, 3)

    def test_dtype_mismatch_rejected(self, q19):
        k = PlannedKernel(q19, 0.8, dtype="float32")
        with pytest.raises(LatticeError, match="float32"):
            k.step(_initial_state(q19, (4, 4, 4)))

    def test_strided_view_rejected(self, q19):
        """reshape(-1) on a strided view would silently write into a
        throwaway copy — the kernel must refuse instead."""
        k = PlannedKernel(q19, 0.8)
        f = _initial_state(q19, (4, 4, 8))
        with pytest.raises(LatticeError, match="contiguous"):
            k.step(f[:, :, :, ::2])
        with pytest.raises(LatticeError, match="contiguous"):
            k.stream(f[:, :, :, ::2], out=np.empty_like(f[:, :, :, ::2]))

    def test_split_stream_collide_matches_fused(self, q19):
        """The split API (what Simulation drives) equals the fused step."""
        shape = (5, 4, 3)
        f = _initial_state(q19, shape)
        fused = PlannedKernel(q19, 0.8).step(f.copy())
        k = PlannedKernel(q19, 0.8)
        adv = np.empty_like(f)
        k.stream(f.copy(), out=adv)
        split = k.collide(adv, out=adv)
        assert np.array_equal(split, fused)


class TestZeroAllocation:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_step_allocates_nothing_after_warmup(self, q39, dtype, collide_path):
        """The acceptance property: after the first (plan-building) step,
        PlannedKernel.step makes zero heap allocations — numpy data
        allocations are tracemalloc-traced, so a single hidden
        full-lattice temporary would blow the budget by ~3 orders of
        magnitude.  Checked on the compiled loop and on the reference."""
        shape = (16, 16, 16)
        f = _initial_state(q39, shape, dtype=np.dtype(dtype))
        kernel = PlannedKernel(q39, tau=0.8, dtype=dtype)
        f = kernel.step(f)  # warmup: builds plan + arena
        assert kernel.plan_for(shape).compiled == (collide_path == "compiled")
        tracemalloc.start()
        for _ in range(5):
            f = kernel.step(f)
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # A few transient view objects per step are unavoidable; a field
        # copy would be f.nbytes (~1.3 MB at float32, 2.6 MB at float64).
        assert peak < f.nbytes // 50, f"peak {peak} B vs field {f.nbytes} B"
        assert current < 64 * 1024
        assert np.isfinite(f).all()


class TestSelection:
    def test_registry_names(self):
        assert available_kernels() == ("naive", "planned", "sparse-planned")

    def test_make_kernel_by_name(self, q19):
        for name in available_kernels():
            if name.startswith("sparse-"):
                # the sparse kernel streams a SparseDomain, which only
                # SparseSimulation builds
                with pytest.raises(LatticeError, match="SparseDomain"):
                    make_kernel(name, q19, tau=0.8)
                continue
            kernel = make_kernel(name, q19, tau=0.8)
            assert kernel.name == name

    def test_make_kernel_passthrough_instance(self, q19):
        kernel = NaiveKernel(q19, 0.8)
        assert make_kernel(kernel, q19, tau=0.9) is kernel

    def test_make_kernel_unknown_name(self, q19):
        with pytest.raises(LatticeError, match="unknown kernel"):
            make_kernel("simd", q19, tau=0.8)

    @pytest.mark.parametrize("name", ["fused-gather", "sparse-legacy", "roll", None])
    def test_retired_kernel_names_are_unknown(self, q19, name):
        """Names of retired rungs (and ``None``, the retired legacy pair)
        fail loudly and list the kernels left, rather than resolving to
        another path."""
        with pytest.raises(
            LatticeError,
            match=r"available: naive, planned, sparse-planned \(or 'auto'\)",
        ):
            make_kernel(name, q19, tau=0.8)

    def test_auto_needs_no_shape(self, q19):
        """'auto' is a fixed alias: nothing to time, so no shape needed."""
        assert isinstance(make_kernel(AUTO_KERNEL, q19, tau=0.8), PlannedKernel)


class TestAutoAlias:
    """'auto' is the planned rung on every grid, and it keeps no
    per-host state: nothing under the former calibration root is read
    or written while it resolves."""

    def test_every_lattice(self, lattice):
        kernel = make_kernel(AUTO_KERNEL, lattice, tau=0.8, shape=(6, 5, 4))
        assert isinstance(kernel, PlannedKernel)
        assert kernel.lattice is lattice

    def test_tau_reaches_the_kernel(self, q19):
        assert make_kernel(AUTO_KERNEL, q19, tau=0.9).collision.tau == 0.9

    @pytest.mark.parametrize("layout", ["soa", "aos"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_steps_bit_identical_to_planned(self, layout, dtype):
        shape = (6, 5, 4)
        rng = np.random.default_rng(5)
        u = 0.01 * rng.standard_normal((3, *shape))
        runs = {}
        for kernel in (AUTO_KERNEL, "planned"):
            sim = Simulation(
                "D3Q19", shape, tau=0.8, kernel=kernel, dtype=dtype,
                layout=layout,
            )
            assert isinstance(sim.kernel, PlannedKernel)
            assert sim.layout == layout
            sim.initialize(1.0, u)
            sim.run(3)
            runs[kernel] = sim.f.copy()
        assert runs[AUTO_KERNEL].dtype == np.dtype(dtype)
        assert np.array_equal(runs[AUTO_KERNEL], runs["planned"])

    def test_stale_verdict_records_are_never_read(self, tmp_path, monkeypatch):
        """Verdict files an older release left in the former default
        calibration root (one crowning roll, one corrupt) change nothing
        and stay as they were."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        root = tmp_path / "repro" / "kernel-auto"
        root.mkdir(parents=True)
        records = {
            "roll.json": json.dumps(
                {
                    "key": {"lattice": "D3Q19", "shape": [6, 6, 6]},
                    "kernel": "roll",
                    "timings": {"roll": 1e-4, "planned": 1e-3},
                }
            ),
            "corrupt.json": "{not json",
        }
        for name, text in records.items():
            (root / name).write_text(text)
        sim = Simulation("D3Q19", (6, 6, 6), tau=0.8, kernel=AUTO_KERNEL)
        assert isinstance(sim.kernel, PlannedKernel)
        assert {
            path.name: path.read_text() for path in root.iterdir()
        } == records

    def test_writes_nothing_under_the_calibration_root(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        root = tmp_path / "repro" / "kernel-auto"
        for shape in ((6, 6, 6), (7, 6, 6)):
            for dtype in ("float64", "float32"):
                sim = Simulation(
                    "D3Q19", shape, tau=0.8, kernel=AUTO_KERNEL, dtype=dtype
                )
                sim.initialize(1.0, np.zeros((3, *shape)))
                sim.run(1)
        assert not root.exists()


class TestSimulationPlumbing:
    def _init(self, sim, seed=3):
        rng = np.random.default_rng(seed)
        rho = np.ones(sim.shape)
        u = 0.01 * rng.standard_normal((3, *sim.shape))
        sim.initialize(rho, u)

    def test_default_kernel_is_planned(self):
        """With no kernel named, a simulation steps the planned kernel."""
        shape = (8, 8, 8)
        default = Simulation("D3Q19", shape, tau=0.8)
        planned = Simulation("D3Q19", shape, tau=0.8, kernel="planned")
        assert isinstance(default.kernel, PlannedKernel)
        for sim in (default, planned):
            self._init(sim)
            sim.run(5)
        assert default.f.tobytes() == planned.f.tobytes()

    def test_naive_kernel_drives_simulation(self):
        """kernel='naive' really runs the literal per-cell loops through
        the split stream/collide path (the executable spec end-to-end)."""
        shape = (4, 3, 3)
        ref = Simulation("D3Q19", shape, tau=0.8, kernel="planned")
        sim = Simulation("D3Q19", shape, tau=0.8, kernel="naive")
        self._init(ref)
        self._init(sim)
        ref.run(2)
        sim.run(2)
        assert np.allclose(sim.f, ref.f, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("kernel_cls", [NaiveKernel, PlannedKernel])
    def test_split_api_overridden_not_inherited(self, kernel_cls, q19):
        """Each selectable kernel must supply its own split stream()
        (the interface's only raises)."""
        from repro.core import LBMKernel

        assert kernel_cls.stream is not LBMKernel.stream
        shape = (4, 3, 3)
        f = _initial_state(q19, shape)
        kernel = kernel_cls(q19, 0.8)
        out = kernel.stream(f.copy(), out=np.empty_like(f))
        assert np.array_equal(out, stream_periodic(q19, f))

    def test_kernel_with_boundaries(self):
        """The split stream/collide path keeps kernels usable under
        boundary conditions: planned (walls folded into the gather)
        tracks naive (walls applied after streaming)."""
        shape = (6, 9, 6)
        lat = get_lattice("D3Q19")
        solid = np.zeros(shape, dtype=bool)
        solid[:, 0, :] = solid[:, -1, :] = True

        def build(kernel):
            sim = Simulation(
                lat,
                shape,
                tau=0.9,
                boundaries=[BounceBackWalls(lat, solid)],
                kernel=kernel,
            )
            self._init(sim)
            sim.run(5)
            return sim

        ref = build("naive")
        planned = build("planned")
        assert ref.effective_path["walls"] == "post-stream"
        assert planned.effective_path["walls"] == "folded"
        assert np.allclose(planned.f, ref.f, rtol=0, atol=1e-13)

    def test_kernel_with_forcing(self):
        """Guo forcing fused into the planned collide tracks naive's
        generic forced collide."""
        shape = (6, 9, 6)
        from repro.core import GuoForcing

        lat = get_lattice("D3Q19")

        def build(kernel):
            sim = Simulation(
                lat,
                shape,
                tau=0.9,
                forcing=GuoForcing(lat, (1e-5, 0.0, 0.0)),
                kernel=kernel,
            )
            self._init(sim)
            sim.run(5)
            return sim

        ref = build("naive")
        planned = build("planned")
        assert ref.effective_path["forcing"] == "generic"
        assert np.allclose(planned.f, ref.f, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("kernel,layout", [("naive", "soa"), ("planned", "aos")])
    def test_custom_collision_needs_planned_soa(self, kernel, layout):
        """A custom operator replaces only the planned collide: naive is
        BGK-only, and AoS storage is refused."""
        from repro.core import RegularizedBGKCollision

        lat = get_lattice("D3Q19")
        with pytest.raises(LatticeError, match="runs on the planned kernel"):
            Simulation(
                lat,
                (4, 4, 4),
                kernel=kernel,
                layout=layout,
                collision=RegularizedBGKCollision(lat, 0.8),
            )

    def test_auto_kernel_runs(self):
        sim = Simulation("D3Q19", (6, 6, 6), tau=0.8, kernel="auto")
        assert isinstance(sim.kernel, PlannedKernel)
        self._init(sim)
        sim.run(3)
        assert np.isfinite(sim.f).all()

    def test_float32_simulation_tracks_float64(self):
        shape = (8, 8, 8)
        ref = Simulation("D3Q19", shape, tau=0.8, kernel="planned")
        sim = Simulation(
            "D3Q19", shape, tau=0.8, kernel="planned", dtype="float32"
        )
        self._init(ref)
        self._init(sim)
        assert sim.f.dtype == np.float32
        ref.run(10)
        sim.run(10)
        assert np.allclose(sim.f, ref.f, rtol=0, atol=1e-4)


class TestCustomCollision:
    """A custom operator rides the planned stream.  Streaming is a
    permutation, so the gather writes exactly the bytes
    ``stream_periodic`` writes, and the step equals the retired legacy
    pair (``stream_periodic``, static walls, then the operator) byte for
    byte."""

    OPERATORS = {
        "regularized": lambda lat: RegularizedBGKCollision(lat, tau=0.8),
        "mrt": lambda lat: HermiteMRTCollision(lat, tau_shear=0.8, tau_bulk=0.9),
    }

    @pytest.mark.parametrize("walled", [False, True], ids=["open", "walled"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("lname", ["D3Q15", "D3Q19", "D3Q27", "D3Q39"])
    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    def test_equals_stream_periodic_then_operator(
        self, operator, lname, dtype, walled
    ):
        lat = get_lattice(lname)
        shape = (5, 6, 3)
        op = self.OPERATORS[operator](lat)
        walls = []
        if walled:
            solid = np.zeros(shape, dtype=bool)
            solid[:, 0, :] = solid[:, -1, :] = True
            walls = [BounceBackWalls(lat, solid)]
        sim = Simulation(lat, shape, collision=op, boundaries=walls, dtype=dtype)
        rng = np.random.default_rng(4)
        sim.initialize(1.0, 0.02 * rng.standard_normal((3, *shape)))
        f = sim.f.copy()
        sim.run(3)
        for _ in range(3):
            adv = stream_periodic(lat, f)
            for bc in walls:
                bc.apply(adv, f)
            op.apply(adv, out=f)
        assert sim.f.dtype == np.dtype(dtype)
        assert sim.f.tobytes() == f.tobytes()
        assert sim.collision is op
        assert sim.effective_path == {
            "stream": "gather",
            "walls": "folded" if walled else "none",
            "collide": "generic",
            "forcing": "none",
        }

    def test_kernel_takes_the_operators_relaxation(self, q19):
        """The plan is built with tau = 1 / op.omega; the BGK ``tau``
        argument goes unused and is not checked."""
        op = HermiteMRTCollision(q19, tau_shear=0.9)
        sim = Simulation(q19, (4, 4, 4), tau=0.3, collision=op)
        assert sim.kernel.collision.omega == pytest.approx(op.omega, rel=1e-15)

    def test_forcing_with_a_custom_collision_is_not_implemented(self, q19):
        from repro.core import GuoForcing

        with pytest.raises(NotImplementedError, match="custom collision"):
            Simulation(
                q19,
                (4, 4, 4),
                collision=RegularizedBGKCollision(q19, tau=0.8),
                forcing=GuoForcing(q19, (1e-5, 0.0, 0.0)),
            )


class TestKernelPlanObject:
    def test_arena_accounting(self, q19):
        plan = KernelPlan(q19, (8, 8, 8))
        assert plan.num_cells == 512
        assert plan.nbytes > 0
        assert plan.dtype == np.float64

    def test_bad_shape_rejected(self, q19):
        with pytest.raises(LatticeError):
            KernelPlan(q19, (8, 8))

    def test_order_above_lattice_rejected(self, q19):
        with pytest.raises(LatticeError):
            KernelPlan(q19, (4, 4, 4), order=3)

