"""The float32/float64 dtype policy across fields, equilibria, moments, io."""

import numpy as np
import pytest

from repro.core import (
    DistributionField,
    Simulation,
    compute_dtype,
    equilibrium,
    load_checkpoint,
    load_checkpoint_data,
    macroscopic,
    momentum,
    resolve_dtype,
    save_checkpoint,
)
from repro.errors import LatticeError


class TestResolveDtype:
    def test_accepted_spellings(self):
        assert resolve_dtype(None) == np.float64
        assert resolve_dtype("float64") == np.float64
        assert resolve_dtype("float32") == np.float32
        assert resolve_dtype(np.float32) == np.float32
        assert resolve_dtype(np.dtype(np.float64)) == np.float64

    @pytest.mark.parametrize("bad", ["float16", "int32", "complex128", object])
    def test_rejected(self, bad):
        with pytest.raises(LatticeError):
            resolve_dtype(bad)


class TestComputeDtype:
    def test_float32_arrays_stay_float32(self):
        a = np.ones(3, dtype=np.float32)
        assert compute_dtype(a, a) == np.float32

    def test_python_scalars_are_weak(self):
        a = np.ones(3, dtype=np.float32)
        assert compute_dtype(1.0, a) == np.float32
        assert compute_dtype(2, a) == np.float32

    def test_mixed_promotes_to_float64(self):
        a32 = np.ones(3, dtype=np.float32)
        a64 = np.ones(3)
        assert compute_dtype(a32, a64) == np.float64

    def test_default_is_float64(self):
        assert compute_dtype() == np.float64
        assert compute_dtype(1.0) == np.float64
        assert compute_dtype(np.ones(3, dtype=int)) == np.float64


class TestFieldDtype:
    def test_float32_preserved(self, q19):
        data = np.zeros((q19.q, 4, 4, 4), dtype=np.float32)
        field = DistributionField(q19, data)
        assert field.dtype == np.float32

    def test_other_dtypes_become_float64(self, q19):
        data = np.zeros((q19.q, 4, 4, 4), dtype=np.int32)
        assert DistributionField(q19, data).dtype == np.float64

    def test_zeros_dtype(self, q19):
        assert DistributionField.zeros(q19, (4, 4, 4)).dtype == np.float64
        f32 = DistributionField.zeros(q19, (4, 4, 4), dtype="float32")
        assert f32.dtype == np.float32

    def test_from_equilibrium_dtype(self, q19):
        rho = np.ones((4, 4, 4))
        u = np.zeros((3, 4, 4, 4))
        field = DistributionField.from_equilibrium(q19, rho, u, dtype="float32")
        assert field.dtype == np.float32
        assert np.allclose(field.data.sum(axis=0), 1.0, atol=1e-6)

    def test_astype_roundtrip(self, q19):
        field = DistributionField.zeros(q19, (4, 4, 4))
        field.data[...] = np.random.default_rng(0).random(field.data.shape)
        cast = field.astype("float32")
        assert cast.dtype == np.float32
        back = cast.astype("float64")
        assert np.allclose(back.data, field.data, atol=1e-7)


class TestEquilibriumDtype:
    def test_follows_inputs(self, q19):
        rho32 = np.ones((3, 3, 3), dtype=np.float32)
        u32 = np.zeros((3, 3, 3, 3), dtype=np.float32)
        assert equilibrium(q19, rho32, u32).dtype == np.float32
        assert equilibrium(q19, rho32.astype(np.float64), u32).dtype == np.float64

    def test_explicit_dtype_wins(self, q19):
        rho = np.ones((3, 3, 3))
        u = np.zeros((3, 3, 3, 3))
        assert equilibrium(q19, rho, u, dtype="float32").dtype == np.float32

    def test_out_dtype_wins(self, q19):
        rho = np.ones((3, 3, 3))
        u = np.zeros((3, 3, 3, 3))
        out = np.empty((q19.q, 3, 3, 3), dtype=np.float32)
        got = equilibrium(q19, rho, u, out=out)
        assert got is out

    def test_float32_close_to_float64(self, paper_lattice, make_random_state):
        rho, u = make_random_state(paper_lattice, (4, 4, 4))
        f64 = equilibrium(paper_lattice, rho, u)
        f32 = equilibrium(
            paper_lattice,
            rho.astype(np.float32),
            u.astype(np.float32),
        )
        assert f32.dtype == np.float32
        assert np.allclose(f32, f64, atol=1e-6)


class TestMomentDtype:
    def test_macroscopic_preserves_float32(self, q19, make_random_state):
        rho, u = make_random_state(q19, (4, 4, 4))
        f = equilibrium(q19, rho, u, dtype="float32")
        rho32, u32 = macroscopic(q19, f)
        assert rho32.dtype == np.float32
        assert u32.dtype == np.float32
        assert momentum(q19, f).dtype == np.float32

    def test_velocity_cast_cache_is_shared(self, q19):
        a = q19.velocities_as(np.float32)
        b = q19.velocities_as("float32")
        assert a is b
        assert not a.flags.writeable
        assert q19.weights_as(np.float64).dtype == np.float64


class TestCheckpointDtype:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_roundtrip_preserves_dtype(self, tmp_path, dtype):
        sim = Simulation("D3Q19", (4, 4, 4), tau=0.8, dtype=dtype)
        rng = np.random.default_rng(1)
        sim.initialize(np.ones(sim.shape), 0.01 * rng.standard_normal((3, 4, 4, 4)))
        sim.run(3)
        path = tmp_path / "state.npz"
        save_checkpoint(path, sim)
        data = load_checkpoint_data(path)
        assert data.dtype == dtype
        assert str(data.f.dtype) == dtype
        restored = load_checkpoint(path)
        assert str(restored.f.dtype) == dtype
        assert np.array_equal(restored.f, sim.f)

    def test_roundtrip_preserves_kernel(self, tmp_path):
        sim = Simulation("D3Q19", (4, 4, 4), tau=0.8, kernel="planned")
        sim.initialize(np.ones(sim.shape), np.zeros((3, 4, 4, 4)))
        sim.run(2)
        path = tmp_path / "k.npz"
        save_checkpoint(path, sim)
        data = load_checkpoint_data(path)
        assert data.kernel == "planned"
        restored = load_checkpoint(path)
        assert restored.kernel is not None
        assert restored.kernel.name == "planned"
        # legacy-pair checkpoints restore with no kernel
        legacy = Simulation("D3Q19", (4, 4, 4), tau=0.8)
        legacy.initialize(np.ones(legacy.shape), np.zeros((3, 4, 4, 4)))
        save_checkpoint(path, legacy)
        assert load_checkpoint_data(path).kernel is None
        assert load_checkpoint(path).kernel is None

    def test_restored_simulation_continues_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(2)
        u0 = 0.01 * rng.standard_normal((3, 4, 4, 4))
        sim = Simulation("D3Q19", (4, 4, 4), tau=0.8, dtype="float32")
        sim.initialize(np.ones(sim.shape), u0)
        sim.run(2)
        path = tmp_path / "mid.npz"
        save_checkpoint(path, sim)
        sim.run(3)
        resumed = load_checkpoint(path)
        resumed.run(3)
        assert np.array_equal(resumed.f, sim.f)


class TestRunnerDtypeGuard:
    def test_cross_dtype_restore_rejected(self, tmp_path):
        from repro.errors import ScenarioError
        from repro.scenarios import CaseRunner

        runner64 = CaseRunner("taylor-green", steps=4, monitor_every=2)
        path = tmp_path / "tg.npz"
        result = runner64.run(checkpoint=path)
        assert result.metrics["steps_run"] == 4
        runner32 = CaseRunner(
            "taylor-green", steps=8, monitor_every=2, dtype="float32"
        )
        with pytest.raises(ScenarioError, match="dtype"):
            runner32.run(resume=path)

    def test_cross_kernel_restore_rejected(self, tmp_path):
        from repro.errors import ScenarioError
        from repro.scenarios import CaseRunner

        planned = CaseRunner(
            "taylor-green", steps=4, monitor_every=2, kernel="planned"
        )
        path = tmp_path / "tg.npz"
        planned.run(checkpoint=path)
        roll = CaseRunner(
            "taylor-green", steps=8, monitor_every=2, kernel="roll"
        )
        with pytest.raises(ScenarioError, match="kernel"):
            roll.run(resume=path)
        # same-kernel resume continues fine
        again = CaseRunner(
            "taylor-green", steps=8, monitor_every=2, kernel="planned"
        )
        result = again.run(resume=path)
        assert result.metrics["steps_run"] == 8
