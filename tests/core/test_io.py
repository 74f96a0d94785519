"""Tests for VTK output, checkpointing and time-series logging."""

import numpy as np
import pytest

from repro.core import (
    Simulation,
    TimeSeriesLogger,
    kinetic_energy,
    load_checkpoint,
    save_checkpoint,
    shear_wave,
    total_mass,
    write_vtk,
)


@pytest.fixture
def sim():
    s = Simulation("D3Q19", (8, 6, 4), tau=0.8)
    rho, u = shear_wave((8, 6, 4), amplitude=1e-3)
    s.initialize(rho, u)
    s.run(5)
    return s


class TestVTK:
    def test_file_structure(self, sim, tmp_path):
        path = write_vtk(tmp_path / "out.vtk", sim)
        text = path.read_text()
        assert text.startswith("# vtk DataFile Version 3.0")
        assert "DIMENSIONS 8 6 4" in text
        assert "POINT_DATA 192" in text
        assert "SCALARS density" in text
        assert "VECTORS velocity" in text

    def test_density_values_roundtrip(self, sim, tmp_path):
        path = write_vtk(tmp_path / "out.vtk", sim, fields=("density",))
        lines = path.read_text().splitlines()
        start = lines.index("LOOKUP_TABLE default") + 1
        values = np.array([float(v) for v in lines[start : start + 192]])
        rho, _ = sim.macroscopic()
        assert values[0] == pytest.approx(rho[0, 0, 0])
        # VTK x-fastest ordering: second value is x=1
        assert values[1] == pytest.approx(rho[1, 0, 0])

    def test_unknown_field_rejected(self, sim, tmp_path):
        with pytest.raises(ValueError, match="unknown fields"):
            write_vtk(tmp_path / "x.vtk", sim, fields=("vorticity",))

    def test_speed_field(self, sim, tmp_path):
        path = write_vtk(tmp_path / "s.vtk", sim, fields=("speed",))
        assert "SCALARS speed" in path.read_text()


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, sim, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, sim)
        restored = load_checkpoint(path)
        assert np.array_equal(restored.f, sim.f)
        assert restored.time_step == sim.time_step
        assert restored.lattice.name == "D3Q19"

    def test_restart_continues_identically(self, sim, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, sim)
        sim.run(10)
        restored = load_checkpoint(path)
        restored.run(10)
        assert np.allclose(restored.f, sim.f, rtol=0, atol=1e-15)

    def test_extra_metadata_roundtrip(self, sim, tmp_path):
        from repro.core import load_checkpoint_data

        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, sim, extra={"case": "taylor-green", "half": 0.5})
        data = load_checkpoint_data(path)
        assert data.extra == {"case": "taylor-green", "half": 0.5}
        assert data.lattice == "D3Q19"
        assert data.tau == pytest.approx(0.8)
        assert data.time_step == sim.time_step
        assert np.array_equal(data.f, sim.f)

    def test_extra_defaults_to_empty(self, sim, tmp_path):
        from repro.core import load_checkpoint_data

        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, sim)
        assert load_checkpoint_data(path).extra == {}

    def test_series_roundtrip_bit_exact(self, sim, tmp_path):
        from repro.core import load_checkpoint_data

        series = {"step": [0.0, 5.0], "mass": [1.0, 0.1 + 0.2]}
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, sim, series=series)
        restored = load_checkpoint_data(path).series
        assert restored == series
        assert restored["mass"][1] == 0.1 + 0.2  # exact bits, not approx

    def test_series_defaults_to_empty(self, sim, tmp_path):
        from repro.core import load_checkpoint_data

        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, sim)
        assert load_checkpoint_data(path).series == {}

    def test_mrt_checkpoint_uses_tau_shear(self, tmp_path):
        from repro.core import HermiteMRTCollision
        from repro.lattice import get_lattice

        lat = get_lattice("D3Q39")
        s = Simulation(lat, (6, 4, 4), collision=HermiteMRTCollision(lat, tau_shear=0.9))
        rho, u = shear_wave((6, 4, 4))
        s.initialize(rho, u)
        path = save_checkpoint(tmp_path / "m.npz", s)
        restored = load_checkpoint(path)
        assert restored.collision.tau == pytest.approx(0.9)


class TestTimeSeriesLogger:
    def test_logging_and_csv(self, tmp_path):
        s = Simulation("D3Q19", (8, 6, 4), tau=0.8)
        rho, u = shear_wave((8, 6, 4), amplitude=1e-3)
        s.initialize(rho, u)
        logger = TimeSeriesLogger(
            {
                "mass": lambda sim: total_mass(sim.f),
                "energy": lambda sim: kinetic_energy(sim.lattice, sim.f),
            }
        )
        s.run(20, monitor=logger, monitor_every=5)
        arr = logger.as_array()
        assert arr.shape == (4, 3)
        assert arr[:, 0].tolist() == [5, 10, 15, 20]
        # mass constant, energy decays
        assert np.allclose(arr[:, 1], arr[0, 1], rtol=1e-12)
        assert arr[-1, 2] < arr[0, 2]

        path = logger.write(tmp_path / "series.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "step,mass,energy"
        assert len(lines) == 5

    def test_empty_logger(self):
        logger = TimeSeriesLogger({"x": lambda s: 0.0})
        assert logger.as_array().shape == (0, 2)


class TestCanonicalSerialization:
    def test_canonical_json_is_insertion_order_independent(self):
        from repro.core import canonical_json

        assert canonical_json({"b": 1, "a": [1, 2]}) == canonical_json(
            {"a": [1, 2], "b": 1}
        )
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_jsonable_converts_numpy_and_tuples(self):
        from repro.core import jsonable

        value = {"a": np.float64(0.5), "b": (np.int64(3), [np.bool_(True)])}
        assert jsonable(value) == {"a": 0.5, "b": [3, [True]]}

    def test_jsonable_rejects_unserialisable(self):
        from repro.core import jsonable

        with pytest.raises(TypeError, match="cannot serialise"):
            jsonable(object())

    def test_result_data_roundtrip_bit_exact(self):
        from repro.core import deserialize_result_data, serialize_result_data

        metrics = {"steps_run": 10, "err": 0.1 + 0.2, "tiny": 4.9e-324}
        series = {"step": [0.0, 5.0], "ke": [np.float64(1e-17), 2.0]}
        checks = {"ok": True}
        text = serialize_result_data(metrics, series, checks)
        m, s, c = deserialize_result_data(text)
        assert m["steps_run"] == 10 and isinstance(m["steps_run"], int)
        assert m["err"] == 0.1 + 0.2  # exact float bits survive
        assert m["tiny"] == 4.9e-324  # denormal min survives
        assert s == {"step": [0.0, 5.0], "ke": [1e-17, 2.0]}
        assert c == {"ok": True}

    def test_serialization_is_canonical_text(self):
        from repro.core import serialize_result_data

        a = serialize_result_data({"x": 1, "y": 2}, {"step": [0.0]}, {})
        b = serialize_result_data({"y": 2, "x": 1}, {"step": [0.0]}, {})
        assert a == b
