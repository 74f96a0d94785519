"""The field layout axis: SoA and AoS storage through the planned kernel."""

import numpy as np
import pytest

from repro.core import PlannedKernel, RollKernel, equilibrium


def _state(lattice, shape=(5, 4, 3), seed=2):
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.02 * rng.standard_normal(shape)
    u = 0.02 * rng.standard_normal((3, *shape))
    return equilibrium(lattice, rho, u) + 1e-4 * rng.standard_normal(
        (lattice.q, *shape)
    )


class TestFieldLayouts:
    """The layout axis on DistributionField and the planned kernel."""

    def test_resolve_layout(self):
        from repro.core import LAYOUT_AOS, LAYOUT_SOA, resolve_layout
        from repro.errors import LatticeError

        assert resolve_layout(None) == LAYOUT_SOA
        assert resolve_layout("soa") == LAYOUT_SOA
        assert resolve_layout("aos") == LAYOUT_AOS
        with pytest.raises(LatticeError, match="unsupported field layout"):
            resolve_layout("csoa")

    def test_aos_field_is_cell_major(self, q19):
        from repro.core import DistributionField

        field = DistributionField.zeros(q19, (5, 4, 3), layout="aos")
        # Logical shape stays (Q, *shape); the underlying buffer is
        # cell-major, so the moveaxis view is the contiguous one.
        assert field.data.shape == (q19.q, 5, 4, 3)
        assert np.moveaxis(field.data, 0, -1).flags.c_contiguous
        assert not field.data.flags.c_contiguous

    def test_as_soa_copies_contiguously(self, q19, rng):
        from repro.core import DistributionField

        data = rng.random((q19.q, 4, 4, 3))
        field = DistributionField(q19, data.copy(), layout="aos")
        soa = field.as_soa()
        assert soa.flags.c_contiguous
        assert np.array_equal(soa, field.data)

    def test_copy_and_astype_preserve_layout(self, q19):
        from repro.core import DistributionField

        field = DistributionField.zeros(q19, (4, 4, 3), layout="aos")
        assert field.copy().layout == "aos"
        assert field.astype("float32").layout == "aos"


class TestSimulationLayoutEquivalence:
    """soa and aos runs must be byte-identical per dtype: every layout
    transform is an exact permutation and the collision arithmetic is
    shared, so not even the last bit may differ."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_byte_identical_plain(self, dtype):
        from repro.core import Simulation, shear_wave

        shape = (8, 6, 5)
        rho, u = shear_wave(shape, amplitude=1e-3)
        runs = {}
        for layout in ("soa", "aos"):
            sim = Simulation(
                "D3Q19", shape, tau=0.8, kernel="planned",
                dtype=dtype, layout=layout,
            )
            sim.initialize(rho, u)
            sim.run(8)
            runs[layout] = sim.f
        assert np.array_equal(runs["soa"], runs["aos"])

    def test_byte_identical_with_walls_and_forcing(self):
        from repro.core import BounceBackWalls, GuoForcing, Simulation
        from repro.lattice import get_lattice

        lat = get_lattice("D3Q19")
        shape = (8, 7, 5)
        mask = np.zeros(shape, dtype=bool)
        mask[:, 0, :] = mask[:, -1, :] = True
        runs = {}
        for layout in ("soa", "aos"):
            sim = Simulation(
                lat, shape, tau=0.9, kernel="planned", layout=layout,
                boundaries=[BounceBackWalls(lat, mask)],
                forcing=GuoForcing(lat, (1e-6, 0.0, 0.0)),
            )
            sim.initialize(1.0, np.zeros((3, *shape)))
            sim.run(10)
            runs[layout] = sim.f
        assert np.array_equal(runs["soa"], runs["aos"])

    def test_aos_requires_planned_kernel(self):
        from repro.core import Simulation
        from repro.errors import LatticeError

        with pytest.raises(LatticeError, match="requires a kernel"):
            Simulation("D3Q19", (6, 5, 4), layout="aos")
        with pytest.raises(LatticeError, match="planned"):
            Simulation("D3Q19", (6, 5, 4), kernel="roll", layout="aos")

    def test_aos_multi_step_matches_roll(self, q39):
        """The paper's §V-B layout study on the planned kernel: several
        D3Q39 steps on cell-major storage track the velocity-major roll
        kernel (AoS in, AoS out through the split stream/collide)."""
        f = _state(q39, shape=(4, 4, 4))
        roll = RollKernel(q39, 0.7)
        planned = PlannedKernel(q39, 0.7, layout="aos")
        a = f.copy()
        b = np.moveaxis(np.ascontiguousarray(np.moveaxis(f, 0, -1)), -1, 0)
        adv = np.empty_like(f)
        for _ in range(4):
            a = roll.step(a)
            planned.stream(b, out=adv)
            planned.collide(adv, out=b)
        assert np.allclose(b, a, rtol=0, atol=1e-12)

    def test_aos_run_conserves_mass(self):
        from repro.core import Simulation, shear_wave

        shape = (6, 5, 4)
        rho, u = shear_wave(shape, amplitude=1e-3)
        sim = Simulation("D3Q19", shape, tau=0.8, kernel="planned", layout="aos")
        sim.initialize(rho, u)
        m0 = sim.f.sum()
        sim.run(6)
        assert sim.f.sum() == pytest.approx(m0, rel=1e-13)

    def test_aos_auto_resolves_to_planned(self):
        from repro.core import Simulation

        sim = Simulation("D3Q19", (6, 5, 4), kernel="auto", layout="aos")
        assert sim.kernel.name == "planned"

    def test_aos_planned_step_is_zero_allocation(self):
        import tracemalloc

        from repro.core import Simulation, shear_wave

        shape = (16, 16, 16)
        rho, u = shear_wave(shape, amplitude=1e-3)
        sim = Simulation("D3Q19", shape, tau=0.8, kernel="planned", layout="aos")
        sim.initialize(rho, u)
        sim.run(3)
        tracemalloc.start()
        for _ in range(5):
            sim.step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < sim.field.data.nbytes // 50
