"""Integration tests of the single-domain driver (physics anchors)."""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    BounceBackWalls,
    GuoForcing,
    Simulation,
    equilibrium,
    load_checkpoint,
    save_checkpoint,
    kinetic_energy,
    macroscopic,
    shear_wave,
    taylor_green,
    total_mass,
    total_momentum,
    uniform_flow,
)
from repro.errors import StabilityError
from repro.lattice import get_lattice
from repro.scenarios import CaseRunner


class TestShearWaveViscometry:
    """The decay rate pins nu = cs2 (tau - 1/2) — the core physics check."""

    @pytest.mark.parametrize("lname", ["D3Q19", "D3Q39"])
    @pytest.mark.parametrize("tau", [0.65, 0.8, 1.2])
    def test_decay_rate(self, lname, tau):
        shape = (32, 6, 6)
        sim = Simulation(lname, shape, tau=tau)
        rho, u = shear_wave(shape, amplitude=1e-4)
        sim.initialize(rho, u)
        steps = 150
        sim.run(steps)
        _, uu = macroscopic(sim.lattice, sim.f)
        amp = np.abs(uu[1]).max()
        nu = sim.lattice.cs2_float * (tau - 0.5)
        k = 2 * np.pi / shape[0]
        expected = 1e-4 * np.exp(-nu * k * k * steps)
        # discrete-lattice dispersion grows with tau; 3% covers tau=1.2
        assert amp == pytest.approx(expected, rel=0.03)

    def test_order2_vs_order3_agree_at_low_mach(self):
        """On D3Q39 the extra Hermite term is O(Ma^3) — negligible here."""
        shape = (24, 6, 6)
        results = []
        for order in (2, 3):
            sim = Simulation("D3Q39", shape, tau=0.8, order=order)
            rho, u = shear_wave(shape, amplitude=1e-5)
            sim.initialize(rho, u)
            sim.run(60)
            results.append(sim.f.copy())
        assert np.allclose(results[0], results[1], rtol=0, atol=1e-12)


class TestTaylorGreen:
    @pytest.mark.parametrize("lname", ["D3Q19", "D3Q39"])
    def test_energy_decay(self, lname):
        """Windowed decay rate (skips the acoustic transient of the
        pressure-less initialisation)."""
        shape = (24, 24, 4)
        sim = Simulation(lname, shape, tau=0.7)
        rho, u = taylor_green(shape, u0=1e-3)
        sim.initialize(rho, u)
        sim.run(60)
        e_mid = kinetic_energy(sim.lattice, sim.f)
        sim.run(60)
        e_end = kinetic_energy(sim.lattice, sim.f)
        nu = sim.lattice.cs2_float * 0.2
        k = 2 * np.pi / 24
        expected = np.exp(-4 * nu * k * k * 60)
        # D3Q39's longer velocities carry larger O(k^2) dispersion error
        assert e_end / e_mid == pytest.approx(expected, rel=0.05)

    def test_requires_square_cross_section(self):
        with pytest.raises(ValueError):
            taylor_green((16, 24, 4))


class TestConservation:
    @pytest.mark.parametrize("lname", ["D3Q19", "D3Q39"])
    def test_mass_and_momentum_exact(self, lname, rng):
        shape = (10, 8, 6)
        sim = Simulation(lname, shape, tau=0.9)
        rho = 1.0 + 0.01 * rng.standard_normal(shape)
        u = 0.01 * rng.standard_normal((3, *shape))
        sim.initialize(rho, u)
        m0 = total_mass(sim.f)
        p0 = total_momentum(sim.lattice, sim.f)
        sim.run(25)
        assert total_mass(sim.f) == pytest.approx(m0, rel=1e-13)
        assert np.allclose(total_momentum(sim.lattice, sim.f), p0, rtol=0, atol=1e-11)


class TestSoundSpeed:
    @pytest.mark.parametrize("lname,cs2", [("D3Q19", 1 / 3), ("D3Q39", 2 / 3)])
    def test_pulse_front_speed(self, lname, cs2):
        """An acoustic pulse front travels at c_s — physically different
        between the two lattices (1/sqrt(3) vs sqrt(2/3))."""
        n = 48
        shape = (n, 4, 4)
        sim = Simulation(lname, shape, tau=0.55)
        rho = np.ones(shape)
        rho[n // 2] += 1e-4  # plane pulse
        u = np.zeros((3, *shape))
        sim.initialize(rho, u)
        steps = 12
        sim.run(steps)
        rho_out, _ = macroscopic(sim.lattice, sim.f)
        profile = rho_out.mean(axis=(1, 2)) - 1.0
        # front position = argmax of the rightward-travelling wave
        right = profile[n // 2 : n // 2 + 24]
        front = int(np.argmax(right))
        expected = np.sqrt(cs2) * steps
        assert front == pytest.approx(expected, abs=1.5)


class TestDriverMechanics:
    def test_stability_check_raises(self):
        """The periodic check reports non-finite populations."""
        sim = Simulation("D3Q19", (8, 8, 8), tau=0.8)
        rho, u = uniform_flow((8, 8, 8))
        sim.initialize(rho, u)
        sim.field.data[0, 0, 0, 0] = np.inf
        with pytest.raises(StabilityError, match="non-finite"):
            sim.run(10, check_stability_every=1)

    def test_stability_check_off_by_default(self):
        sim = Simulation("D3Q19", (6, 6, 6), tau=0.8)
        rho, u = uniform_flow((6, 6, 6))
        sim.initialize(rho, u)
        sim.field.data[0, 0, 0, 0] = np.nan
        sim.run(3)  # does not raise without the check

    def test_monitor_called(self):
        sim = Simulation("D3Q19", (6, 6, 6), tau=0.8)
        rho, u = uniform_flow((6, 6, 6))
        sim.initialize(rho, u)
        calls = []
        sim.run(10, monitor=lambda s: calls.append(s.time_step), monitor_every=2)
        assert calls == [2, 4, 6, 8, 10]

    def test_timings_accumulate(self):
        sim = Simulation("D3Q19", (8, 8, 8), tau=0.8)
        rho, u = uniform_flow((8, 8, 8))
        sim.initialize(rho, u)
        sim.run(5)
        assert sim.timings.steps == 5
        assert sim.timings.total_seconds > 0
        assert sim.mflups() > 0

    def test_initialize_resets_clock(self):
        sim = Simulation("D3Q19", (6, 6, 6), tau=0.8)
        rho, u = uniform_flow((6, 6, 6))
        sim.initialize(rho, u)
        sim.run(3)
        sim.initialize(rho, u)
        assert sim.time_step == 0
        assert sim.timings.steps == 0

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"kernel": "planned"}, {"kernel": "planned", "layout": "aos"},
         {"kernel": "planned", "dtype": "float32"}],
    )
    def test_initialize_writes_the_existing_buffers(self, paper_lattice, kwargs):
        """``initialize`` fills the arrays ``__init__`` allocated (no
        second population array) with ``equilibrium()``'s bytes."""
        shape = (6, 4, 3)
        sim = Simulation(paper_lattice, shape, tau=0.8, **kwargs)
        field, adv = sim.field.data, sim._adv.data
        rho = 1.0 + 0.01 * np.random.default_rng(1).standard_normal(shape)
        _, u = taylor_green((6, 6, 3), u0=0.02)
        u = np.ascontiguousarray(u[:, :, :4])
        sim.initialize(rho, u)
        assert sim.field.data is field and sim._adv.data is adv
        expected = equilibrium(paper_lattice, rho, u, dtype=sim.dtype)
        assert sim.f.tobytes() == expected.tobytes()

    def test_uninitialized_populations_are_zero(self):
        sim = Simulation("D3Q19", (4, 4, 4), tau=0.8, kernel="planned")
        assert not sim.f.any()

    def test_uniform_flow_is_invariant(self, paper_lattice):
        """A uniform moving fluid in a periodic box stays exactly uniform."""
        shape = (6, 6, 6)
        sim = Simulation(paper_lattice, shape, tau=0.8)
        rho, u = uniform_flow(shape, velocity=(0.02, -0.01, 0.005))
        sim.initialize(rho, u)
        f0 = sim.f.copy()
        sim.run(8)
        assert np.allclose(sim.f, f0, rtol=0, atol=1e-13)


class TestFusedStepSwapsBuffers:
    """A fused step writes the advection array, which becomes the field:
    nothing that reads the populations between steps may notice."""

    SHAPE = (6, 5, 4)

    def _sim(self, layout=None, dtype=None):
        lat = get_lattice("D3Q19")
        solid = np.zeros(self.SHAPE, dtype=bool)
        solid[:, 0, :] = True
        sim = Simulation(
            lat, self.SHAPE, tau=0.8, layout=layout, dtype=dtype,
            boundaries=[BounceBackWalls(lat, solid)],
            forcing=GuoForcing(lat, (1e-5, 0.0, 0.0)),
        )
        rho, u = uniform_flow(self.SHAPE, velocity=(0.01, 0.0, 0.005))
        sim.initialize(rho, u)
        return sim

    def test_field_and_advection_arrays_swap(self):
        sim = self._sim()
        field, adv = sim.field.data, sim._adv.data
        sim.step()
        assert sim.field.data is adv and sim._adv.data is field
        assert sim.f is adv
        sim.step()
        assert sim.field.data is field and sim._adv.data is adv

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_monitor_sees_every_step(self, dtype):
        """Against the AoS layout, whose fused step scatters back into
        the field instead of swapping arrays: same bytes at every step a
        monitor reads."""
        fused, aos = self._sim(dtype=dtype), self._sim(layout="aos", dtype=dtype)
        assert fused.effective_path["stream"] == "fused"
        assert aos.effective_path["stream"] == "fused"
        aos_field = aos.field.data
        seen = {id(fused): [], id(aos): []}

        def monitor(sim):
            seen[id(sim)].append((sim.time_step, sim.f.tobytes()))

        for sim in (fused, aos):
            sim.run(5, monitor=monitor)
        assert aos.field.data is aos_field
        assert [t for t, _ in seen[id(fused)]] == [1, 2, 3, 4, 5]
        assert seen[id(fused)] == seen[id(aos)]
        assert len({f for _, f in seen[id(fused)]}) == 5

    def test_odd_step_checkpoint_resumes_bit_exact(self, tmp_path):
        """Saved after an odd step count, when the field is the array
        allocated as the advection scratch."""
        rho, u = taylor_green((8, 8, 4), u0=0.02)
        straight = Simulation("D3Q19", (8, 8, 4), tau=0.7)
        straight.initialize(rho, u)
        straight.run(7)
        first = Simulation("D3Q19", (8, 8, 4), tau=0.7)
        first.initialize(rho, u)
        adv = first._adv.data
        first.run(3)
        assert first.field.data is adv
        path = save_checkpoint(tmp_path / "odd.npz", first)
        resumed = load_checkpoint(path)
        assert resumed.time_step == 3
        resumed.run(4)
        assert resumed.f.tobytes() == straight.f.tobytes()

    @pytest.mark.parametrize("name", ["artery-flow", "taylor-green"])
    def test_odd_step_case_checkpoint_resumes_bit_exact(self, tmp_path, name):
        path = tmp_path / "odd.npz"
        CaseRunner(name, steps=5, monitor_every=1).run(
            checkpoint=path, analyze=False
        )
        resumed = CaseRunner(name, steps=9, monitor_every=1).run(
            resume=path, analyze=False
        )
        straight = CaseRunner(name, steps=9, monitor_every=1).run(analyze=False)
        assert resumed.simulation.effective_path["stream"] == "fused"
        assert resumed.simulation.f.tobytes() == straight.simulation.f.tobytes()
        assert resumed.series == straight.series

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_fused_step_allocates_nothing(self, dtype, collide_path):
        sim = Simulation("D3Q39", (16, 16, 16), tau=0.8, dtype=dtype)
        assert sim.effective_path["collide"] == collide_path
        rho, u = taylor_green((16, 16, 16), u0=0.02)
        sim.initialize(rho, u)
        sim.run(2)
        tracemalloc.start()
        for _ in range(5):
            sim.step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < sim.f.nbytes // 50, f"fused step allocated {peak} B"
        assert np.isfinite(sim.f).all()
