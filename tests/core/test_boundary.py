"""Tests for bounce-back and diffuse-wall boundary conditions."""

import numpy as np
import pytest

from repro.core import (
    BounceBackWalls,
    DiffuseWallPair,
    GuoForcing,
    MovingWallBounceBack,
    Simulation,
    macroscopic,
    total_mass,
    uniform_flow,
    velocity_profile,
)
from repro.errors import LatticeError


class TestBounceBack:
    def test_reverses_populations_on_solid(self, q19, rng):
        f = rng.random((19, 4, 4, 4))
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[0] = True
        bc = BounceBackWalls(q19, mask)
        before = f[:, mask].copy()
        bc.apply(f, f)
        assert np.allclose(f[:, mask], before[q19.opposite])
        assert np.allclose(f[:, ~mask], f[:, ~mask])

    def test_conserves_mass(self, paper_lattice, rng):
        lat = paper_lattice
        f = rng.random((lat.q, 4, 4, 4))
        mask = rng.random((4, 4, 4)) < 0.3
        m0 = total_mass(f)
        BounceBackWalls(lat, mask).apply(f, f)
        assert total_mass(f) == pytest.approx(m0, rel=1e-14)

    def test_mask_shape_checked(self, q19):
        bc = BounceBackWalls(q19, np.zeros((3, 3, 3), dtype=bool))
        f = np.zeros((19, 4, 4, 4))
        with pytest.raises(LatticeError, match="mask"):
            bc.apply(f, f)

    def test_channel_flow_no_slip(self, q19):
        """Forced channel with bounce-back walls: near-zero wall velocity,
        maximum at the centre (Poiseuille-like)."""
        shape = (4, 15, 4)
        mask = np.zeros(shape, dtype=bool)
        mask[:, 0, :] = True
        mask[:, -1, :] = True
        sim = Simulation(
            q19,
            shape,
            tau=0.9,
            boundaries=[BounceBackWalls(q19, mask)],
            forcing=GuoForcing(q19, (1e-6, 0.0, 0.0)),
        )
        rho, u = uniform_flow(shape)
        sim.initialize(rho, u)
        sim.run(400)
        profile = velocity_profile(q19, sim.f, flow_axis=0, across_axis=1)
        centre = profile[len(profile) // 2]
        assert centre > 0
        # solid rows carry reversed populations; fluid next to wall slow
        assert profile[1] < 0.55 * centre
        # symmetric about the channel centre
        assert profile[2] == pytest.approx(profile[-3], rel=1e-6)


class TestMovingWallBounceBack:
    def test_correction_carries_zero_mass(self, paper_lattice, rng):
        lat = paper_lattice
        f = rng.random((lat.q, 4, 4, 4))
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[:, :, -1] = True
        bc = MovingWallBounceBack(lat, mask, wall_velocity=(0.05, 0.0, 0.0))
        m0 = total_mass(f)
        bc.apply(f, f)
        assert total_mass(f) == pytest.approx(m0, rel=1e-13)

    def test_zero_velocity_reduces_to_bounce_back(self, q19, rng):
        f = rng.random((19, 4, 4, 4))
        g = f.copy()
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[0] = True
        MovingWallBounceBack(q19, mask).apply(f, f)
        BounceBackWalls(q19, mask).apply(g, g)
        np.testing.assert_array_equal(f, g)

    def test_wall_velocity_dimension_checked(self, q19):
        with pytest.raises(LatticeError, match="components"):
            MovingWallBounceBack(
                q19, np.zeros((4, 4, 4), dtype=bool), wall_velocity=(0.1, 0.0)
            )

    def test_moving_lid_drags_fluid(self, q19):
        """Couette-like box: the translating wall imparts its momentum."""
        shape = (4, 4, 11)
        lid = np.zeros(shape, dtype=bool)
        lid[:, :, -1] = True
        floor = np.zeros(shape, dtype=bool)
        floor[:, :, 0] = True
        sim = Simulation(
            q19,
            shape,
            tau=0.8,
            boundaries=[
                BounceBackWalls(q19, floor),
                MovingWallBounceBack(q19, lid, wall_velocity=(0.02, 0.0, 0.0)),
            ],
        )
        rho, u = uniform_flow(shape)
        sim.initialize(rho, u)
        sim.run(300)
        profile = velocity_profile(q19, sim.f, flow_axis=0, across_axis=2)
        # fluid under the lid moves with it; speed decays towards the floor
        assert profile[-2] > 0
        assert profile[-2] > profile[5] > 0
        assert abs(profile[1]) < profile[-2]


class TestDiffuseWall:
    def _couette(self, lattice, steps=300, uw=0.01, ny=11):
        shape = (4, ny, 4)
        bc = DiffuseWallPair(
            lattice,
            axis=1,
            wall_velocity_low=(0.0, 0.0, 0.0),
            wall_velocity_high=(uw, 0.0, 0.0),
        )
        sim = Simulation(lattice, shape, tau=0.8, boundaries=[bc])
        rho, u = uniform_flow(shape)
        sim.initialize(rho, u)
        sim.run(steps)
        return sim

    def test_validation(self, q19):
        with pytest.raises(LatticeError, match="axis"):
            DiffuseWallPair(q19, axis=5)
        with pytest.raises(LatticeError, match="tangential"):
            DiffuseWallPair(q19, axis=1, wall_velocity_low=(0.0, 0.1, 0.0))
        with pytest.raises(LatticeError, match="components"):
            DiffuseWallPair(q19, axis=1, wall_velocity_low=(0.0, 0.0))

    @pytest.mark.parametrize("lname", ["D3Q19", "D3Q39"])
    def test_mass_conserved_every_step(self, lname):
        from repro.lattice import get_lattice

        lat = get_lattice(lname)
        shape = (4, 9, 4)
        bc = DiffuseWallPair(lat, axis=1)
        sim = Simulation(lat, shape, tau=0.8, boundaries=[bc])
        rho, u = uniform_flow(shape)
        sim.initialize(rho, u)
        m0 = total_mass(sim.f)
        for _ in range(10):
            sim.step()
            assert total_mass(sim.f) == pytest.approx(m0, rel=1e-12)

    def test_couette_drags_fluid(self, q19):
        sim = self._couette(q19)
        profile = velocity_profile(q19, sim.f, flow_axis=0, across_axis=1)
        # monotone increasing from stationary to moving wall
        assert profile[-1] > profile[0]
        assert all(b >= a - 1e-9 for a, b in zip(profile, profile[1:]))

    def test_couette_has_slip_at_finite_kn(self, q19):
        """The fluid next to a diffuse wall does not reach the wall
        velocity — velocity slip, the signature kinetic effect."""
        uw = 0.01
        sim = self._couette(q19, uw=uw, steps=600)
        profile = velocity_profile(q19, sim.f, flow_axis=0, across_axis=1)
        assert profile[-2] < 0.95 * uw  # fluid lags the wall
        assert profile[1] > 0.0  # and slips over the stationary wall

    def test_d3q39_multilayer_wall(self, q39):
        """k=3 lattice: populations crossing from layers 0..2 handled."""
        sim = self._couette(q39, steps=120, ny=13)
        assert sim.field.is_finite()
        profile = velocity_profile(q39, sim.f, flow_axis=0, across_axis=1)
        assert profile[-1] > profile[0]

    @pytest.mark.parametrize("lname", ["D3Q19", "D3Q39"])
    def test_wall_equilibrium_computed_once(self, lname, monkeypatch):
        """The unit wall equilibrium is a constant of each wall: built on
        the first step only, and a wall that keeps it writes the bytes a
        fresh wall (building it anew) writes on every step."""
        from repro.core import boundary
        from repro.lattice import get_lattice

        lat = get_lattice(lname)
        shape = (4, 9, 4)
        walls = dict(axis=1, wall_velocity_high=(0.01, 0.0, 0.0))
        built = []
        real_equilibrium = boundary.equilibrium

        def counting(*args, **kwargs):
            built.append(args[1].shape)
            return real_equilibrium(*args, **kwargs)

        monkeypatch.setattr(boundary, "equilibrium", counting)
        kept = DiffuseWallPair(lat, **walls)
        rng = np.random.default_rng(3)
        f_old = rng.random((lat.q, *shape))
        a, b = f_old.copy(), f_old.copy()
        for _ in range(6):
            kept.apply(a, f_old)
            DiffuseWallPair(lat, **walls).apply(b, f_old)
            assert a.tobytes() == b.tobytes()
        assert len(built) == 2 + 6 * 2  # both of kept's walls, once

    def test_rest_state_is_stationary(self, q19):
        """No walls moving, uniform fluid: diffuse walls change nothing."""
        shape = (4, 9, 4)
        bc = DiffuseWallPair(q19, axis=1)
        sim = Simulation(q19, shape, tau=0.8, boundaries=[bc])
        rho, u = uniform_flow(shape)
        sim.initialize(rho, u)
        sim.run(5)
        _, u_out = macroscopic(q19, sim.f)
        assert np.abs(u_out).max() < 1e-13
