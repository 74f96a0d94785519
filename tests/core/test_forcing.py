"""Tests for Guo body-force coupling."""

import numpy as np
import pytest

from repro.core import GuoForcing, Simulation, total_momentum, uniform_flow
from repro.errors import LatticeError


class TestValidation:
    def test_wrong_length(self, q19):
        with pytest.raises(LatticeError, match="components"):
            GuoForcing(q19, (1.0, 0.0))


class TestMomentumInput:
    @pytest.mark.parametrize("lname", ["D3Q19", "D3Q39"])
    def test_momentum_grows_at_force_rate(self, lname):
        """Periodic forced fluid gains exactly F * N per step."""
        from repro.lattice import get_lattice

        lat = get_lattice(lname)
        shape = (6, 6, 6)
        force = (2e-6, 0.0, 0.0)
        sim = Simulation(lat, shape, tau=0.9, forcing=GuoForcing(lat, force))
        rho, u = uniform_flow(shape)
        sim.initialize(rho, u)
        steps = 50
        sim.run(steps)
        mom = total_momentum(lat, sim.f)
        n = sim.num_cells
        # Guo coupling injects exactly F per cell per step
        expected = force[0] * n * steps
        assert mom[0] == pytest.approx(expected, rel=1e-9)
        assert abs(mom[1]) < 1e-12 and abs(mom[2]) < 1e-12

    def test_velocity_shift_applied_to_output(self, q19):
        shape = (4, 4, 4)
        force = (1e-5, 0.0, 0.0)
        sim = Simulation(q19, shape, tau=0.8, forcing=GuoForcing(q19, force))
        rho, u = uniform_flow(shape)
        sim.initialize(rho, u)
        sim.run(10)
        _, u_corr = sim.macroscopic()
        # corrected velocity samples the trajectory at t = N - 1/2, the
        # midpoint of the step whose collision made the populations
        assert u_corr[0].mean() == pytest.approx(9.5 * force[0], rel=1e-8)

    def test_uniform_acceleration_matches_newton(self, q39):
        """du/dt = F/rho for a uniform periodic fluid."""
        shape = (5, 5, 5)
        force = (0.0, 3e-6, 0.0)
        sim = Simulation(q39, shape, tau=1.1, forcing=GuoForcing(q39, force))
        rho, u = uniform_flow(shape, rho0=1.0)
        sim.initialize(rho, u)
        sim.run(100)
        _, u_out = sim.macroscopic()
        # du/dt = F/rho, sampled at the Guo half step (t = N - 1/2)
        assert np.allclose(u_out[1], 99.5 * force[1], rtol=1e-8)

    def test_source_term_zero_for_zero_force(self, q19):
        forcing = GuoForcing(q19, (0.0, 0.0, 0.0))
        u = np.zeros((3, 2, 2, 2))
        s = forcing.source_term(u, omega=1.0)
        assert np.abs(s).max() == 0.0

    def test_regularized_collision_rejected_with_forcing(self, q19):
        from repro.core import RegularizedBGKCollision

        with pytest.raises(NotImplementedError):
            Simulation(
                q19,
                (4, 4, 4),
                collision=RegularizedBGKCollision(q19, tau=0.8),
                forcing=GuoForcing(q19, (1e-6, 0, 0)),
            )
