"""The correctness contract: distributed == planned single domain, bit
for bit."""

import numpy as np
import pytest

from repro.core import Simulation, shear_wave, taylor_green
from repro.errors import DecompositionError
from repro.parallel import DistributedSimulation, ExchangeSchedule


def reference(lname, shape, tau, steps, init=shear_wave):
    sim = Simulation(lname, shape, tau=tau, kernel="planned")
    rho, u = init(shape)
    sim.initialize(rho, u)
    sim.run(steps)
    return sim.f


class TestExactness:
    @pytest.mark.parametrize("lname", ["D3Q19", "D3Q39"])
    @pytest.mark.parametrize("ranks", [1, 2, 3, 4])
    def test_matches_single_domain(self, lname, ranks):
        shape = (24, 5, 5)
        ref = reference(lname, shape, tau=0.8, steps=10)
        dist = DistributedSimulation(lname, shape, tau=0.8, num_ranks=ranks)
        rho, u = shear_wave(shape)
        dist.initialize(rho, u)
        dist.run(10)
        assert np.array_equal(dist.gather(), ref)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_deep_halo_invariance_d3q19(self, depth):
        """Exchange every d steps with d*k-wide halos is exact."""
        shape = (32, 4, 4)
        ref = reference("D3Q19", shape, tau=0.7, steps=12)
        dist = DistributedSimulation(
            "D3Q19", shape, tau=0.7, num_ranks=4, ghost_depth=depth
        )
        rho, u = shear_wave(shape)
        dist.initialize(rho, u)
        dist.run(12)
        assert np.array_equal(dist.gather(), ref)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_deep_halo_invariance_d3q39(self, depth):
        shape = (30, 4, 4)
        ref = reference("D3Q39", shape, tau=0.9, steps=9)
        dist = DistributedSimulation(
            "D3Q39", shape, tau=0.9, num_ranks=3, ghost_depth=depth
        )
        rho, u = shear_wave(shape)
        dist.initialize(rho, u)
        dist.run(9)
        assert np.array_equal(dist.gather(), ref)

    @pytest.mark.parametrize("schedule", list(ExchangeSchedule))
    def test_all_schedules_identical_physics(self, schedule):
        shape = (20, 4, 4)
        ref = reference("D3Q19", shape, tau=0.8, steps=8)
        dist = DistributedSimulation(
            "D3Q19", shape, tau=0.8, num_ranks=4, schedule=schedule
        )
        rho, u = shear_wave(shape)
        dist.initialize(rho, u)
        dist.run(8)
        assert np.array_equal(dist.gather(), ref)

    def test_uneven_decomposition(self):
        """23 planes over 4 ranks: 6,6,6,5."""
        shape = (23, 4, 4)
        ref = reference("D3Q19", shape, tau=0.8, steps=7)
        dist = DistributedSimulation("D3Q19", shape, tau=0.8, num_ranks=4)
        rho, u = shear_wave(shape)
        dist.initialize(rho, u)
        dist.run(7)
        assert np.array_equal(dist.gather(), ref)

    def test_taylor_green_distributed(self):
        shape = (16, 16, 4)
        ref = reference("D3Q19", shape, tau=0.7, steps=15, init=taylor_green)
        dist = DistributedSimulation("D3Q19", shape, tau=0.7, num_ranks=4, ghost_depth=2)
        rho, u = taylor_green(shape)
        dist.initialize(rho, u)
        dist.run(15)
        assert np.array_equal(dist.gather(), ref)

    def test_steps_not_multiple_of_depth(self):
        """Runs need not align with the exchange period."""
        shape = (24, 4, 4)
        ref = reference("D3Q19", shape, tau=0.8, steps=7)
        dist = DistributedSimulation("D3Q19", shape, tau=0.8, num_ranks=2, ghost_depth=3)
        rho, u = shear_wave(shape)
        dist.initialize(rho, u)
        dist.run(7)
        assert np.array_equal(dist.gather(), ref)


class TestMessageAccounting:
    def test_deep_halo_reduces_messages_d_fold(self):
        """§VI-A: 'The same amount of data is passed, but the reduction
        in number of messages allows for easier masking'."""
        shape = (48, 4, 4)
        counts, totals = {}, {}
        for depth in (1, 2, 3):
            dist = DistributedSimulation(
                "D3Q19", shape, tau=0.8, num_ranks=4, ghost_depth=depth
            )
            rho, u = shear_wave(shape)
            dist.initialize(rho, u)
            dist.run(12)
            counts[depth] = dist.message_count()
            totals[depth] = dist.total_comm_bytes()
        assert counts[1] == 2 * counts[2] == 3 * counts[3]
        # same bytes per macro-cycle
        assert totals[1] == totals[2] == totals[3]

    def test_message_bytes_match_halo_geometry(self, q39):
        shape = (24, 5, 6)
        dist = DistributedSimulation("D3Q39", shape, tau=0.8, num_ranks=2, ghost_depth=1)
        rho, u = shear_wave(shape)
        dist.initialize(rho, u)
        dist.run(1)
        # one exchange: 2 ranks x 2 directions = 4 messages of k*area*Q*8
        assert dist.message_count() == 4
        expected = 4 * 3 * 5 * 6 * 39 * 8
        assert dist.total_comm_bytes() == expected

    def test_exchange_count(self):
        dist = DistributedSimulation("D3Q19", (24, 4, 4), tau=0.8, num_ranks=2, ghost_depth=2)
        rho, u = shear_wave((24, 4, 4))
        dist.initialize(rho, u)
        dist.run(8)
        assert dist.exchange_count == 4

    def test_no_pending_messages_after_run(self):
        dist = DistributedSimulation("D3Q19", (16, 4, 4), tau=0.8, num_ranks=4)
        rho, u = shear_wave((16, 4, 4))
        dist.initialize(rho, u)
        dist.run(5)
        assert dist.mpi.pending_messages() == 0


class TestValidation:
    def test_rejects_thin_subdomains(self):
        # D3Q39 depth 2 needs 6 planes/rank; 16/4 = 4 planes
        with pytest.raises(DecompositionError):
            DistributedSimulation("D3Q39", (16, 4, 4), num_ranks=4, ghost_depth=2)

    def test_rejects_non_3d(self):
        with pytest.raises(DecompositionError):
            DistributedSimulation("D3Q19", (16, 16), num_ranks=2)

    def test_takes_no_kernel_argument(self):
        """Every slab steps through the planned slab kernel: a caller
        still naming a slab kernel fails loudly instead of running
        another path."""
        with pytest.raises(TypeError, match="kernel"):
            DistributedSimulation("D3Q19", (16, 4, 4), kernel="legacy")

    def test_gather_shape(self):
        dist = DistributedSimulation("D3Q19", (10, 3, 4), tau=0.8, num_ranks=2)
        rho, u = shear_wave((10, 3, 4))
        dist.initialize(rho, u)
        assert dist.gather().shape == (19, 10, 3, 4)
