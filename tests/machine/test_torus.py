"""Tests for the torus interconnect model."""

import os
import subprocess
import sys

import pytest

import repro
from repro.machine import BLUE_GENE_P, TorusTopology, torus_shape_for


class TestShapes:
    def test_covers_node_count(self):
        for n, d in ((128, 3), (512, 3), (1024, 5), (7, 3)):
            shape = torus_shape_for(n, d)
            assert len(shape) == d
            total = 1
            for s in shape:
                total *= s
            assert total >= n

    def test_invalid(self):
        with pytest.raises(ValueError):
            torus_shape_for(0, 3)


class TestTopology:
    def setup_method(self):
        self.torus = TorusTopology((4, 4, 8), BLUE_GENE_P)

    def test_node_count(self):
        assert self.torus.num_nodes == 128

    def test_every_node_has_six_neighbors(self):
        for coord in ((0, 0, 0), (3, 3, 7), (1, 2, 4)):
            assert len(self.torus.neighbors(coord)) == 6

    def test_neighbors_axis_by_axis_with_wrap(self):
        assert self.torus.neighbors((0, 0, 0)) == [
            (1, 0, 0), (3, 0, 0), (0, 1, 0), (0, 3, 0), (0, 0, 1), (0, 0, 7),
        ]
        assert all(
            self.torus.hop_distance((1, 2, 4), n) == 1
            for n in self.torus.neighbors((1, 2, 4))
        )

    def test_short_axes(self):
        """Extent 2 reaches one node both ways (listed once); extent 1
        links a node to itself, which is no neighbor; a ring works."""
        assert TorusTopology((2, 3), BLUE_GENE_P).neighbors((0, 0)) == [
            (1, 0), (0, 1), (0, 2),
        ]
        assert TorusTopology((1, 4), BLUE_GENE_P).neighbors((0, 0)) == [
            (0, 1), (0, 3),
        ]
        assert TorusTopology((3,), BLUE_GENE_P).neighbors((0,)) == [(1,), (2,)]

    def test_hop_distance_wraps(self):
        assert self.torus.hop_distance((0, 0, 0), (3, 0, 0)) == 1
        assert self.torus.hop_distance((0, 0, 0), (0, 0, 4)) == 4
        assert self.torus.hop_distance((0, 0, 0), (2, 2, 4)) == 8

    def test_rank_mapping_roundtrip(self):
        coords = [self.torus.rank_to_coord(r) for r in range(128)]
        assert len(set(coords)) == 128

    def test_consecutive_ranks_adjacent(self):
        """The default mapping keeps the 1-D chain on neighboring nodes
        (the assumption behind the paper's single-hop halo bound)."""
        adjacent = sum(
            self.torus.ranks_are_adjacent(r, r + 1) for r in range(127)
        )
        # z wraps break adjacency at 1/8 of the chain transitions
        assert adjacent / 127 > 0.85

    def test_bisection_bandwidth(self):
        # longest dim 8: cut severs 2*(128/8)=32 link pairs
        assert self.torus.bisection_bandwidth == pytest.approx(32 * 0.425e9)

    def test_transfer_times(self):
        t_soft = self.torus.link_transfer_time(1_000_000, software=True)
        t_hard = self.torus.link_transfer_time(1_000_000, software=False)
        assert t_soft == pytest.approx(1e6 / 0.375e9)
        assert t_hard < t_soft

    def test_halo_transfer_single_hop(self):
        t = self.torus.halo_transfer_time(500_000)
        assert t == self.torus.link_transfer_time(500_000)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            TorusTopology((0, 4), BLUE_GENE_P)


def test_import_needs_no_networkx():
    """``pyproject.toml`` declares numpy alone: with networkx blocked,
    ``repro`` and ``repro.api`` still import and the torus still works."""
    code = """if True:
        import sys
        sys.modules["networkx"] = None  # any import of it raises
        import repro, repro.api
        from repro.machine import BLUE_GENE_P, TorusTopology
        print(len(TorusTopology((4, 4, 8), BLUE_GENE_P).neighbors((0, 0, 0))))
    """
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "6"
