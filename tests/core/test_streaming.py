"""Tests for periodic and padded streaming."""

import numpy as np
import pytest

from repro.core import stream_padded, stream_periodic
from repro.core.streaming import pull_gather_rows


class TestPeriodicStreaming:
    def test_push_convention(self, q19):
        """A population at x moves to x + c (with wraparound)."""
        f = np.zeros((19, 4, 4, 4))
        # find velocity (1, 0, 0)
        i = int(np.flatnonzero((q19.velocities == [1, 0, 0]).all(axis=1))[0])
        f[i, 0, 0, 0] = 1.0
        out = stream_periodic(q19, f)
        assert out[i, 1, 0, 0] == 1.0
        assert out[i].sum() == 1.0

    def test_wraparound(self, q19):
        f = np.zeros((19, 3, 3, 3))
        i = int(np.flatnonzero((q19.velocities == [-1, 0, 0]).all(axis=1))[0])
        f[i, 0, 1, 1] = 1.0
        out = stream_periodic(q19, f)
        assert out[i, 2, 1, 1] == 1.0

    def test_d3q39_three_plane_hop(self, q39):
        f = np.zeros((39, 7, 3, 3))
        i = int(np.flatnonzero((q39.velocities == [3, 0, 0]).all(axis=1))[0])
        f[i, 1, 0, 0] = 1.0
        out = stream_periodic(q39, f)
        assert out[i, 4, 0, 0] == 1.0

    def test_rest_population_stays(self, paper_lattice):
        lat = paper_lattice
        f = np.random.default_rng(0).random((lat.q, 4, 4, 4))
        out = stream_periodic(lat, f)
        assert np.array_equal(out[lat.rest_index], f[lat.rest_index])

    def test_mass_conserved_per_velocity(self, paper_lattice, rng):
        lat = paper_lattice
        f = rng.random((lat.q, 5, 4, 3))
        out = stream_periodic(lat, f)
        assert np.allclose(out.sum(axis=(1, 2, 3)), f.sum(axis=(1, 2, 3)))

    def test_streaming_is_permutation(self, q19, rng):
        """Streaming rearranges values without changing them."""
        f = rng.random((19, 4, 4, 4))
        out = stream_periodic(q19, f)
        for i in range(19):
            assert np.allclose(np.sort(out[i].ravel()), np.sort(f[i].ravel()))

    def test_inverse_streaming(self, paper_lattice, rng):
        """Streaming then streaming each opposite velocity undoes it."""
        lat = paper_lattice
        f = rng.random((lat.q, 5, 5, 5))
        once = stream_periodic(lat, f)
        # stream the opposite lattice: swap populations to opposite dirs
        twice = stream_periodic(lat, once[lat.opposite])[lat.opposite]
        assert np.allclose(twice, f)

    def test_in_place_rejected(self, q19):
        f = np.zeros((19, 3, 3, 3))
        with pytest.raises(ValueError, match="in place"):
            stream_periodic(q19, f, out=f)


class TestPaddedStreaming:
    def test_matches_periodic_in_deep_interior(self, paper_lattice, rng):
        lat = paper_lattice
        k = lat.max_displacement
        f = rng.random((lat.q, 8 + 2 * k, 4, 4))
        periodic = stream_periodic(lat, f)
        padded = stream_padded(lat, f)
        interior = slice(k, -k)
        # y/z wrap identically; only x differs near edges
        assert np.allclose(padded[:, interior], periodic[:, interior])

    def test_edge_fill_is_nan(self, q19, rng):
        f = rng.random((19, 6, 3, 3))
        out = stream_padded(q19, f)
        i = int(np.flatnonzero((q19.velocities == [1, 0, 0]).all(axis=1))[0])
        assert np.isnan(out[i, 0]).all()

    def test_custom_fill_value(self, q19, rng):
        f = rng.random((19, 6, 3, 3))
        out = stream_padded(q19, f, fill_value=-7.0)
        i = int(np.flatnonzero((q19.velocities == [1, 0, 0]).all(axis=1))[0])
        assert (out[i, 0] == -7.0).all()

    def test_yz_periodicity_preserved(self, q19):
        """y and z axes must wrap (they are not decomposed)."""
        f = np.zeros((19, 5, 3, 3))
        i = int(np.flatnonzero((q19.velocities == [0, -1, 0]).all(axis=1))[0])
        f[i, 2, 0, 1] = 1.0
        out = stream_padded(q19, f)
        assert out[i, 2, 2, 1] == 1.0

    def test_d3q39_fills_three_planes(self, q39, rng):
        f = rng.random((39, 10, 3, 3))
        out = stream_padded(q39, f)
        i = int(np.flatnonzero((q39.velocities == [3, 0, 0]).all(axis=1))[0])
        assert np.isnan(out[i, :3]).all()
        assert not np.isnan(out[i, 3:]).any()

    def test_in_place_rejected(self, q19):
        f = np.zeros((19, 4, 3, 3))
        with pytest.raises(ValueError, match="in place"):
            stream_padded(q19, f, out=f)


def _gather_rows_by_axis(lattice, shape, scale=1, row_step=0):
    """Pull indices built from per-axis broadcast offsets: the oracle
    for :func:`pull_gather_rows`' shifted-copy construction."""
    ndim = len(shape)
    rows = np.empty((lattice.q, int(np.prod(shape))), dtype=np.intp)
    for i, c in enumerate(lattice.velocities):
        row = rows[i].reshape(shape)
        row[...] = i * row_step
        stride = scale
        for axis in reversed(range(ndim)):
            n = shape[axis]
            offsets = (np.arange(n) - int(c[axis])) % n * stride
            row += offsets.reshape((n,) + (1,) * (ndim - 1 - axis))
            stride *= n
    return rows


class TestPullGatherRows:
    SHAPES = [(32, 32, 4), (48, 21, 21), (6, 5, 4), (1, 2, 3), (2, 1, 7), (3, 2, 1), (1, 1, 1)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("layout", ["soa", "aos", "bare"])
    def test_matches_per_axis_construction(self, lattice, shape, layout):
        n = int(np.prod(shape))
        scale, row_step = {"soa": (1, n), "aos": (lattice.q, 1), "bare": (1, 0)}[layout]
        got = pull_gather_rows(lattice, shape, scale=scale, row_step=row_step)
        expected = _gather_rows_by_axis(lattice, shape, scale, row_step)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_callers_build_the_same_tables(self, paper_lattice):
        from repro.core.kernels import FusedGatherKernel
        from repro.core.plan import build_aos_gather_table, build_gather_table

        shape = (5, 2, 3)
        n = int(np.prod(shape))
        q = paper_lattice.q
        assert np.array_equal(
            build_gather_table(paper_lattice, shape),
            _gather_rows_by_axis(paper_lattice, shape, 1, n).reshape(-1),
        )
        assert np.array_equal(
            build_aos_gather_table(paper_lattice, shape),
            _gather_rows_by_axis(paper_lattice, shape, q, 1).reshape(-1),
        )
        kernel = FusedGatherKernel(paper_lattice, tau=0.8)
        f = np.random.default_rng(0).random((q, *shape))
        streamed = kernel.stream(f, out=np.empty_like(f))
        assert np.array_equal(kernel._gather, _gather_rows_by_axis(paper_lattice, shape))
        assert np.array_equal(streamed, stream_periodic(paper_lattice, f))
