"""Tests for deep-halo slab management."""

import numpy as np
import pytest

from repro.errors import HaloValidityError
from repro.parallel import HaloSlab, HaloSpec, PlannedSlabKernel


class TestHaloSpec:
    def test_width(self):
        assert HaloSpec(k=1, depth=3).width == 3
        assert HaloSpec(k=3, depth=2).width == 6

    def test_for_lattice(self, q19, q39):
        assert HaloSpec.for_lattice(q19, 2).width == 2
        # D3Q39's fundamental thickness is k=3 planes
        assert HaloSpec.for_lattice(q39, 2).width == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            HaloSpec(k=0, depth=1)
        with pytest.raises(ValueError):
            HaloSpec(k=1, depth=0)


class TestHaloSlab:
    def _slab(self, q19, local=8, depth=2):
        return HaloSlab(q19, local, 4, 4, HaloSpec.for_lattice(q19, depth))

    def test_padded_shape(self, q19):
        slab = self._slab(q19, local=8, depth=2)
        assert slab.data.shape == (19, 12, 4, 4)
        assert slab.interior == slice(2, 10)

    def test_too_thin_subdomain_rejected(self, q19):
        with pytest.raises(HaloValidityError):
            HaloSlab(q19, 2, 4, 4, HaloSpec(k=1, depth=3))

    def test_pack_shapes(self, q19):
        slab = self._slab(q19)
        assert slab.pack_to_left().shape == (19, 2, 4, 4)
        assert slab.pack_to_right().shape == (19, 2, 4, 4)

    def test_pack_reads_interior_borders(self, q19):
        slab = self._slab(q19, local=6, depth=1)
        slab.interior_view()[...] = np.arange(6)[None, :, None, None]
        assert (slab.pack_to_left()[:, 0] == 0).all()
        assert (slab.pack_to_right()[:, 0] == 5).all()

    def test_unpack_fills_ghosts(self, q19):
        slab = self._slab(q19, depth=1)
        payload = np.full((19, 1, 4, 4), 3.5)
        slab.unpack_from_left(payload)
        assert (slab.data[:, :1] == 3.5).all()
        slab.unpack_from_right(payload * 2)
        assert (slab.data[:, -1:] == 7.0).all()

    def test_unpack_shape_checked(self, q19):
        slab = self._slab(q19, depth=2)
        with pytest.raises(HaloValidityError, match="payload"):
            slab.unpack_from_left(np.zeros((19, 1, 4, 4)))

    def test_validity_lifecycle(self, q19):
        slab = self._slab(q19, depth=3)
        assert slab.validity == 0
        with pytest.raises(HaloValidityError, match="exhausted"):
            slab.consume_step()
        slab.mark_exchanged()
        assert slab.validity == 3
        assert slab.steps_until_exchange == 3
        for expected in (2, 1, 0):
            slab.consume_step()
            assert slab.validity == expected
        with pytest.raises(HaloValidityError):
            slab.consume_step()

    def test_planned_windows_track_validity(self, q19):
        """Each sub-step computes the planes its remaining validity
        leaves exact: ``validity`` ghost planes beyond each side of the
        interior once the step has consumed its ``k``."""
        slab = self._slab(q19, local=8, depth=2)
        kernel = PlannedSlabKernel(q19, 8, 4, 4, slab.spec, tau=0.8)
        slab.mark_exchanged()
        for window in (slice(1, 11), slice(2, 10)):
            assert kernel._plan_for(slab).window == window
            slab.consume_step()

    def test_d3q39_consumes_three_planes_per_step(self, q39):
        slab = HaloSlab(q39, 12, 3, 3, HaloSpec.for_lattice(q39, 2))
        slab.mark_exchanged()
        assert slab.validity == 6
        slab.consume_step()
        assert slab.validity == 3
        assert slab.steps_until_exchange == 1


class TestDtypePolicy:
    def test_default_is_float64(self, q19):
        slab = HaloSlab(q19, 8, 4, 4, HaloSpec.for_lattice(q19, 1))
        assert slab.dtype == np.float64
        assert slab.data.dtype == np.float64

    def test_float32_sizes_every_buffer(self, q19):
        slab = HaloSlab(q19, 8, 4, 4, HaloSpec.for_lattice(q19, 2), dtype="float32")
        assert slab.data.dtype == np.float32
        assert slab.pack_to_left().dtype == np.float32
        assert slab.recv_from_left.dtype == np.float32
        assert slab.recv_from_right.dtype == np.float32

    def test_unsupported_dtype_rejected(self, q19):
        from repro.errors import LatticeError

        with pytest.raises(LatticeError, match="unsupported"):
            HaloSlab(q19, 8, 4, 4, HaloSpec.for_lattice(q19, 1), dtype="float16")

    def test_payload_dtype_mismatch_rejected(self, q19):
        slab = HaloSlab(q19, 8, 4, 4, HaloSpec.for_lattice(q19, 1), dtype="float32")
        with pytest.raises(HaloValidityError, match="dtype"):
            slab.unpack_from_left(np.zeros((19, 1, 4, 4)))  # float64


class TestPackBuffers:
    def test_packs_are_contiguous_copies_with_honest_nbytes(self, q19):
        """A pack must be a stable contiguous buffer whose nbytes is
        exactly the wire payload — not a strided view of live data."""
        spec = HaloSpec.for_lattice(q19, 2)
        slab = HaloSlab(q19, 8, 4, 4, spec, dtype="float32")
        for payload in (slab.pack_to_left(), slab.pack_to_right()):
            assert payload.flags.c_contiguous
            assert payload.base is not slab.data
            assert payload.nbytes == 19 * spec.width * 4 * 4 * 4

    def test_pack_is_decoupled_from_later_mutation(self, q19):
        """Mutating slab.data after packing must not change the payload
        (the exchange sends pack buffers by reference, copy=False)."""
        slab = HaloSlab(q19, 6, 4, 4, HaloSpec.for_lattice(q19, 1))
        slab.interior_view()[...] = np.arange(6)[None, :, None, None]
        payload = slab.pack_to_right()
        assert (payload == 5).all()
        slab.interior_view()[...] = -1.0
        assert (payload == 5).all()

    def test_pack_to_right_reads_last_interior_planes(self, q19):
        """Regression for the dead arithmetic `width + local - width`:
        the right pack is the last `width` interior planes for any
        width, including width > 1."""
        spec = HaloSpec.for_lattice(q19, 3)  # width 3
        slab = HaloSlab(q19, 8, 2, 2, spec)
        slab.interior_view()[...] = np.arange(8)[None, :, None, None]
        assert (slab.pack_to_right()[:, :, 0, 0] == np.array([5, 6, 7])).all()
        assert (slab.pack_to_left()[:, :, 0, 0] == np.array([0, 1, 2])).all()
