"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import compiled
from repro.lattice import get_lattice


@pytest.fixture(params=["D3Q15", "D3Q19", "D3Q27", "D3Q39"])
def lattice(request):
    """Every registered lattice."""
    return get_lattice(request.param)


@pytest.fixture(params=["D3Q19", "D3Q39"])
def paper_lattice(request):
    """The two lattices the paper studies."""
    return get_lattice(request.param)


@pytest.fixture
def q19():
    return get_lattice("D3Q19")


@pytest.fixture
def q39():
    return get_lattice("D3Q39")


@pytest.fixture
def rng():
    """Deterministic RNG for random fields."""
    return np.random.default_rng(42)


@pytest.fixture
def small_shape():
    """A small anisotropic grid (catches axis mix-ups)."""
    return (6, 5, 4)


def random_state(lattice, shape, rng, amplitude=0.02):
    """A random near-equilibrium (rho, u) pair."""
    rho = 1.0 + amplitude * rng.standard_normal(shape)
    u = amplitude * rng.standard_normal((lattice.dim, *shape))
    return rho, u


@pytest.fixture
def make_random_state(rng):
    """Factory fixture for random (rho, u) fields."""

    def factory(lattice, shape, amplitude=0.02):
        return random_state(lattice, shape, rng, amplitude)

    return factory


@pytest.fixture
def expected_collide():
    """The collide path a planned kernel of ``dtype`` takes in this
    process: ``"compiled"`` where the C loop built, else the numpy
    reference, ``"arena"`` (a host without a C compiler)."""

    def expected(dtype) -> str:
        return "compiled" if compiled.load(dtype) is not None else "arena"

    return expected


@pytest.fixture(params=["compiled", "arena"])
def collide_path(request, monkeypatch):
    """Run a test once per collide path.  ``"arena"`` patches the loader
    so plans built during the test run the numpy reference;
    ``"compiled"`` is skipped on a host where the C loop did not build."""
    if request.param == "arena":
        monkeypatch.setattr(compiled, "load", lambda dtype: None)
    elif compiled.load("float64") is None:
        pytest.skip("no C compiler: the compiled collide did not build")
    return request.param


@pytest.fixture
def restamp_checkpoint():
    """Rewrite a checkpoint's kernel stamp as older writers left it:
    ``""`` (the retired legacy pair's empty stamp), ``None`` (no stamp
    at all, a file older than the stamp) or a kernel name."""

    def restamp(path, stamp) -> None:
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files if key != "kernel"}
        if stamp is not None:
            arrays["kernel"] = stamp
        np.savez_compressed(path, **arrays)

    return restamp
