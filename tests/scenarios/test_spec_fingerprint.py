"""Property tests for ``CaseSpec.fingerprint()`` (the sweep-cache key).

The fingerprint must be (a) independent of the order overrides were
applied in, (b) sensitive to *every* spec field, and (c) stable across
interpreter processes — without all three, the content-addressed sweep
cache would either miss identical work or silently serve wrong results.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.io import canonical_json
from repro.scenarios import CaseSpec, available_cases, get_case, steady_state
from repro.scenarios import spec as spec_module


# Module-level factories: stable qualified names across processes.
def _geometry_a(spec):
    return np.zeros(spec.shape, dtype=bool)


def _geometry_b(spec):
    return np.ones(spec.shape, dtype=bool)


def _observable_a(sim):
    return 0.0


def _observable_b(sim):
    return 1.0


def _collision(spec, lattice):
    return None


def _boundaries(spec, lattice, solid):
    return []


def _initial(spec):
    return None, None


def _analysis(result):
    return {}


def _checks(result):
    return {}


def _report(result):
    return ""


BASE = CaseSpec(
    name="fp-base",
    title="fingerprint base",
    description="base",
    lattice="D3Q19",
    shape=(4, 4, 4),
    tau=0.8,
    order=None,
    collision=None,
    geometry=_geometry_a,
    boundaries=None,
    forcing=(1e-5, 0.0, 0.0),
    initial=None,
    steps=10,
    stop_when=None,
    monitor_every=5,
    check_stability_every=10,
    observables={"probe": _observable_a},
    analysis=None,
    checks=None,
    report=None,
    params={"kn": 0.1},
    tags=("kinetic",),
)

# One changed value per field; the coverage assertion below forces this
# mapping to grow whenever CaseSpec gains a field.
ALTERNATES = {
    "name": "fp-other",
    "title": "another title",
    "description": "another description",
    "lattice": "D3Q27",
    "shape": (4, 4, 8),
    "tau": 0.9,
    "order": 2,
    "kernel": "naive",
    "dtype": "float32",
    "layout": "aos",
    "collision": _collision,
    "geometry": _geometry_b,
    "boundaries": _boundaries,
    "forcing": (2e-5, 0.0, 0.0),
    "initial": _initial,
    "steps": 20,
    "stop_when": steady_state(_observable_a),
    "monitor_every": 10,
    "check_stability_every": 20,
    "observables": {"probe": _observable_b},
    "analysis": _analysis,
    "checks": _checks,
    "report": _report,
    "params": {"kn": 0.2},
    "tags": ("continuum",),
}


class TestSensitivity:
    def test_alternates_cover_every_field(self):
        field_names = {f.name for f in dataclasses.fields(CaseSpec)}
        assert set(ALTERNATES) == field_names

    def test_every_field_changes_the_fingerprint(self):
        base_fp = BASE.fingerprint()
        for field, value in ALTERNATES.items():
            changed = dataclasses.replace(BASE, **{field: value})
            assert changed.fingerprint() != base_fp, (
                f"fingerprint ignores field {field!r}"
            )

    def test_identical_spec_same_fingerprint(self):
        copy = dataclasses.replace(BASE)
        assert copy.fingerprint() == BASE.fingerprint()

    def test_arithmetic_revision_rebaselines_every_case(self, monkeypatch):
        """Fingerprints hash specs, not code: the arithmetic revision in
        the token is what moves every registered case's fingerprint when
        the stepping bytes change."""
        before = {n: get_case(n).fingerprint() for n in available_cases()}
        monkeypatch.setattr(spec_module, "ARITHMETIC", spec_module.ARITHMETIC - 1)
        after = {n: get_case(n).fingerprint() for n in available_cases()}
        assert all(before[n] != after[n] for n in before)

    def test_same_qualname_lambdas_do_not_collide(self):
        """Two '<lambda>'s from one scope share module:qualname; their
        bodies must still be distinguished (cache-poisoning hazard)."""
        a = dataclasses.replace(BASE, params={"profile": lambda x: x})
        b = dataclasses.replace(BASE, params={"profile": lambda x: 2 * x})
        assert a.fingerprint() != b.fingerprint()

    def test_identical_lambda_bodies_agree(self):
        a = dataclasses.replace(BASE, params={"profile": lambda x: x + 1})
        b = dataclasses.replace(BASE, params={"profile": lambda x: x + 1})
        assert a.fingerprint() == b.fingerprint()

    def test_default_arguments_distinguish_callables(self):
        def probe_a(sim, scale=1.0):
            return scale

        def probe_b(sim, scale=2.0):
            return scale

        probe_b.__qualname__ = probe_a.__qualname__  # force name collision
        probe_b.__code__ = probe_a.__code__  # and identical bytecode
        a = dataclasses.replace(BASE, observables={"p": probe_a})
        b = dataclasses.replace(BASE, observables={"p": probe_b})
        assert a.fingerprint() != b.fingerprint()

    def test_closure_state_distinguishes_stop_conditions(self):
        # Same qualname, different captured rtol: must not collide.
        tight = dataclasses.replace(
            BASE, stop_when=steady_state(_observable_a, rtol=1e-6)
        )
        loose = dataclasses.replace(
            BASE, stop_when=steady_state(_observable_a, rtol=1e-8)
        )
        assert tight.fingerprint() != loose.fingerprint()


class TestOverrideOrderIndependence:
    def test_kwarg_order(self):
        spec = get_case("microchannel-knudsen")
        a = spec.with_overrides(tau=0.7, kn=0.2, steps=5)
        b = spec.with_overrides(steps=5, kn=0.2, tau=0.7)
        assert a.fingerprint() == b.fingerprint()

    def test_sequential_application_order(self):
        spec = get_case("microchannel-knudsen")
        a = spec.with_overrides(kn=0.2).with_overrides(tau=0.7)
        b = spec.with_overrides(tau=0.7).with_overrides(kn=0.2)
        assert a.fingerprint() == b.fingerprint()

    def test_noop_override_preserves_fingerprint(self):
        spec = get_case("taylor-green")
        assert spec.with_overrides(tau=spec.tau).fingerprint() == spec.fingerprint()

    def test_distinct_overrides_distinct_fingerprints(self):
        spec = get_case("taylor-green")
        assert (
            spec.with_overrides(tau=0.7).fingerprint()
            != spec.with_overrides(tau=0.8).fingerprint()
        )


class _Config:
    """Default-repr object (repr embeds a memory address)."""

    def __init__(self, x):
        self.x = x


class TestObjectParams:
    def test_default_repr_objects_hash_by_state_not_address(self):
        """Regression: the repr fallback must not leak memory addresses
        into cache keys — equal-state objects must agree."""
        a = dataclasses.replace(BASE, params={"cfg": _Config(1)})
        b = dataclasses.replace(BASE, params={"cfg": _Config(1)})
        c = dataclasses.replace(BASE, params={"cfg": _Config(2)})
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestProcessStability:
    def test_registered_case_fingerprint_survives_a_fresh_interpreter(self):
        expected = get_case("taylor-green").fingerprint()
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.scenarios import get_case; "
                "print(get_case('taylor-green').fingerprint())",
            ],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == expected

    def test_set_literal_constants_stable_across_hash_seeds(self):
        """Regression: a frozenset code constant (set-membership test)
        iterates in PYTHONHASHSEED order; its token must not."""
        src = Path(__file__).resolve().parents[2] / "src"
        code = (
            "import sys, json\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "from repro.scenarios.spec import _fingerprint_token\n"
            "def probe(sim):\n"
            "    return 1.0 if 'a' in {'a','b','c','d','e','f','g'} else 0.0\n"
            "print(json.dumps(_fingerprint_token(probe)))\n"
        )
        tokens = []
        for seed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            out = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            tokens.append(out.stdout.strip())
        assert tokens[0] == tokens[1]


_param_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**40), 2**40),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=6),
        st.builds(np.float64, st.floats(-1e3, 1e3)),
        st.builds(np.int32, st.integers(-100, 100)),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
        st.builds(np.asarray, st.lists(st.floats(-1, 1), max_size=4)),
    ),
    max_leaves=8,
)


class TestDirectDump:
    """``fingerprint()`` dumps its token without the ``jsonable`` rebuild;
    the digest must stay ``sha256(canonical_json(token))``."""

    @staticmethod
    def _canonical_digest(spec):
        text = canonical_json(spec.fingerprint_token())
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_every_registered_case(self):
        for name in available_cases():
            spec = get_case(name)
            assert spec.fingerprint() == self._canonical_digest(spec), name

    @given(
        name=st.sampled_from(["taylor-green", "poiseuille-channel", "deep-halo-tuning"]),
        tau=st.floats(0.51, 2.0),
        steps=st.integers(1, 10_000),
        dtype=st.sampled_from(["float32", "float64"]),
        lattice=st.sampled_from(["D3Q19", "D3Q39"]),
        params=st.dictionaries(
            st.text("abcdefxyz_", min_size=1, max_size=5), _param_values, max_size=3
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_overrides(self, name, tau, steps, dtype, lattice, params):
        spec = get_case(name).with_overrides(
            tau=tau, steps=steps, dtype=dtype, lattice=lattice, **params
        )
        assert spec.fingerprint() == self._canonical_digest(spec)
