"""The compiled planned collide and its numpy reference.

``collide.c`` and ``KernelPlan._collide_reference`` perform one op
sequence, so they must write the same bytes for every lattice, order,
dtype, forcing, aliasing, block remainder and plan kind, whether the C
loop loads its blocks by copy or through the gather table, and whatever
the table's index width.  On a host without a C compiler the reference
carries every planned run, and case payloads and sweep tables must not
change by a byte.  Every array a plan hands the C loop starts on a cache
line, wherever the heap places it.
"""

import contextlib
import functools
import inspect
import json
import logging
import os
import subprocess
import sys
import threading
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import repro
from repro import api
from repro.core import (
    BounceBackWalls,
    GuoForcing,
    KernelPlan,
    PlannedSparseKernel,
    Simulation,
    SparseDomain,
    compiled,
    equilibrium,
)
from repro.core import plan as plan_module
from repro.core.io import canonical_json
from repro.core.plan import aligned_empty, build_gather_table, index_dtype
from repro.core.sparse import build_sparse_gather_table
from repro.errors import LatticeError
from repro.lattice import get_lattice
from repro.telemetry import Telemetry, set_telemetry

LATTICE_ORDERS = [
    (lname, order)
    for lname in ("D3Q15", "D3Q19", "D3Q27", "D3Q39")
    for order in range(1, get_lattice(lname).equilibrium_order + 1)
]

#: No force, a force along one axis, an oblique force.
FORCES = {"none": None, "axis": (1e-4, 0.0, 0.0), "oblique": (2e-4, -1e-4, 5e-5)}

OMEGA = 1.0 / 0.7


def _loaded(dtype):
    native = compiled.load(dtype)
    if native is None:
        pytest.skip("no C compiler: the compiled collide did not build")
    return native


@pytest.fixture(scope="module")
def built():
    """Skip, before any hypothesis example runs, where nothing compiles."""
    _loaded("float64")


def _reference():
    """Plans built inside this context run the numpy reference."""
    return mock.patch.object(compiled, "load", lambda dtype: None)


@contextlib.contextmanager
def _shifted_heap(shift):
    """Every ``np.empty`` made inside starts ``shift`` bytes past a
    cache line: where a plain ``np.empty`` may land (it promises 16)."""
    real = np.empty

    def empty(shape, dtype=float, order="C", **kwargs):
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        raw = real(nbytes + 2 * compiled.ALIGNMENT, dtype=np.uint8)
        start = (shift - raw.ctypes.data) % compiled.ALIGNMENT
        return raw[start : start + nbytes].view(dtype).reshape(shape)

    with mock.patch.object(np, "empty", empty):
        yield


def _populations(lattice, n, rng, dtype):
    rho = 1.0 + 0.02 * rng.standard_normal(n)
    u = 0.05 * rng.standard_normal((lattice.dim, n))
    noise = 1e-3 * rng.standard_normal((lattice.q, n))
    return (equilibrium(lattice, rho, u) + noise).astype(dtype)


class TestDifferential:
    @pytest.mark.parametrize("force", list(FORCES))
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("lname,order", LATTICE_ORDERS)
    def test_c_loop_equals_reference(self, lname, order, dtype, force):
        """Every lattice x order x dtype x force cell, in and out of place,
        for N below the C block size and N that is not a multiple of it."""
        block = _loaded(dtype).block
        lat = get_lattice(lname)
        rng = np.random.default_rng(7)
        for n in (block // 2 + 1, 2 * block + 37):
            src = _populations(lat, n, rng, dtype)
            outputs = []
            for make in (contextlib.nullcontext, _reference):
                gather = np.zeros(lat.q * n, dtype=np.int64)
                with make():
                    plan = KernelPlan(lat, (n,), order, dtype, gather=gather)
                if FORCES[force] is not None:
                    plan.set_forcing(FORCES[force], OMEGA)
                out = np.empty_like(src)
                plan.collide_into(src, out, OMEGA)
                in_place = src.copy()
                plan.collide_into(in_place, in_place, OMEGA)
                outputs.append((plan.compiled, out, in_place))
            (built, out, in_place), (ref_built, ref_out, ref_in_place) = outputs
            assert built and not ref_built
            assert out.tobytes() == ref_out.tobytes()
            assert in_place.tobytes() == ref_in_place.tobytes()
            assert out.tobytes() == in_place.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["soa", "aos", "sparse", "window"]),
        lattice_order=st.sampled_from(LATTICE_ORDERS),
        dtype=st.sampled_from(["float64", "float32"]),
        force=st.sampled_from(list(FORCES)),
        shape=st.tuples(*[st.integers(1, 7)] * 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        kind="window",
        lattice_order=("D3Q39", 3),
        dtype="float64",
        force="oblique",
        shape=(2, 7, 7),
        seed=0,
    )
    def test_plan_kinds_step_alike(
        self, built, kind, lattice_order, dtype, force, shape, seed
    ):
        """A full stream + collide step through AoS, sparse and slab-window
        plans: the compiled plan and the reference plan agree bytewise."""
        _loaded(dtype)
        lname, order = lattice_order
        lat = get_lattice(lname)
        results = []
        for make in (contextlib.nullcontext, _reference):
            rng = np.random.default_rng(seed)  # one state for both plans
            with make():
                plan, f, step = _plan_kind(kind, lat, shape, order, dtype, rng)
            if FORCES[force] is not None:
                plan.set_forcing(FORCES[force], OMEGA)
            results.append((plan.compiled, step(plan, f)))
        (built, got), (ref_built, expected) = results
        assert built and not ref_built
        assert got.tobytes() == expected.tobytes()


class TestOnePassStep:
    """``KernelPlan.advance``: the C loop gathering through the table
    equals its no-``cc`` form (``np.take``, then the reference collide
    in place) and the two-pass split, byte for byte."""

    @pytest.mark.parametrize("force", list(FORCES))
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("lname,order", LATTICE_ORDERS)
    @pytest.mark.parametrize("kind", ["soa", "sparse"])
    def test_advance_equals_its_no_cc_form(self, kind, lname, order, dtype, force):
        block = _loaded(dtype).block
        lat = get_lattice(lname)
        rng = np.random.default_rng(5)
        # dense: 315 cells, a folded wall on one face; sparse: a fluid
        # list of a walled box, neither a multiple of the block
        shape = (5, 7, 9)
        solid = np.zeros(shape, dtype=bool)
        solid[:, 0, :] = True
        if kind == "sparse":
            domain = SparseDomain(lat, solid | (rng.random(shape) < 0.2))
            gather = build_sparse_gather_table(domain)
            n, grid = domain.num_fluid, (domain.num_fluid,)
        else:
            n, grid = int(np.prod(shape)), shape
        assert n % block
        src = _populations(lat, n, rng, dtype).reshape(lat.q, *grid)
        results = []
        for make in (contextlib.nullcontext, _reference):
            with make():
                if kind == "sparse":
                    plan = KernelPlan(lat, grid, order, dtype, gather=gather.copy())
                else:
                    plan = KernelPlan(lat, grid, order, dtype)
                    plan.fold_bounce_back(solid)
            if FORCES[force] is not None:
                plan.set_forcing(FORCES[force], OMEGA)
            out = np.empty_like(src)
            plan.advance(src, out, OMEGA)
            split = np.empty((lat.q, n), dtype=dtype)
            plan.stream_into(src, split)
            plan.collide_into(split, split, OMEGA)
            results.append((plan.compiled, out, split))
        (built, out, split), (ref_built, ref_out, ref_split) = results
        assert built and not ref_built
        assert out.tobytes() == ref_out.tobytes()
        assert out.tobytes() == split.tobytes() == ref_split.tobytes()

    @pytest.mark.parametrize("path", ["compiled", "reference"])
    def test_overlap_refused(self, q19, path):
        if path == "compiled":
            _loaded("float64")
        with contextlib.nullcontext() if path == "compiled" else _reference():
            plan = KernelPlan(q19, (4, 4, 4))
        f = np.ones((q19.q, 4, 4, 4))
        before = f.copy()
        pair = np.ones((2 * q19.q, 4, 4, 4))
        for src, out in ((f, f), (pair[: q19.q], pair[1 : q19.q + 1])):
            with pytest.raises(LatticeError, match="overlap"):
                plan.advance(src, out, OMEGA)
        assert f.tobytes() == before.tobytes()

    @pytest.mark.parametrize("path", ["compiled", "reference"])
    def test_plan_index_dtype(self, q19, path):
        """A compiled plan indexes through int32 while every index fits,
        int64 from ``INDEX_LIMIT`` source populations on; the reference
        through ``np.intp``, the one index type ``np.take`` reads without
        a per-call copy.  An explicit table is refused unless the plan's
        path reads it as it is: contiguous, ``(Q * N,)``, of those types."""
        if path == "compiled":
            _loaded("float64")
        shape, populations = (4, 4, 4), q19.q * 64
        make = contextlib.nullcontext if path == "compiled" else _reference
        limits = {populations + 1: np.int32, populations: np.int64}
        for limit, compiled_index in limits.items():
            with make(), mock.patch.object(plan_module, "INDEX_LIMIT", limit):
                plan = KernelPlan(q19, shape)
                assert index_dtype(populations, plan.dtype) == plan.index_dtype
            expected = compiled_index if path == "compiled" else np.intp
            assert plan.index_dtype == expected
            assert plan.gather.dtype == expected
        table = build_gather_table(q19, shape, np.int32)
        wide = np.repeat(build_gather_table(q19, shape), 2)
        bad = [
            (table.astype(np.int16), "int16"),
            (table.astype(np.float64), "float64"),
            (wide[::2], "contiguous: False"),
            (table[:-1], r"shape \(1216,\)"),
        ]
        accepted = [wide[::2].copy()]  # np.intp: both paths read it
        if path == "compiled":
            accepted.append(table)
        else:
            bad.append((table, "int32"))  # np.take would copy it every call
        for gather, match in bad:
            with make(), pytest.raises(LatticeError, match=match):
                KernelPlan(q19, shape, gather=gather)
        for gather in accepted:
            with make():
                assert KernelPlan(q19, shape, gather=gather).index_dtype == gather.dtype

    @pytest.mark.parametrize("kind", ["soa", "aos", "sparse", "window"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("lname", ["D3Q15", "D3Q19", "D3Q27", "D3Q39"])
    def test_index_width_changes_no_byte(self, kind, lname, dtype):
        """``advance`` and ``stream_into`` write the same bytes through
        int32 tables, through int64 ones (the limit lowered to force
        them) and through the reference's ``np.take``."""
        _loaded(dtype)
        lat = get_lattice(lname)
        limit_one = functools.partial(mock.patch.object, plan_module, "INDEX_LIMIT", 1)
        widths = {
            "int32": (contextlib.nullcontext, np.int32),
            "int64": (limit_one, np.int64),
            "reference": (_reference, np.intp),
        }
        results = {}
        for name, (make, expected) in widths.items():
            rng = np.random.default_rng(11)  # one state for every width
            with make():
                plan, f, _ = _plan_kind(kind, lat, (5, 4, 3), None, dtype, rng)
            plan.set_forcing(FORCES["oblique"], OMEGA)
            assert plan.index_dtype == expected and plan.gather.dtype == expected
            assert plan.compiled == (name != "reference")
            streamed = np.empty((lat.q, plan.num_cells), dtype=dtype)
            plan.stream_into(f, streamed)
            stepped = np.empty((lat.q, *plan.shape), dtype=dtype)
            plan.advance(f, stepped, OMEGA)
            results[name] = (streamed.tobytes(), stepped.tobytes())
        assert results["int32"] == results["int64"] == results["reference"]

    @pytest.mark.parametrize("path", ["compiled", "reference"])
    def test_stream_refuses_what_it_cannot_address(self, q19, path):
        if path == "compiled":
            _loaded("float64")
        with contextlib.nullcontext() if path == "compiled" else _reference():
            plan = KernelPlan(q19, (2, 2, 2))
        f = np.ones((q19.q, 2, 2, 2))
        pair = np.ones((2 * q19.q, 2, 2, 2))
        cases = [
            (f, np.empty((q19.q, 8), np.float32), "float64"),
            (f, np.empty((q19.q, 9)), "shape"),
            (f, np.empty((q19.q, 16))[:, ::2], "C-contiguous"),
            (np.ones((q19.q, 2, 2, 4))[..., ::2], np.empty((q19.q, 8)), "C-contiguous"),
            (f, f, "overlap"),
            (pair[: q19.q], pair[1 : q19.q + 1], "overlap"),
        ]
        for src, out, match in cases:
            with pytest.raises(LatticeError, match=match):
                plan.stream_into(src, out)
        rows, grid = np.empty((q19.q, 8)), np.empty_like(f)  # both shapes stream
        plan.stream_into(f, rows)
        plan.stream_into(f, grid)
        assert rows.tobytes() == grid.tobytes()

    def test_bad_arrays_and_omega_refused(self, q19):
        for make in (contextlib.nullcontext, _reference):
            with make():
                plan = KernelPlan(q19, (2, 2, 2))
            f = np.ones((q19.q, 2, 2, 2))
            cases = [
                (f, np.ones((q19.q, 2, 2, 2), np.float32), "float64"),
                (f, np.ones((q19.q, 8)), "shape"),
                (np.ones((q19.q, 2, 2, 4))[..., ::2], np.ones_like(f), "C-contiguous"),
            ]
            for src, out, match in cases:
                with pytest.raises(LatticeError, match=match):
                    plan.advance(src, out, OMEGA)
            plan.set_forcing((1e-5, 0.0, 0.0), OMEGA)
            with pytest.raises(LatticeError, match="omega"):
                plan.advance(f, np.empty_like(f), 1.0)


class TestAlignment:
    """The C loop assumes its scratch starts on a cache line (``collide.c``'s
    alignment contract); every array a plan allocates for it does."""

    @pytest.mark.parametrize("kind", ["soa", "aos", "sparse", "window"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("lname", ["D3Q15", "D3Q19", "D3Q27", "D3Q39"])
    def test_plan_arrays_start_on_a_cache_line(self, kind, lname, dtype):
        """Dense SoA and AoS plans (walled and forced), sparse plans and
        slab windows, built after every np.empty is shifted 16, 32 and
        48 bytes past a cache line."""
        _loaded(dtype)
        lat = get_lattice(lname)
        shape = (6, 5, 4)
        solid = np.zeros(shape, dtype=bool)
        solid[:, 0, :] = True
        for shift in (16, 32, 48):
            with _shifted_heap(shift):
                assert np.empty(3).ctypes.data % compiled.ALIGNMENT == shift
                if kind == "sparse":
                    domain = SparseDomain(lat, solid)
                    plan = PlannedSparseKernel(domain, 0.8, dtype=dtype).plan
                    plan.set_forcing((1e-5, 0.0, 0.0), OMEGA)
                elif kind == "window":
                    k = lat.max_displacement
                    plan = KernelPlan.for_window(
                        lat, (6 + 2 * k, 5, 4), slice(k, k + 6), dtype=dtype
                    )
                else:
                    sim = Simulation(
                        lat,
                        shape,
                        tau=0.8,
                        boundaries=[BounceBackWalls(lat, solid)],
                        forcing=GuoForcing(lat, (1e-5, 0.0, 0.0)),
                        dtype=dtype,
                        layout=kind,
                    )
                    plan = sim.kernel.plan_for(shape)
                    assert plan.folded_walls and plan.forced
                arrays = {"scratch": plan._scratch, "buffer": plan.buffer}
                if kind == "aos":
                    arrays["aos_out"] = plan._aos_out
            assert plan.compiled
            for name, array in arrays.items():
                assert array.ctypes.data % compiled.ALIGNMENT == 0, (shift, name)
                assert array.flags.c_contiguous and array.dtype == dtype

    def test_misaligned_scratch_refused(self, q19):
        """A scratch one element off a cache line is refused before the
        loop, which assumes the alignment, can see it."""
        _loaded("float64")
        plan = KernelPlan(q19, (4, 4, 4))
        scratch = plan._scratch
        plan._scratch = aligned_empty((scratch.size + 1,), scratch.dtype)[1:]
        with pytest.raises(LatticeError, match="64-byte boundary"):
            plan._bind_native()
        with pytest.raises(LatticeError, match="64-byte boundary"):
            plan.set_forcing((1e-5, 0.0, 0.0), OMEGA)
        plan._scratch = scratch
        plan._bind_native()

    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (19, 6, 5, 4)])
    @pytest.mark.parametrize("dtype", ["float64", "float32", "int32"])
    def test_aligned_empty(self, shape, dtype):
        for shift in (0, 16, 32, 48):
            with _shifted_heap(shift):
                array = aligned_empty(shape, dtype)
            assert array.ctypes.data % compiled.ALIGNMENT == 0
            assert array.shape == shape and array.dtype == dtype
            assert array.flags.c_contiguous and array.flags.writeable


def _plan_kind(kind, lat, shape, order, dtype, rng):
    """(plan, populations, step) for one plan kind."""
    if kind == "window":
        k = lat.max_displacement
        padded = (shape[0] + 2 * k, *shape[1:])
        window = slice(k, k + shape[0])
        plan = KernelPlan.for_window(lat, padded, window, order=order, dtype=dtype)
        f = _populations(lat, int(np.prod(padded)), rng, dtype)
        f = f.reshape(lat.q, *padded)

        def step(plan, f):
            adv = plan.buffer.reshape(lat.q, -1)
            plan.stream_into(f, adv)
            plan.collide_into(adv, adv, OMEGA)  # in place, as the slab does
            return adv

        return plan, f, step
    if kind == "sparse":
        solid = rng.random(shape) < 0.3
        solid.flat[0] = False
        domain = SparseDomain(lat, solid)
        index = index_dtype(lat.q * domain.num_fluid, dtype)
        gather = build_sparse_gather_table(domain, index)
        plan = KernelPlan(
            lat, (domain.num_fluid,), order=order, dtype=dtype, gather=gather
        )
        f = _populations(lat, domain.num_fluid, rng, dtype)
    else:
        plan = KernelPlan(lat, shape, order=order, dtype=dtype, layout=kind)
        f = _populations(lat, int(np.prod(shape)), rng, dtype)
        f = f.reshape(lat.q, *shape)
        if kind == "aos":
            f = np.moveaxis(np.ascontiguousarray(np.moveaxis(f, 0, -1)), -1, 0)

    def step(plan, f):
        if kind == "aos":
            adv = plan.buffer.reshape(lat.q, -1)
            plan.stream_into(f, adv)
            plan.collide_native(adv, f, OMEGA)
            return np.moveaxis(f, 0, -1)
        out = np.empty_like(f)
        plan.advance(f, out, OMEGA)
        return out

    return plan, f, step


class TestReferenceCarriesTheRunsWithoutACompiler:
    def test_payload_and_sweep_table_unchanged(self, monkeypatch, tmp_path, caplog):
        """``cc`` hidden from a fresh loader: the forced, walled artery
        payload and a D3Q19/D3Q39 sweep table are byte-identical to the
        compiled run, and the fallback is logged once per process."""
        _loaded("float64")

        def outputs():
            case = api.run_case("artery-flow", steps=40)
            grid = {"lattice": ["D3Q19", "D3Q39"]}
            sweep = api.run_sweep("taylor-green", grid, steps=5, jobs=1)
            path = case.result.simulation.effective_path["collide"]
            return path, canonical_json(case.payload), sweep.to_csv()

        path, payload, table = outputs()
        assert path == "compiled"
        monkeypatch.setattr(compiled, "_PROCESS_LOADER", compiled.Loader())
        monkeypatch.setenv("PATH", str(tmp_path))
        with caplog.at_level(logging.WARNING, logger=compiled.__name__):
            ref_path, ref_payload, ref_table = outputs()
            compiled.load("float32")  # a second dtype warns no more
        assert ref_path == "arena"
        assert ref_payload == payload
        assert ref_table == table
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "no 'cc' on PATH" in warnings[0].getMessage()


class TestLoader:
    def test_import_builds_nothing(self):
        """``import repro.api`` starts no compiler and loads no library;
        it imports :mod:`ctypes` only where numpy itself does."""
        code = """if True:
            import json, subprocess, sys
            spawned = []
            start = subprocess.Popen.__init__
            def record(self, *args, **kwargs):
                spawned.append(str(args[0] if args else kwargs.get("args")))
                start(self, *args, **kwargs)
            subprocess.Popen.__init__ = record
            import numpy
            numpy_ctypes = "ctypes" in sys.modules
            import repro.api
            from repro.core import compiled
            print(json.dumps({
                "spawned": spawned,
                "built": sorted(compiled._PROCESS_LOADER._built),
                "ctypes": "ctypes" in sys.modules,
                "numpy_ctypes": numpy_ctypes,
            }))
        """
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
            env=env,
        )
        state = json.loads(run.stdout)
        assert state["spawned"] == []
        assert state["built"] == []
        assert state["ctypes"] == state["numpy_ctypes"]

    def test_concurrent_first_loads_build_once(self):
        """Eight threads race for a fresh loader's first float64 plan: one
        compile, one shared function."""
        _loaded("float64")
        loader = compiled.Loader()
        builds = []
        real_compile = loader._compile

        def counting_compile(*args):
            builds.append(args)
            return real_compile(*args)

        loader._compile = counting_compile
        barrier = threading.Barrier(8)
        got = []

        def first_plan():
            barrier.wait(timeout=30)
            got.append(loader.load("float64"))

        threads = [threading.Thread(target=first_plan) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert len(builds) == 1
        assert len(got) == 8 and len({id(fn) for fn in got}) == 1

    def test_failed_build_falls_back_with_one_event(self, caplog, tmp_path):
        """A compiler that fails returns None, warns once for any number of
        dtypes, and records one ``kernel.compile`` event per build."""
        failing = tmp_path / "cc"
        failing.write_text("#!/bin/sh\nexit 1\n")
        failing.chmod(0o755)
        recorder = Telemetry.in_memory()
        previous = set_telemetry(recorder)
        try:
            loader = compiled.Loader(compiler=str(failing))
            with caplog.at_level(logging.WARNING, logger=compiled.__name__):
                assert loader.load("float64") is None
                assert loader.load("float64") is None
                assert loader.load("float32") is None
        finally:
            set_telemetry(previous)
        events = [e for e in recorder.events() if e["name"] == "kernel.compile"]
        assert [e["attrs"]["dtype"] for e in events] == ["float64", "float32"]
        assert {e["attrs"]["outcome"] for e in events} == {"reference"}
        assert all(e["attrs"]["seconds"] >= 0 for e in events)
        assert "exited 1" in events[0]["attrs"]["reason"]
        assert len([r for r in caplog.records if r.levelno == logging.WARNING]) == 1

    def test_successful_build_event(self):
        _loaded("float64")
        recorder = Telemetry.in_memory()
        previous = set_telemetry(recorder)
        try:
            assert compiled.Loader().load("float64") is not None
        finally:
            set_telemetry(previous)
        (event,) = [e for e in recorder.events() if e["name"] == "kernel.compile"]
        assert event["attrs"]["outcome"] == "compiled"
        assert event["attrs"]["seconds"] > 0
        assert event["attrs"]["reason"] is None


class TestPlanSurface:
    def test_collide_has_no_blas_call(self):
        """The reference sums term by term; a BLAS product would reorder
        the sums and break the byte contract with the C loop."""
        for fn in (
            KernelPlan.advance,
            KernelPlan.collide_into,
            KernelPlan._collide_reference,
        ):
            body = inspect.getsource(fn)
            for banned in ("np.dot", "@", "matmul", "einsum", "tensordot"):
                assert banned not in body, (fn.__name__, banned)

    @pytest.mark.parametrize(
        "src,out,match",
        [
            (np.ones((19, 8)), np.ones((19, 8), np.float32), "float64"),
            (np.ones((19, 9)), np.ones((19, 8)), "shape"),
            (np.ones((19, 16))[:, ::2], np.ones((19, 8)), "C-contiguous"),
        ],
    )
    def test_bad_buffers_rejected_on_both_paths(self, q19, src, out, match):
        for make in (contextlib.nullcontext, _reference):
            with make():
                plan = KernelPlan(q19, (2, 2, 2))
            with pytest.raises(LatticeError, match=match):
                plan.collide_into(src, out, OMEGA)
