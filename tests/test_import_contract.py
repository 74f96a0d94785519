"""Import contract of the ``repro`` packages, each check in a fresh
interpreter: what importing them loads, and that every public name
still resolves to the object its defining module holds."""

import json
import os
from pathlib import Path

import pytest

from .import_contract import ENTRY_POINTS, fresh, unused_loaded

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), ENV.get("PYTHONPATH")]))

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.experiments",
    "repro.lattice",
    "repro.machine",
    "repro.parallel",
    "repro.perf",
    "repro.resilience",
    "repro.scenarios",
    "repro.serve",
    "repro.telemetry",
]


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_entry_point_loads_no_unused_subsystem(entry_point):
    assert unused_loaded(entry_point, ENV) == []


def test_every_exported_name_resolves_to_its_defining_object():
    """Names are read before anything else loads them; after every
    submodule of the tree has loaded they must still be the same objects,
    a function or class must be the one its own module defines, and a
    name shared by a submodule and the function it defines is the
    function."""
    code = f"""if True:
        import importlib, inspect, json, pkgutil, sys, types
        import repro

        packages = {PACKAGES!r}
        first = {{}}
        problems = []
        for name in packages:
            package = importlib.import_module(name)
            listed = dir(package)
            for attr in package.__all__:
                first[name, attr] = getattr(package, attr)
                if attr not in listed:
                    problems.append(f"{{name}}.{{attr}} not in dir()")
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        for (name, attr), value in first.items():
            where = f"{{name}}.{{attr}}"
            if getattr(sys.modules[name], attr) is not value:
                problems.append(f"{{where}} changed once its submodules loaded")
            elif isinstance(value, types.ModuleType):
                if value.__name__ != where:
                    problems.append(f"{{where}} is the module {{value.__name__}}")
                inner = getattr(value, attr, None)
                if getattr(inner, "__module__", None) == where:
                    problems.append(f"{{where}} is the module, not its {{attr}}")
            elif inspect.isclass(value) or inspect.isfunction(value):
                if getattr(sys.modules[value.__module__], attr, None) is not value:
                    problems.append(f"{{where}} is not {{value.__module__}}.{{attr}}")
            elif not any(
                vars(module).get(attr) is value
                for key, module in list(sys.modules.items())
                if key.startswith(name + ".")
            ):
                problems.append(f"{{where}} is held by no submodule of {{name}}")
        print(json.dumps([len(first), problems]))
    """
    count, problems = json.loads(fresh(code, ENV))
    assert problems == []
    assert count > 200


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_name(package):
    code = f"""if True:
        import importlib, json
        namespace = {{}}
        exec("from {package} import *", namespace)
        package = importlib.import_module("{package}")
        print(json.dumps([
            name for name in package.__all__
            if namespace.get(name, namespace) is not getattr(package, name)
        ]))
    """
    assert json.loads(fresh(code, ENV)) == []


def test_functions_named_like_their_submodules_stay_functions():
    """``repro.core.equilibrium`` and ``repro.machine.roofline`` name a
    function and its submodule; loading the submodule must not rebind
    the package's attribute to it.  (The test above touches the names
    first and loads the submodules after.)"""
    code = """if True:
        import sys, types
        import repro.core.equilibrium, repro.machine.roofline
        import repro.core.boundary, repro.scenarios.scheduler  # their importers
        from repro import core, machine
        print(
            core.equilibrium is sys.modules["repro.core.equilibrium"].equilibrium
            and machine.roofline is sys.modules["repro.machine.roofline"].roofline
            and isinstance(core.equilibrium, types.FunctionType)
            and isinstance(machine.roofline, types.FunctionType)
        )
    """
    assert fresh(code, ENV) == "True"


def test_submodules_resolve_as_attributes():
    """As with eager imports, a package's submodules are its attributes,
    loaded on first access; unknown names still raise AttributeError."""
    code = """if True:
        import sys
        import repro.core
        assert "repro.core.sparse" not in sys.modules
        sparse = repro.core.sparse
        assert sparse is sys.modules["repro.core.sparse"]
        assert repro.scenarios.cli is sys.modules["repro.scenarios.cli"]
        try:
            repro.core.no_such_name
        except AttributeError:
            print("ok")
    """
    assert fresh(code, ENV) == "ok"


def test_kernel_registry_is_complete_before_sparse_loads():
    """``available_kernels()`` names the sparse rung whatever the process
    has imported, so a spec spelling it validates before
    ``repro.core.sparse`` loads, and a dense build refuses it by name."""
    code = """if True:
        import json, sys
        import repro.api
        from repro.core.plan import available_kernels, make_kernel
        from repro.errors import LatticeError
        from repro.lattice import get_lattice
        from repro.scenarios import CaseRunner

        before = "repro.core.sparse" in sys.modules
        names = available_kernels()
        runner = CaseRunner("bifurcating-vessel", kernel="sparse-planned")
        try:
            make_kernel("sparse-planned", get_lattice("D3Q19"), 0.8)
        except LatticeError as error:
            refusal = str(error)
        print(json.dumps([
            before, names, runner.spec.kernel, refusal,
            "repro.core.sparse" in sys.modules,
        ]))
    """
    before, names, kernel, refusal, after = json.loads(fresh(code, ENV))
    assert not before and not after
    assert names == ["naive", "planned", "sparse-planned"]
    assert kernel == "sparse-planned"
    assert "streams a SparseDomain" in refusal
