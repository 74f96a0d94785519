"""Package attributes loaded on first access (PEP 562).

Every ``repro`` package ``__init__`` declares which of its submodules
defines each name it re-exports, and :func:`attach` turns that table
into the package's module ``__getattr__`` and ``__dir__``.  Importing a
package then runs nothing but its ``__init__``: a submodule loads the
first time one of its names (or the submodule itself) is looked up, so
a process pays for the subsystems it uses and no others.  The names,
``__all__`` and the objects they resolve to are the same as with eager
imports; ``from package import *`` loads every submodule ``__all__``
names.

A name that is also a submodule's name (``repro.core.equilibrium``,
``repro.machine.roofline``) must be imported eagerly by its package:
the import system binds a submodule to its parent's attribute when it
first loads, which would replace a lazily resolved function.
"""

from __future__ import annotations

import sys
from importlib import import_module
from importlib.util import find_spec
from typing import Callable, Iterable, Mapping

__all__ = ["attach"]


def attach(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a submodule's name (relative to ``package``) to the
    names the package re-exports from it.  Any other attribute that
    names a submodule of ``package`` imports that submodule.
    """
    owner = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        sub = owner.get(name)
        if sub is not None:
            value = getattr(import_module(f"{package}.{sub}"), name)
        elif name.isidentifier() and not name.startswith("__") and find_spec(
            f"{package}.{name}"
        ):
            value = import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # Bound on the package, so later lookups no longer come here.
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        module = sys.modules[package]
        return sorted(set(vars(module)) | set(module.__all__))

    return __getattr__, __dir__
