"""Lazy package namespaces: a package's re-exports load on first use.

Every ``repro`` package ``__init__`` re-exports names from its
submodules.  Importing those submodules up front would make ``import
repro.cli`` load the whole program (the HTTP exporter, the SVG plotter,
the worker pool) before a command runs its first line.  Instead each
``__init__`` declares which submodule defines which name and installs
the module ``__getattr__`` (PEP 562) that :func:`lazy_exports` returns.
The first access of a name imports its submodule and binds the value
on the package, so every later access is a plain attribute read.
"""

from __future__ import annotations

import importlib
import sys

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for a package that re-exports lazily.

    ``exports`` maps each submodule of ``package`` to the names the
    package re-exports from it.  A submodule's own name resolves to the
    submodule, as it does once an eager ``__init__`` has imported it.
    """
    owner = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name in exports:
            value = importlib.import_module(f"{package}.{name}")
        elif name in owner:
            value = getattr(importlib.import_module(f"{package}.{owner[name]}"), name)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *exports, *owner})

    return __getattr__, __dir__
