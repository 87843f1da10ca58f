"""Lazy package exports (PEP 562 module ``__getattr__``).

A package ``__init__`` imports eagerly only what its core path runs.
The names of its optional subsystems stay in ``__all__`` and resolve on
first attribute access, so ``from repro.verify import fuzz_corpus``
still gives the object it always gave, and a process that never asks
for the fuzzer never imports it.  Each such package also imports the
lazy names under ``if TYPE_CHECKING:``, which type checkers and
pyflakes read; at run time that block imports nothing.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable


def lazy_exports(package: str,
                 submodules: dict[str, tuple[str, ...]],
                 ) -> Callable[[str], object]:
    """A module ``__getattr__`` for ``package``: a name listed under a
    submodule imports that submodule on first access, and the value is
    then kept in the package namespace."""
    namespace = sys.modules[package].__dict__
    home = {name: submodule
            for submodule, names in submodules.items() for name in names}

    def __getattr__(name: str) -> object:
        submodule = home.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    return __getattr__
