"""Modules that load on first use: numpy is needed only once an LP or MIP is solved.

Importing eonrsa, and a run whose start plan fixes the LP value, leave numpy
unloaded; the first attribute read from `np` (the first `Model.arrays()`) loads it.
"""

from __future__ import annotations

import importlib.util
import sys
import types


def lazy_import(name: str) -> types.ModuleType:
    """The module `name` as imported already, or a module object that imports it on the
    first attribute read; both sit in sys.modules under `name`."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ImportError(f"no module named {name!r}", name=name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


np = lazy_import("numpy")
