"""numpy, imported on first attribute access.

Every module of the package takes numpy as ``from ._numpy import np``. When
numpy is already in ``sys.modules``, ``np`` is that module. Otherwise numpy is
registered through ``importlib.util.LazyLoader`` and its ``__init__`` runs on
the first attribute access, so a process that never touches an array, such
as ``obreshkov analyze`` on an m = 1 rule, never runs it. A plain
``import numpy`` statement reads ``__spec__`` from the lazy module and so runs
numpy at once; no module of the package may use one. On Python 3.10 and 3.11
that first access is not thread-safe; a host that imports numpy before this
package gets the plain module.
"""
from __future__ import annotations

import importlib.util
import sys


def _lazy_import(name: str):
    """The module `name`, executed on first attribute access unless already imported."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")
