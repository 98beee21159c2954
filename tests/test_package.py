from __future__ import annotations

import inspect

import obreshkov
from obreshkov import simulator, solver, spectrum, suitability, tableau

LIBRARY_MODULES = (tableau, suitability, spectrum, solver, simulator)


def test_package_exports_each_module_list_once_in_module_order():
    names = [name for module in LIBRARY_MODULES for name in module.__all__]
    assert obreshkov.__all__ == names
    assert len(set(names)) == len(names)
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            obj = vars(module)[name]
            assert getattr(obreshkov, name) is obj, name
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name
