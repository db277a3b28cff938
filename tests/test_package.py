"""The package's naming rule: its attributes are the public re-exports, also
where a module shares its name with a function it defines."""

import importlib
import sys
import types

import fragmerge


def test_a_clashing_module_name_is_the_function():
    clashes = []
    for name in ("cli", "formula", "interp", "merge", "postulates", "refine"):
        module = importlib.import_module(f"fragmerge.{name}")
        assert sys.modules[f"fragmerge.{name}"] is module
        if getattr(fragmerge, name) is not module:
            clashes.append(name)
            assert getattr(fragmerge, name) is getattr(module, name)
    assert clashes == ["merge", "refine"]


def test_import_as_binds_the_function():
    import fragmerge.merge as m
    import fragmerge.refine as r

    assert not isinstance(r, types.ModuleType) and r is fragmerge.refine
    assert not isinstance(m, types.ModuleType) and m is fragmerge.merge
