"""The package's naming rule: its attributes are the public re-exports, also
where a module shares its name with a function it defines.  Its records and
what a command-line run imports."""

import copy
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fragmerge
from fragmerge import (
    AND2,
    HORN,
    Aggregator,
    Base,
    BetaMapping,
    ClosureRefinement,
    CountingDistance,
    Instance,
    LexClosureRefinement,
    LexRefinement,
    PostulateId,
    SearchSpace,
    Witness,
    closure,
    score_table,
)
from fragmerge.cli import parse_problem_file
from fragmerge.postulates import CheckRow, FixtureReport
from helpers import U2, ms, prof


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


def _records():
    profile = prof(U2, ("a", "ab"))
    instance = Instance((profile,), (ms(U2, "b"),))
    score_row = score_table(profile, ms(U2, "b"), CountingDistance.hamming(2), Aggregator.GMAX)[0]
    check_row = CheckRow("cell", "x", "x")
    return [
        AND2,
        HORN,
        CountingDistance.hamming(2),
        Base(ms(U2, "a")),
        score_row.value,
        score_row,
        instance,
        Witness(PostulateId.IC1, instance, "op", "message", (("name", "value"),)),
        SearchSpace(2, HORN),
        check_row,
        FixtureReport("id", "title", (check_row,)),
        ClosureRefinement(AND2),
        LexRefinement(AND2),
        LexClosureRefinement(AND2),
        BetaMapping(AND2, closure, "closure"),
        parse_problem_file("atoms: a b\nbase K: a\n"),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda record: type(record).__name__)
def test_records_are_immutable_and_equal_only_their_own_class(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    again = copy.copy(record)
    assert again == record and not again != record
    assert record != tuple(record) and not record == tuple(record)


def test_the_cli_imports_no_dataclasses_or_inspect():
    # In a subprocess, because pytest itself imports both modules.
    code = "import sys, fragmerge.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(fragmerge.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert run.stdout == "[]\n"
