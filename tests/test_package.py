"""The package's public surface: each submodule name is its module, the
exports are a pinned set, retired names and options stay gone, and no
module keeps an unused import.  Its records and what a command-line run
imports."""

import ast
import copy
import importlib
import inspect
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
from fragmerge import interp
from fragmerge.cli import parse_problem_file
from fragmerge.merge import MergeOperator, answer_table
from fragmerge.refine import RefinedOperator
from fragmerge.postulates import CheckRow, FixtureReport
from helpers import U2, ms, prof


MODULES = ("cli", "formula", "interp", "merge", "postulates", "refine")

# The package's exports other than its modules.  A change that adds or drops
# an export changes this set in the same diff.
EXPORTS = {
    "ALL_POSTULATES", "AND2", "Aggregator", "AggValue", "ArityMismatchError", "Base", "BetaMapping",
    "BooleanFn", "Classification", "Clause", "ClauseKind", "ClosureRefinement", "CountingDistance",
    "EmptyInputError", "EmptySpaceError", "Formula", "Fragment", "HORN", "InconsistentBaseError",
    "Instance", "Interpretation", "KROM", "LexClosureRefinement", "LexOrder", "LexRefinement",
    "MAJ3", "MappingViolationError", "MergeOperator", "ModelSet", "NoSyntacticFragmentError",
    "NotClosedError", "NotReproducingError", "NotSymmetricError", "ParseError", "PostulateId",
    "Profile", "RefinedOperator", "SearchSpace", "ShapeMismatchError", "SpaceTooLargeError",
    "Universe", "UniverseMismatchError", "UniverseTooLargeError", "UnknownAtomError",
    "UnknownFixtureError", "Witness", "aggregate", "cardintersection", "check_postulate",
    "check_refinement_properties", "classify", "closed_model_sets", "closure", "closure_witness",
    "fixture_ids", "is_closed", "is_fair", "models", "parse", "reproduce", "score_table", "search",
    "synthesize", "to_text", "validate_mapping",
}


@pytest.mark.parametrize("name", MODULES)
def test_import_as_binds_the_module(name):
    module = importlib.import_module(f"fragmerge.{name}")
    bound = {}
    exec(f"import fragmerge.{name} as m", bound)
    assert isinstance(bound["m"], types.ModuleType) and bound["m"] is module
    assert getattr(fragmerge, name) is module


def test_the_exports_are_pinned():
    exports = {name for name in fragmerge.__all__
               if not isinstance(getattr(fragmerge, name), types.ModuleType)}
    assert exports == EXPORTS


@pytest.mark.parametrize("function, parameters", [
    (fragmerge.synthesize, ["mset", "fragment"]),
    (fragmerge.closed_model_sets, ["beta", "universe"]),
    (MergeOperator.answers, ["self", "bases", "keys", "memo"]),
    (RefinedOperator.answers, ["self", "bases", "keys", "memo"]),
    (answer_table, ["op", "bases", "keys", "memo"]),
], ids=["synthesize", "closed_model_sets", "MergeOperator.answers", "RefinedOperator.answers",
        "answer_table"])
def test_retired_options_stay_gone(function, parameters):
    # synthesize always minimizes, closed_model_sets never yields the empty
    # set, and every answer table is built with a memo that the caller owns.
    signature = inspect.signature(function).parameters
    assert list(signature) == parameters
    assert all(p.default is inspect.Parameter.empty for p in signature.values())


def test_retired_names_stay_gone():
    assert not hasattr(interp, "HARD_ATOM_CAP")
    assert not hasattr(fragmerge.Universe, "from_mask")
    assert not hasattr(fragmerge.Universe, "all_masks")
    assert Base._fields == ("models",)


def _unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    package = Path(fragmerge.__file__).parent
    unused = {path.name: found for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py" and (found := _unused_imports(path))}
    assert unused == {}


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
