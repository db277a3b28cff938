import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fragmerge
import fragmerge.formula
from fragmerge import (
    MAJ3,
    CountingDistance,
    MergeOperator,
    NoSyntacticFragmentError,
    RefinedOperator,
    Universe,
    cli,
    is_closed,
    models,
    parse,
)
from fragmerge.cli import _parse_interpretations, build_parsers, main, parse_problem_file
from fragmerge.merge import InconsistentBaseError
from fragmerge.postulates import fixture_ids

EXAMPLE1 = """\
# two agents disagreeing under a mutual-exclusion constraint
atoms: a b
base K1: a
base K2: b
constraint: !a | !b
"""

# Eight atoms; the refined set {b,e,h}, {a,b,e,h} satisfies 1192 Horn clauses.
HORN8 = """\
atoms: a b c d e f g h
base K1: models {b,h}
base K2: (!d | f | h) & (!d | e | g) & (!a | d | e) & (a | d | f) & (!d | !g | h) & (!d | !g | h) & (!b | !f | h) & (!f | !g | !h) & (!c | !d | !g) & (a | !e | g) & (!c | !e | !h) & (!b | !d | !f) & (!c | d | g) & (b | f | g) & (d | !e | !g) & (!c | !d | !f) & (!f | g | !h) & (a | d | !h) & (c | d | !g) & (d | e | f) & (!a | !c | !g) & (a | !e | f) & (b | !c | e)
constraint: (!b | c | h) & (d | e | f) & (!c | d | g) & (!d | e | h) & (!a | c | !f) & (!b | !e | !g) & (!b | e | !h) & (f | !g | h) & (a | c | !d) & (b | e | f) & (!a | !b | e) & (a | b | !d) & (b | !e | g) & (!a | c | h) & (!b | !c | h) & (!b | !c | !g) & (!f | !g | !h)
"""


@pytest.fixture
def example1(tmp_path):
    path = tmp_path / "example1.txt"
    path.write_text(EXAMPLE1)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProblemFile:
    def test_parse_formula_and_model_bases(self):
        problem = parse_problem_file(
            "atoms: a b\nbase K1: a & b\nbase K2: models {a} {a, b}\nconstraint: T\n"
        )
        assert [name for name, _ in problem.bases] == ["K1", "K2"]
        assert problem.bases[1][1].models.compact() == "{a}|{a,b}"
        assert problem.constraint().compact() == "{}|{a}|{b}|{a,b}"

    def test_comments_and_blank_lines(self):
        problem = parse_problem_file("# intro\n\natoms: a\nbase K: a # trailing\n")
        assert len(problem.bases) == 1

    def test_no_constraint_means_all_models(self):
        problem = parse_problem_file("atoms: a b\nbase K: a\n")
        assert len(problem.constraint()) == 4

    def test_multiple_constraints_conjoin(self):
        problem = parse_problem_file(
            "atoms: a b\nbase K: a\nconstraint: !a | !b\nconstraint: a | b\n"
        )
        assert problem.constraint().compact() == "{a}|{b}"

    def test_only_line_feeds_and_carriage_returns_end_a_line(self):
        # A form feed stays in its line, where the formula parser names it.
        problem = parse_problem_file("atoms: a b\r\nbase K: a\rbase L: b\n")
        assert [name for name, _ in problem.bases] == ["K", "L"]
        from fragmerge.cli import ProblemFileError

        message = r"^line 2: unexpected character '\\x0c' \(at position 2\)$"
        with pytest.raises(ProblemFileError, match=message):
            parse_problem_file("atoms: a b\nbase K: a \x0c& b\n")

    def test_formula_lines_build_no_formula_node(self, monkeypatch):
        text = "atoms: a b c\nbase K1: a & (b | !c)\nbase K2: models {a}\nconstraint: !a -> b <-> c\n"
        want = parse_problem_file(text)
        u = want.universe
        assert want.bases[0][1].models == models(parse("a & (b | !c)", u), u)
        assert want.constraints == (models(parse("!a -> b <-> c", u), u),)

        def refuse(*args):
            raise AssertionError("a formula node was built")

        for name in ("parse", "models", "_leaves", "_negate_node"):
            monkeypatch.setattr(fragmerge.formula, name, refuse)
        # Every node class is built through the Formula mixin's constructor.
        monkeypatch.setattr(fragmerge.formula.Formula, "__new__", refuse)
        with pytest.raises(AssertionError, match="a formula node was built"):
            fragmerge.formula.Or(fragmerge.formula.TOP, fragmerge.formula.BOTTOM)
        assert parse_problem_file(text) == want

    def test_inconsistent_base(self):
        with pytest.raises(InconsistentBaseError):
            parse_problem_file("atoms: a\nbase K: a & !a\n")

    def test_errors(self):
        from fragmerge.cli import ProblemFileError

        bad = [
            "base K: a\n",                      # atoms missing
            "atoms: a\natoms: a\n",             # duplicate atoms line
            "atoms: a\nbase K: a |\n",          # formula syntax
            "atoms: a\nbase K: b\n",            # unknown atom
            "atoms: a\nwhat: ever\n",           # unknown line
            "atoms: a\nbase K: models a\n",     # malformed model list
            "atoms: a\n",                       # no bases
        ]
        for text in bad:
            with pytest.raises(ProblemFileError):
                parse_problem_file(text)


# Pieces of a `{...}` model: mostly bare atom names, as files hold them, else
# a known atom, an unknown one, an empty name or a name with an inner space,
# with spaces and tabs around it.
MODEL_PIECES = st.sampled_from(["a", "b", "x1"]) | st.tuples(
    st.sampled_from(["", " ", "\t"]), st.sampled_from(["a", "b", "x1", "z", "", "a b"]),
    st.sampled_from(["", " "])).map("".join)
MODELS = st.tuples(st.lists(MODEL_PIECES, max_size=5), st.booleans()).map(
    lambda t: ",".join(t[0]) + ("," if t[1] else ""))  # with a trailing comma, or not


def slow_model_mask(model, universe):
    # The mask of one `{...}` model, name by name.
    if not model.strip():
        return 0
    mask = 0
    for piece in model.split(","):
        name = piece.strip()
        if not name:
            raise ValueError(f"p: empty atom name in {{{model}}}")
        if name not in universe:
            raise ValueError(f"p: atom {name!r} not in universe {universe.atoms}")
        mask |= 1 << universe.index(name)
    return mask


def outcome(read, *args):
    try:
        return list(read(*args))
    except ValueError as exc:
        return str(exc)


class TestModelListOrFormula:
    """A base body is a model list only when `models` is followed by `{`, or
    is `models` alone and no atom has that name."""

    @pytest.mark.parametrize("body", ["models {a} {a,b}", "models{a} {a,b}", "models \t{a}{a,b}"])
    def test_brace_after_models_is_a_list(self, body):
        problem = parse_problem_file(f"atoms: a b\nbase K: {body}\n")
        assert problem.bases[0][1].models.compact() == "{a}|{a,b}"

    def test_bare_models_without_such_atom_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bare.txt"
        path.write_text("atoms: a b\nbase K: models\n")
        code, out, err = run(capsys, "merge", str(path))
        assert (code, out) == (2, "")
        assert err == "problem file error: line 2: expected model sets like {a,b}\n"

    @pytest.mark.parametrize("model", ["{,a}", "{a,,b}", "{,}", "{a,}"])
    def test_empty_atom_name_in_a_model_exits_two(self, capsys, tmp_path, model):
        path = tmp_path / "empty-name.txt"
        path.write_text(f"atoms: a b\nbase J: a\nbase K: models {{b}} {model}\n")
        code, out, err = run(capsys, "merge", str(path))
        assert (code, out) == (2, "")
        assert err == f"problem file error: line 3: empty atom name in {model}\n"

    @settings(max_examples=300, deadline=None)
    @given(models=st.lists(MODELS, min_size=1, max_size=4))
    def test_model_lists_decode_as_name_by_name(self, models):
        # Duplicates OR together; the first bad name in the text is named.
        universe = Universe(("a", "b", "x1"))
        text = " ".join("{" + model + "}" for model in models)
        want = outcome(lambda: [slow_model_mask(model, universe) for model in models])
        assert outcome(_parse_interpretations, text, universe, ValueError, "p", "sets") == want

    @pytest.mark.parametrize("empty", ["{}", "{ }", "{\t}"])
    def test_empty_braces_are_the_empty_interpretation(self, empty):
        problem = parse_problem_file(f"atoms: a b\nbase K: models {empty} {{a}}\n")
        assert problem.bases[0][1].models.compact() == "{}|{a}"

    @pytest.mark.parametrize("atoms, first, second", [
        ("modelsa b", "modelsa | b", "b | modelsa"),
        ("models b", "models | b", "b | models"),
        ("models b", "models", "models & T"),
    ])
    def test_atom_named_like_models_may_come_first(self, capsys, tmp_path, atoms, first, second):
        outputs = []
        for body in (first, second):
            path = tmp_path / "problem.txt"
            path.write_text(f"atoms: {atoms}\nbase K: {body}\nbase L: !b\n")
            outputs.append(run(capsys, "merge", str(path), "--format", "machine"))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and outputs[0][2] == ""


def parse_exit(parse, argv, capsys):
    # The exit code, stdout and stderr of an argument list that stops parsing.
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestArgvDispatch:
    """`main` hands a command's arguments to its parser alone.  Each list
    below stops in parsing, with the exit code, stdout and stderr of the
    top-level parser reading it all."""

    @pytest.mark.parametrize("argv, code, usage, last", [
        (["merge", "f.txt", "--bogus"], 2, "fragmerge [-h]", "fragmerge: error: unrecognized arguments: --bogus"),
        (["--help"], 0, "fragmerge [-h]", None),
        ([], 2, "fragmerge [-h]", "fragmerge: error: the following arguments are required: command"),
        (["mrege"], 2, "fragmerge [-h]", "fragmerge: error: argument command: invalid choice: 'mrege' "),
        (["merge", "--help"], 0, "fragmerge merge [-h]", None),
        (["merge", "f.txt", "--aggregator", "max"], 2, "fragmerge merge [-h]",
         "fragmerge merge: error: argument --aggregator: invalid choice: 'max' "),
        (["check", "--fragment", "horn"], 2, "fragmerge check [-h]",
         "fragmerge check: error: the following arguments are required: --op"),
    ], ids=["unrecognized", "help", "no-arguments", "unknown-command", "merge-help", "bad-choice",
            "missing-option"])
    def test_parse_errors_and_help(self, capsys, argv, code, usage, last):
        got = parse_exit(main, argv, capsys)
        assert got == parse_exit(build_parsers()[0].parse_args, argv, capsys)
        assert got[0] == code
        text = got[2] if code else got[1]
        assert text.startswith(f"usage: {usage} ")
        if last is None:
            assert got[2] == ""
        else:
            assert got[1] == "" and text.splitlines()[-1].startswith(last)


class TestMergeCommand:
    def test_closure_into_horn(self, capsys, example1):
        code, out, _ = run(
            capsys, "merge", example1, "--refinement", "closure", "--fragment", "horn"
        )
        assert code == 0
        assert "merged models: {a}, {b}" in out
        assert "refined models: {}, {a}, {b}" in out
        assert "fragment formula: !a | !b" in out

    @pytest.mark.parametrize("problem, argv, want", [
        (EXAMPLE1, ("--refinement", "closure", "--fragment", "horn"),
         "atoms: a b\nbase K1: {a}, {a,b}\nbase K2: {b}, {a,b}\nconstraint: {}, {a}, {b}\n"
         "merged models: {a}, {b}\nbases met by merge: 2\nrefined models: {}, {a}, {b}\n"
         "bases met by refinement: 2\nfragment formula: !a | !b\nformula class: both\n"),
        (EXAMPLE1, ("--fragment", "krom"),
         "atoms: a b\nbase K1: {a}, {a,b}\nbase K2: {b}, {a,b}\nconstraint: {}, {a}, {b}\n"
         "merged models: {a}, {b}\nbases met by merge: 2\n"
         "fragment formula: (!a | !b) & (a | b)\nformula class: krom\n"),
        ("atoms: a b c\nbase K1: models {a} {a,b}\nbase K2: b & c\nconstraint: a & !a\n",
         ("--fragment", "krom", "--refinement", "lex"),
         "atoms: a b c\nbase K1: {a}, {a,b}\nbase K2: {b,c}, {a,b,c}\nconstraint: none\n"
         "merged models: none\nbases met by merge: 0\nrefined models: none\n"
         "bases met by refinement: 0\nfragment formula: a & !a\nformula class: both\n"),
    ], ids=["horn-closure", "krom", "empty-constraint"])
    def test_text_output_is_pinned(self, capsys, tmp_path, problem, argv, want):
        path = tmp_path / "problem.txt"
        path.write_text(problem)
        assert run(capsys, "merge", str(path), *argv) == (0, want, "")

    def test_merge_builds_no_answer_tables(self, capsys, monkeypatch, example1):
        # One (profile, constraint) needs one merge, not a table of them.
        def refuse(*args):
            raise AssertionError("merge built an answer table")

        for op in (MergeOperator, RefinedOperator):
            monkeypatch.setattr(op, "answers", refuse)
        for aggregator in ("sigma", "gmax"):
            code, out, _ = run(capsys, "merge", example1, "--refinement", "lex-closure",
                               "--fragment", "horn", "--aggregator", aggregator)
            assert code == 0
            assert "refined models: {}, {a}, {b}" in out

    def test_unrefined_result_is_not_horn(self, capsys, example1):
        code, _, err = run(capsys, "merge", example1, "--fragment", "horn")
        assert code == 4
        assert "not expressible" in err

    def test_krom_needs_no_refinement_here(self, capsys, example1):
        code, out, _ = run(capsys, "merge", example1, "--fragment", "krom")
        assert code == 0
        assert "fragment formula: (!a | !b) & (a | b)" in out

    def test_lex_refinement_and_order_override(self, capsys, example1):
        code, out, _ = run(
            capsys, "merge", example1, "--refinement", "lex", "--fragment", "horn"
        )
        assert code == 0 and "refined models: {a}" in out
        code, out, _ = run(
            capsys, "merge", example1, "--refinement", "lex", "--fragment", "horn",
            "--lex-order", "{b} {a}",
        )
        assert code == 0 and "refined models: {b}" in out

    def test_trivial_base_echoes_constraint(self, capsys, tmp_path):
        path = tmp_path / "top.txt"
        path.write_text("atoms: a b\nbase K: T\nconstraint: !a | !b\n")
        code, out, _ = run(capsys, "merge", str(path))
        assert code == 0
        assert "merged models: {}, {a}, {b}" in out

    def test_gmax_and_table_distance(self, capsys, example1):
        code, out, _ = run(
            capsys, "merge", example1, "--aggregator", "gmax",
            "--distance", "table:1,3",
        )
        assert code == 0 and "merged models: {a}, {b}" in out

    def test_machine_format_is_stable(self, capsys, example1):
        first = run(capsys, "merge", example1, "--fragment", "krom", "--format", "machine")
        second = run(capsys, "merge", example1, "--fragment", "krom", "--format", "machine")
        assert first == second
        code, out, _ = first
        assert code == 0
        lines = dict(line.split("\t", 1) for line in out.strip().splitlines())
        assert lines["merged"] == "{a}|{b}"
        assert lines["formula"] == "(!a | !b) & (a | b)"

    def test_exit_codes_for_bad_input(self, capsys, tmp_path):
        bad_syntax = tmp_path / "bad.txt"
        bad_syntax.write_text("atoms: a\nbase K: a |\n")
        assert run(capsys, "merge", str(bad_syntax))[0] == 2

        inconsistent = tmp_path / "inconsistent.txt"
        inconsistent.write_text("atoms: a\nbase K: F\n")
        assert run(capsys, "merge", str(inconsistent))[0] == 3

        missing = tmp_path / "missing.txt"
        assert run(capsys, "merge", str(missing))[0] == 2

    def test_problem_file_that_is_not_utf8_exits_two(self, capsys, tmp_path):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes(b"atoms: a b\nbase K1: a\n# caf\xe9\n")
        code, out, err = run(capsys, "merge", str(latin1))
        assert code == 2 and out == ""
        assert err.startswith("cannot read problem file: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "atoms: a a\nbase K: a\n",
            "atoms: a\nbase K: models {z}\n",
            "atoms: " + " ".join("abcdefghijklmnopq") + "\nbase K: a\n",
            "atoms: A b\nbase K: b\n",
            "atoms: a\nbase K: " + "(" * 1200 + "a" + ")" * 1200 + "\n",
        ],
        ids=["duplicate-atom", "unknown-model-atom", "17-atoms", "upper-case-atom",
             "deep-parentheses"],
    )
    def test_bad_problem_file_exits_two(self, capsys, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, _, err = run(capsys, "merge", str(path))
        assert code == 2
        assert err.startswith("problem file error: line ")

    @pytest.mark.parametrize("text, message", [
        ("atoms:\nbase K: a\n", "line 1: empty atom list"),
        ("atoms: a\nbaseline K: a\n", "line 2: malformed base line"),
        ("# no atoms\n\n", "missing atoms declaration"),
    ], ids=["empty-atom-list", "malformed-base", "no-atoms"])
    def test_problem_file_errors_are_named(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert run(capsys, "merge", str(path)) == (2, "", f"problem file error: {message}\n")

    @pytest.mark.parametrize("distance, message", [
        ("bogus", "unknown distance 'bogus'"),
        ("table:1,x", "bad distance table in 'table:1,x'"),
    ], ids=["unknown", "not-an-int"])
    def test_bad_distance_exits_two(self, capsys, example1, distance, message):
        assert run(capsys, "merge", example1, "--distance", distance) == (2, "", f"bad arguments: {message}\n")

    def test_failed_synthesis_exits_four(self, capsys, monkeypatch, example1):
        def refuse(mset, fragment):
            raise NoSyntacticFragmentError(f"fragment {fragment.name!r} cannot express the given model set")

        monkeypatch.setattr(cli, "synthesize", refuse)
        assert run(capsys, "merge", example1, "--fragment", "krom") == (
            4, "", "synthesis failed: fragment 'krom' cannot express the given model set\n")

    @pytest.mark.parametrize("n", [17, 25])
    def test_atoms_over_the_enumeration_cap(self, capsys, tmp_path, n):
        path = tmp_path / "wide.txt"
        path.write_text(f"atoms: {' '.join(f'x{i}' for i in range(n))}\nbase K: x0\n")
        code, out, err = run(capsys, "merge", str(path))
        assert (code, out) == (2, "")
        assert err == f"problem file error: line 1: universe has {n} atoms, enumeration cap is 16\n"

    def test_long_negation_and_implication_chains(self, capsys, tmp_path):
        path = tmp_path / "chains.txt"
        path.write_text(
            "atoms: a b\n"
            "base K: " + "!" * 1200 + "a\n"
            "constraint: " + " -> ".join(["!a"] * 1199 + ["b"]) + "\n"
        )
        code, out, _ = run(capsys, "merge", str(path), "--format", "machine")
        assert code == 0
        records = dict(line.split("\t", 1) for line in out.splitlines())
        assert records["base"] == "K\t{a}|{a,b}"
        assert records["constraint"] == "{a}|{b}|{a,b}"
        assert records["merged"] == "{a}|{a,b}"

    def test_unknown_atom_in_lex_order(self, capsys, example1):
        code, _, err = run(
            capsys, "merge", example1, "--refinement", "lex", "--fragment", "horn",
            "--lex-order", "{z}",
        )
        assert code == 2 and err.startswith("bad arguments: bad --lex-order")

    def test_duplicate_entry_in_lex_order(self, capsys, example1):
        assert run(capsys, "merge", example1, "--refinement", "lex", "--fragment", "horn",
                   "--lex-order", "{a} {b} {a}") == (
            2, "", "bad arguments: bad --lex-order: duplicate entry {a} in order\n")

    def test_eight_atom_horn_closure(self, capsys, tmp_path):
        path = tmp_path / "horn8.txt"
        path.write_text(HORN8)
        code, out, _ = run(
            capsys, "merge", str(path), "--fragment", "horn", "--refinement", "closure",
            "--format", "machine",
        )
        assert code == 0
        records = dict(line.split("\t", 1) for line in out.splitlines())
        u = Universe(records["universe"].split())
        assert records["refined"] == "{b,e,h}|{a,b,e,h}"
        assert models(parse(records["formula"], u), u).compact() == records["refined"]
        assert records["formula-class"] == "horn"

    def test_refinement_without_fragment_is_rejected(self, capsys, example1):
        code, _, err = run(capsys, "merge", example1, "--refinement", "closure")
        assert code == 2 and "fragment" in err

    def test_short_distance_table_is_rejected(self, capsys, example1):
        code, _, err = run(capsys, "merge", example1, "--distance", "table:1")
        assert code == 2

    @pytest.mark.parametrize("table,entry", [("table:1,,2", 2), ("table:,1,2", 1), ("table:1,2,", 3)])
    def test_an_empty_distance_table_entry_is_named(self, capsys, example1, table, entry):
        empty = f"bad arguments: entry {entry} of distance table {table!r} is empty\n"
        assert run(capsys, "merge", example1, "--distance", table) == (2, "", empty)
        assert run(capsys, "check", "--op", f"{table},sigma,none", "--atoms", "2") == (2, "", empty)
        code, out, _ = run(capsys, "merge", example1, "--distance", "table: 1 , 2", "--format", "machine")
        assert code == 0 and out == run(capsys, "merge", example1, "--distance", "table:1,2",
                                        "--format", "machine")[1]


DATA = Path(__file__).parent / "data"
# (file, fragment, refinement, distance) -> sha256 of the machine output of
# that merge; the CI workflow checks the same pins.
PINS = {tuple(row[:4]): row[4]
        for row in map(str.split, (DATA / "merge_sha256.txt").read_text().splitlines())
        if row[0] != "#"}


class TestKromMergeAboveTenAtoms:
    """12- and 16-atom Krom merges, each refined set closed under majority
    and pinned exactly by the printed formula.  The machine output is pinned
    by its sha256 too (`PINS`), so the formula stays byte for byte the
    same."""

    SHA256 = {(name, refinement, distance): sha256
              for (name, fragment, refinement, distance), sha256 in PINS.items()
              if fragment == "krom"}

    @pytest.mark.parametrize("name, refinement, distance", sorted(SHA256))
    def test_machine_output_is_pinned(self, capsys, name, refinement, distance):
        code, out, _ = run(
            capsys, "merge", str(DATA / name), "--fragment", "krom", "--refinement", refinement,
            "--distance", distance, "--format", "machine",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.SHA256[name, refinement, distance]

    @pytest.mark.parametrize("name", ["krom12.txt", "krom16.txt"])
    @pytest.mark.parametrize("refinement", ["closure", "lex-closure"])
    @pytest.mark.parametrize("distance", ["hamming", "drastic"])
    def test_refined_set_is_closed_and_expressed(self, capsys, name, refinement, distance):
        code, out, _ = run(
            capsys, "merge", str(DATA / name), "--fragment", "krom", "--refinement", refinement,
            "--distance", distance, "--format", "machine",
        )
        assert code == 0
        records = dict(line.split("\t", 1) for line in out.splitlines())
        u = Universe(records["universe"].split())
        phi = parse(records["formula"], u)
        refined = models(phi, u)
        assert refined.compact() == records["refined"]
        # The formula is a 2-CNF, and a 2-CNF's model set is closed under majority.
        clauses = [clause.strip("()").split(" | ") for clause in records["formula"].split(" & ")]
        assert all(len(clause) <= 2 and all(lit.lstrip("!") in u for lit in clause) for clause in clauses)
        assert records["formula-class"] in ("krom", "both")
        assert is_closed(MAJ3, refined)


class TestHornMergeAboveTenAtoms:
    """12- and 16-atom Horn merges.  The 12-atom refined set has 4,094
    non-models, and `synthesize` reads the last Horn clause that each one
    falsifies off the AND of the models that contain it.  The machine
    output is pinned by its sha256 (`PINS`), so the printed formula stays
    byte for byte the one the greedy pass over every Horn clause that holds
    gives.  CI also runs the 16-atom file under a memory limit."""

    @pytest.mark.parametrize("refinement", ["closure", "lex", "lex-closure"])
    def test_refined_set_is_expressed_by_a_horn_formula(self, capsys, refinement):
        self.check(capsys, "krom12.txt", refinement)

    @pytest.mark.parametrize("refinement", ["closure", "lex", "lex-closure"])
    def test_sixteen_atom_refined_set_keeps_its_formula(self, capsys, refinement):
        self.check(capsys, "krom16.txt", refinement)

    @staticmethod
    def check(capsys, problem, refinement):
        code, out, _ = run(
            capsys, "merge", str(DATA / problem), "--fragment", "horn",
            "--refinement", refinement, "--distance", "hamming", "--format", "machine",
        )
        assert code == 0
        sha256 = PINS[problem, "horn", refinement, "hamming"]
        assert hashlib.sha256(out.encode()).hexdigest() == sha256
        records = dict(line.split("\t", 1) for line in out.splitlines())
        u = Universe(records["universe"].split())
        assert records["formula-class"] == "horn"
        assert models(parse(records["formula"], u), u).compact() == records["refined"]


PERFBENCH = Path(__file__).parent.parent / "perfbench"
MERGE_OPTIONS = [
    (fragment, refinement, aggregator, distance)
    for fragment in ("horn", "krom", "none")
    for refinement in (("none", "closure", "lex", "lex-closure") if fragment != "none" else ("none",))
    for aggregator in ("sigma", "gmax")
    for distance in ("hamming", "drastic")
]


class TestMergeAgainstBenchmarkOracle:
    """`merge --format machine` on seeded benchmark problem files, against
    the benchmark's independent reference (perfbench/oracle.py), which
    parses formulas and model lists with its own code."""

    @pytest.fixture(scope="class")
    def bench(self):
        sys.path.insert(0, str(PERFBENCH))
        try:
            import gen
            import oracle
        finally:
            sys.path.remove(str(PERFBENCH))
        return gen, oracle

    @pytest.mark.parametrize(
        "family,atoms",
        [("formula", 3), ("formula", 5), ("formula", 6), ("formula", 8), ("tie", 4), ("tie", 6),
         ("wide", 10), ("wide", 13)],
    )
    def test_exit_code_and_stdout(self, capsys, tmp_path, bench, family, atoms):
        gen, oracle = bench
        # Horn synthesis at ten atoms would take most of the time.  At 13
        # atoms only the merge-wide workload's unrefined merges run: the
        # oracle's Krom closure takes seconds there.
        fragments = {"horn", "krom", "none"}
        if family == "wide":
            fragments = {"none"} if atoms == 13 else {"krom", "none"}
        options = [o for o in MERGE_OPTIONS if o[0] in fragments]
        for k, (fragment, refinement, aggregator, distance) in enumerate(options):
            text = gen.MAKERS[family](gen.job_rng(7, f"{family}{atoms}", k), atoms)
            path = tmp_path / f"{family}{k}.txt"
            path.write_text(text)
            got = run(capsys, "merge", str(path), "--fragment", fragment,
                      "--refinement", refinement, "--aggregator", aggregator,
                      "--distance", distance, "--format", "machine")[:2]
            assert got == oracle.expected_merge(text, distance, aggregator, refinement, fragment)


class TestCheckCommand:
    def test_clean_space_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "check", "--op", "hamming,sigma,closure", "--fragment", "horn",
            "--postulates", "ic0-ic3", "--atoms", "2",
        )
        assert code == 0
        assert "0 witness(es) found" in out

    def test_violation_exits_one_and_prints_witness(self, capsys):
        code, out, _ = run(
            capsys, "check", "--op", "hamming,gmax,closure", "--fragment", "horn",
            "--postulates", "ic4", "--atoms", "2",
        )
        assert code == 1
        assert "ic4 violated" in out
        assert "profiles=[{}; {a,b}]" in out

    def test_unknown_postulate_exits_two(self, capsys):
        code, _, err = run(
            capsys, "check", "--op", "hamming,sigma,none", "--postulates", "ic9",
            "--atoms", "2",
        )
        assert code == 2 and "unknown postulate" in err

    @pytest.mark.parametrize("extra, message", [
        (("--op", "hamming,sigma,bogus", "--fragment", "horn"), "unknown refinement 'bogus'"),
        (("--op", "hamming,sigma,none", "--postulates", "ic5-ic3"), "empty postulate range 'ic5-ic3'"),
    ], ids=["unknown-refinement", "empty-range"])
    def test_bad_check_arguments_are_named(self, capsys, extra, message):
        assert run(capsys, "check", "--atoms", "2", *extra) == (2, "", f"bad arguments: {message}\n")

    def test_bad_op_spec(self, capsys):
        code, _, err = run(capsys, "check", "--op", "hamming,sigma", "--atoms", "2")
        assert code == 2

    def test_short_op_names_its_three_fields(self, capsys):
        code, out, err = run(capsys, "check", "--op", "hamming,sigma", "--atoms", "2")
        assert (code, out) == (2, "")
        assert err == "bad arguments: --op needs distance,aggregator,refinement\n"

    @pytest.mark.parametrize("atoms", ["1", "2"])
    def test_table_gauge_fields_hold_commas(self, capsys, atoms):
        found = []
        for dist in ("table:1,2", "hamming"):
            code, out, err = run(
                capsys, "check", "--op", f"{dist},gmax,closure", "--fragment", "horn",
                "--postulates", "ic4", "--atoms", atoms, "--format", "machine",
            )
            assert err == ""
            found.append((code, out.splitlines()[-1]))
        assert found[0] == found[1]

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--atoms", "0"], "the universe needs at least 1 atom, got 0"),
            (["--atoms", "5"], "exhaustive mode caps the universe at 4 atoms, got 5"),
            (["--atoms", "1000000000"], "exhaustive mode caps the universe at 4 atoms, got 1000000000"),
            (["--max-profile-size", "0"], "profile size cap must be at least 1"),
            (["--max-bases", "-1"], "base cap must be at least 0, got -1"),
        ],
        ids=["atoms-0", "atoms-5", "atoms-1000000000", "profile-size-0", "max-bases--1"],
    )
    def test_space_caps(self, capsys, monkeypatch, extra, message):
        # Refused before the distance is built: its gauge has atoms + 1 entries.
        monkeypatch.setattr(CountingDistance, "hamming", classmethod(lambda cls, n: pytest.fail("built")))
        code, out, err = run(capsys, "check", "--op", "hamming,sigma,none", *extra)
        assert (code, out, err) == (2, "", f"bad arguments: {message}\n")

    def test_space_over_the_instance_budget_exits_two(self, capsys):
        code, out, err = run(
            capsys, "check", "--op", "hamming,sigma,lex", "--fragment", "krom",
            "--postulates", "ic5", "--atoms", "3",
        )
        assert code == 2 and out == ""
        assert err.startswith("bad arguments: ") and "over the budget" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("size, magnitude", [("1000000000", 246), ("1" + "0" * 400, 11976)])
    def test_huge_space_is_refused_in_one_short_line(self, capsys, size, magnitude):
        # The instance counts have 247 and 11,977 digits.  The longer one is
        # past the 4,300-digit limit newer Pythons set on int-to-str.
        code, out, err = run(capsys, "check", "--max-profile-size", size, "--op", "hamming,sigma,none")
        assert (code, out) == (2, "")
        assert err == (f"bad arguments: the selected postulates have about 10^{magnitude} instances "
                       "in this space, over the budget of 1,000,000\n")
        assert len(err) < 120

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--limit", "0"], "--limit must be at least 1"),
            (["--postulates", "ic3", "--max-profile-size", "1"], "no instances"),
            (["--max-bases", "0"], "no instances"),
            (["--max-bases", "-1"], "base cap must be at least 0"),
            (["--atoms", "-3"], "needs at least 1 atom"),
        ],
        ids=["limit-0", "ic3-single-base-profiles", "no-bases", "negative-base-cap",
             "negative-atoms"],
    )
    def test_rejected_search_exits_two(self, capsys, extra, message):
        code, out, err = run(capsys, "check", "--op", "hamming,sigma,none", "--atoms", "2", *extra)
        assert code == 2 and out == ""
        assert err.startswith("bad arguments: ") and message in err

    def test_machine_format(self, capsys):
        code, out, _ = run(
            capsys, "check", "--op", "drastic,sigma,lex", "--fragment", "horn",
            "--postulates", "ic4", "--atoms", "2", "--limit", "1",
            "--format", "machine",
        )
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[0].startswith("witness\tic4\t")
        assert lines[-1] == "witnesses\t1"


def run_with_stdout_closed(argv, after):
    """Exit code and stderr of the command line, with Python's default
    buffering, when the reader of its stdout closes it after `after` bytes
    (0: before the command starts)."""
    env = {**os.environ, "PYTHONPATH": str(Path(fragmerge.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    if not after:
        os.close(read)
    with subprocess.Popen([sys.executable, "-m", "fragmerge.cli", *argv], env=env,
                          stdout=write, stderr=subprocess.PIPE) as proc:
        os.close(write)
        if after:
            with open(read, "rb") as out:
                assert len(out.read(after)) == after
        _, err = proc.communicate(timeout=120)
        return proc.returncode, err


@pytest.mark.parametrize("argv, after", [
    # 574 KB and 6,669 witnesses: more than a pipe holds, so the command is
    # still writing when its reader goes.
    (("merge", str(DATA / "krom16.txt"), "--fragment", "krom", "--refinement", "closure",
      "--distance", "drastic", "--format", "machine"), 20),
    (("check", "--op", "hamming,sigma,closure", "--fragment", "horn", "--atoms", "3",
      "--max-profile-size", "1", "--postulates", "ic5"), 20),
    # A short output is still in its buffer when the command returns.
    (("reproduce", "--list"), 0),
    # argparse prints the help, then exits before the command runs.
    *[((*command, "--help"), 0) for command in ((), ("merge",), ("check",), ("reproduce",))],
], ids=["merge", "check", "short", "help", "merge-help", "check-help", "reproduce-help"])
def test_a_closed_stdout_exits_141_quietly(argv, after):
    assert run_with_stdout_closed(argv, after) == (141, b"")


class TestReproduceCommand:
    def test_ex1_matches(self, capsys):
        code, out, _ = run(capsys, "reproduce", "ex1")
        assert code == 0
        assert "all cells match" in out

    def test_machine_output_stable(self, capsys):
        first = run(capsys, "reproduce", "prop4-horn", "--format", "machine")
        second = run(capsys, "reproduce", "prop4-horn", "--format", "machine")
        assert first == second
        code, out, _ = first
        assert code == 0
        assert all(line.endswith("\tpass") for line in out.strip().splitlines())

    def test_unknown_fixture_exits_two(self, capsys):
        code, _, err = run(capsys, "reproduce", "nosuch")
        assert code == 2 and "unknown fixture" in err

    def test_list(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--list")
        assert code == 0
        assert "prop11-ic6" in out.split()

    def test_missing_fixture_argument(self, capsys):
        code, _, err = run(capsys, "reproduce")
        assert code == 2


# Problem-file fuzzing: atom names that start like the `models` keyword,
# braces, connectives and two whitespace characters that formulas reject.
FUZZ_ATOMS = ("a", "b", "models", "modelsa")
# Junk tokens hold no parenthesis, `|`, `->` or `<->`, so an operand built
# from them and from parenthesized formulas has no top-level disjunction.
FUZZ_JUNK = FUZZ_ATOMS + ("Z", "models{", "{", "}", ",", "&", "!", "T", "F", "\x0c", "\xa0", " ")
# Each flag is left out, given a good value or, more rarely, a bad one.
FUZZ_FLAGS = (
    ("--distance", ("hamming", "drastic", "table:1,2,3,4"), ("table:x",)),
    ("--aggregator", ("sigma", "gmax"), ("max",)),
    ("--refinement", ("closure", "lex", "lex-closure", "none"), ()),
    ("--fragment", ("horn", "krom", "none"), ()),
    ("--format", ("text", "machine"), ()),
)


def fuzz_formulas(names):
    return st.recursive(
        st.sampled_from(names + ("T", "F")),
        lambda inner: st.one_of(
            inner.map(lambda f: "!" + f),
            st.tuples(inner, inner).map(" & ".join),
            st.tuples(inner, st.sampled_from((" | ", " -> ", " <-> ")), inner).map(
                lambda t: f"({''.join(t)})"),
        ),
        max_leaves=4,
    )


@st.composite
def fuzz_operands(draw, names):
    """Body text with no top-level `|`, `->` or `<->` and no outer
    whitespace (a line is stripped, so outer whitespace would be dropped in
    one order of the operands but not the other): mostly a formula over
    `names`, else junk tokens alone or spliced between two formulas."""
    formulas = fuzz_formulas(names)
    kind = draw(st.integers(0, 7))
    if kind < 6:
        return draw(formulas)
    junk = "".join(draw(st.lists(st.sampled_from(FUZZ_JUNK), min_size=1, max_size=4)))
    if kind == 6:
        junk = f"{draw(formulas)} {junk} {draw(formulas)}"
    return junk.strip()


@st.composite
def fuzz_runs(draw):
    atoms = tuple(draw(st.lists(st.sampled_from(FUZZ_ATOMS), min_size=1, max_size=3, unique=True)))
    formulas = fuzz_formulas(atoms)
    tail = [f"base L{i}: {body}" for i, body in enumerate(draw(st.lists(formulas, max_size=2)))]
    tail += [f"constraint: {body}" for body in draw(st.lists(formulas, max_size=1))]
    # A lex order of declared atoms, or one that lists an interpretation twice.
    lex_order = ("--lex-order", (f"{{{atoms[-1]}}} {{}}", f"{{}} {{{','.join(atoms)}}}"),
                 (f"{{{atoms[0]}}} {{{atoms[0]}}}",))
    argv = draw_flags(draw, FUZZ_FLAGS + (lex_order,))
    operands = fuzz_operands(atoms)
    return " ".join(atoms), draw(operands), draw(operands), tail, argv


def draw_flags(draw, flags, bad_values=True):
    """Each flag left out, given a good value or, more rarely, a bad one; a
    flag of None is a positional argument."""
    argv = []
    for flag, good, bad in flags:
        value = draw(st.sampled_from((None,) * len(good) + good * 3 + (bad if bad_values else ())))
        if value is not None:
            argv += [value] if flag is None else [flag, value]
    return argv


def main_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(run_spec=fuzz_runs())
def test_fuzzed_merge_exits_cleanly_and_disjunction_order_does_not_matter(fuzz_dir, run_spec):
    atoms, left, right, tail, argv = run_spec
    results = []
    for first, second in ((left, right), (right, left)):
        path = fuzz_dir / "problem.txt"
        path.write_text("\n".join([f"atoms: {atoms}", f"base K: {first} | {second}", *tail]) + "\n",
                        encoding="utf-8")
        results.append(main_in_process(["merge", str(path), *argv]))
    assert results[0][0] in (0, 2, 3, 4)
    assert results[0] == results[1]


# `check` and `reproduce` argv fuzzing.  `--max-bases` is always given, so a
# 3-atom space stays small; the huge `--atoms` value exits cleanly only when
# the atom cap is checked before the atoms + 1 entry distance gauge is built.
FUZZ_GOOD_OPS = ("hamming,gmax,closure", "drastic,sigma,lex", "table:1,2,3,sigma,lex-closure",
                 "hamming,gmax,none", "drastic,sigma,none")
FUZZ_BAD_OPS = ("hamming,sigma", "manhattan,sigma,none", "hamming,max,none", "table:x,gmax,none",
                "table:1,sigma,none")
FUZZ_CHECK_FLAGS = (
    # Horn and Krom twice: every refinement but none needs a fragment.
    ("--fragment", ("horn", "krom", "horn", "krom", "none"), ("affine",)),
    ("--postulates", ("ic0", "ic3", "ic4", "ic5,ic7", "ic6-ic8", "all"), ("ic9", "ic3-ic1", "")),
    ("--atoms", ("1", "2", "3"), ("0", "-2", "1000000000", "two")),
    ("--max-profile-size", ("1", "2"), ("0",)),
    ("--limit", ("1", "3"), ("0",)),
    ("--format", ("text", "machine"), ("json",)),
)
# prop6-fairness is left out: at ~0.4 s it would take most of the budget.
FUZZ_REPRODUCE_FLAGS = (
    (None, tuple(f for f in fixture_ids() if f != "prop6-fairness"), ("nosuch", "EX1", "")),
    ("--format", ("text", "machine"), ("json",)),
)


@st.composite
def fuzz_check_and_reproduce_argv(draw):
    # Half the command lines hold no bad value, so that many searches run.
    clean = draw(st.booleans())
    if draw(st.booleans()):
        ops = FUZZ_GOOD_OPS if clean else FUZZ_GOOD_OPS + FUZZ_BAD_OPS
        argv = ["check", "--op", draw(st.sampled_from(ops)), *draw_flags(draw, FUZZ_CHECK_FLAGS, not clean),
                "--max-bases", draw(st.sampled_from(("3", "8") if clean else ("-1", "0", "3", "8")))]
    else:
        argv = ["reproduce", *draw_flags(draw, FUZZ_REPRODUCE_FLAGS, not clean),
                *draw(st.sampled_from(([], ["--list"])))]
    return argv + draw(st.sampled_from(([],) if clean else ([], ["--nope"], ["extra"])))


@settings(max_examples=150, deadline=None)
@given(argv=fuzz_check_and_reproduce_argv())
def test_fuzzed_check_and_reproduce_exit_cleanly(argv):
    code, out = main_in_process(argv)
    assert code in (0, 1, 2)
    assert code != 2 or out == ""
