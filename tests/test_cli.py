from pathlib import Path

import pytest

from fragmerge import MAJ3, MergeOperator, RefinedOperator, Universe, classify, is_closed, models, parse
from fragmerge.cli import main, parse_problem_file
from fragmerge.merge import InconsistentBaseError

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


class TestMergeCommand:
    def test_closure_into_horn(self, capsys, example1):
        code, out, _ = run(
            capsys, "merge", example1, "--refinement", "closure", "--fragment", "horn"
        )
        assert code == 0
        assert "merged models: {a}, {b}" in out
        assert "refined models: {}, {a}, {b}" in out
        assert "fragment formula: !a | !b" in out

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


DATA = Path(__file__).parent / "data"


class TestKromMergeAboveTenAtoms:
    """12- and 16-atom Krom merges, each refined set closed under majority
    and pinned exactly by the printed formula."""

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
        # A 2-CNF's model set is closed under majority.
        assert classify(phi).krom and records["formula-class"] in ("krom", "both")
        assert is_closed(MAJ3, refined)


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

    def test_bad_op_spec(self, capsys):
        code, _, err = run(capsys, "check", "--op", "hamming,sigma", "--atoms", "2")
        assert code == 2

    def test_too_many_atoms(self, capsys):
        code, _, err = run(
            capsys, "check", "--op", "hamming,sigma,none", "--atoms", "5"
        )
        assert code == 2

    def test_space_over_the_instance_budget_exits_two(self, capsys):
        code, out, err = run(
            capsys, "check", "--op", "hamming,sigma,lex", "--fragment", "krom",
            "--postulates", "ic5", "--atoms", "3",
        )
        assert code == 2 and out == ""
        assert err.startswith("bad arguments: ") and "over the budget" in err
        assert len(err.strip().splitlines()) == 1

    def test_zero_atoms(self, capsys):
        code, _, err = run(capsys, "check", "--op", "hamming,sigma,none", "--atoms", "0")
        assert code == 2 and err.startswith("bad arguments: ")

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
