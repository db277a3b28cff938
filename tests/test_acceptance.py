"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line with its runtime.  Expected values are exact; the generous
time bounds catch algorithmic regressions, not machine noise.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

from fragmerge import (
    HORN,
    KROM,
    Aggregator,
    ClosureRefinement,
    CountingDistance,
    LexClosureRefinement,
    LexRefinement,
    MergeOperator,
    PostulateId,
    RefinedOperator,
    SearchSpace,
    check_refinement_properties,
    closed_model_sets,
    is_fair,
    reproduce,
    search,
    synthesize,
    truth_table,
)
from helpers import U3, EchoConstraintOperator


class Criterion:
    def __init__(self, name, budget_seconds):
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {status} [{elapsed:6.2f}s <= {self.budget:g}s] {self.name}")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.name}: {elapsed:.2f}s over budget"
        return False


def hamming_ops(n):
    d = CountingDistance.hamming(n)
    return MergeOperator(d, Aggregator.SIGMA), MergeOperator(d, Aggregator.GMAX)


def refinements(beta):
    return (ClosureRefinement(beta), LexRefinement(beta), LexClosureRefinement(beta))


def test_criterion_1_two_base_table_and_merge():
    with Criterion("1: two-base distance table and both merges", 1.0):
        report = reproduce("ex1")
        cells = {r.label: (r.expected, r.actual) for r in report.rows}
        assert cells["row {} sigma"] == ("2", "2")
        assert cells["row {a} sigma"] == ("1", "1")
        assert cells["row {b} sigma"] == ("1", "1")
        assert cells["row {} gmax"] == ("(1,1)", "(1,1)")
        assert cells["row {a} gmax"] == ("(1,0)", "(1,0)")
        assert cells["row {b} gmax"] == ("(1,0)", "(1,0)")
        assert cells["merge sigma"] == ("{a}, {b}", "{a}, {b}")
        assert cells["merge gmax"] == ("{a}, {b}", "{a}, {b}")
        assert report.ok


def test_criterion_2_refinement_example():
    with Criterion("2: lex / closure / lex-closure refinements", 1.0):
        report = reproduce("ex3")
        cells = {r.label: (r.expected, r.actual) for r in report.rows}
        assert cells["lex refinement"] == ("{a}", "{a}")
        assert cells["closure refinement"] == ("{}, {a}, {b}", "{}, {a}, {b}")
        assert cells["lex-closure refinement"] == ("{}, {a}, {b}", "{}, {a}, {b}")
        assert cells["bases met by merge"] == ("2", "2")
        assert report.ok


def test_criterion_3_proof_table_fixtures():
    fixtures = (
        "prop3-horn",
        "prop3-krom",
        "prop4-horn",
        "prop4-krom",
        "prop8-ic5",
        "prop8-ic7-horn",
        "prop8-ic7-krom",
        "prop10-nonfair",
        "prop11-ic6",
    )
    with Criterion("3: all proof-table fixtures cell-exact", 5.0):
        for fixture_id in fixtures:
            report = reproduce(fixture_id)
            assert report.ok, (fixture_id, [r for r in report.rows if not r.ok])


def test_criterion_4_basic_postulates_for_all_six_operators():
    with Criterion("4: ic0-ic3 clean for six hamming operators per fragment", 60.0):
        basics = (PostulateId.IC0, PostulateId.IC1, PostulateId.IC2, PostulateId.IC3)
        for fragment in (HORN, KROM):
            space = SearchSpace(atoms=2, fragment=fragment, postulates=basics)
            for base in hamming_ops(2):
                for kind in refinements(fragment.beta):
                    op = RefinedOperator(base, kind)
                    witnesses = search(space, op)
                    assert witnesses == [], (op.label, witnesses[0].render())


def test_criterion_5_ic4_for_closure_of_hamming_sigma():
    with Criterion("5: ic4 clean for closure of sum/hamming merges", 60.0):
        for fragment in (HORN, KROM):
            sig, _ = hamming_ops(2)
            op = RefinedOperator(sig, ClosureRefinement(fragment.beta))
            space = SearchSpace(atoms=2, fragment=fragment, postulates=(PostulateId.IC4,))
            witnesses = search(space, op)
            assert witnesses == [], (fragment.name, witnesses[0].render())


def test_criterion_6_fairness():
    with Criterion("6: fairness of drastic-closure and lex-closure; hamming closure unfair", 60.0):
        for fragment in (HORN, KROM):
            beta = fragment.beta
            space = SearchSpace(atoms=2, fragment=fragment)
            instances = list(space.instances())
            for agg in (Aggregator.SIGMA, Aggregator.GMAX):
                drastic = MergeOperator(CountingDistance.drastic(2), agg)
                report = is_fair(drastic, RefinedOperator(drastic, ClosureRefinement(beta)), instances)
                assert report.ok, report.render()
                for dist in (CountingDistance.hamming(2), CountingDistance.drastic(2)):
                    base = MergeOperator(dist, agg)
                    report = is_fair(base, RefinedOperator(base, LexClosureRefinement(beta)), instances)
                    assert report.ok, report.render()
        # and the seven-atom counterexample certifies non-fairness
        report = reproduce("prop10-nonfair")
        assert report.ok
        cells = {r.label: r.actual for r in report.rows}
        assert cells["bases met by merge"] == "0"
        assert cells["bases met by closure(and)"] == "1"


def test_criterion_7_ic5_ic7_for_lex_refinements():
    with Criterion("7: ic5/ic7 clean for lex of both hamming merges", 120.0):
        target = (PostulateId.IC5, PostulateId.IC7)
        for fragment in (HORN, KROM):
            space = SearchSpace(atoms=2, fragment=fragment, postulates=target)
            for base in hamming_ops(2):
                op = RefinedOperator(base, LexRefinement(fragment.beta))
                witnesses = search(space, op)
                assert witnesses == [], (op.label, witnesses[0].render())


def test_criterion_8_refinement_properties():
    with Criterion("8: refinement properties hold; broken refinement caught", 60.0):
        for fragment in (HORN, KROM):
            beta = fragment.beta
            instances = list(SearchSpace(atoms=2, fragment=fragment).instances())
            for base in hamming_ops(2):
                for kind in refinements(beta):
                    refined = RefinedOperator(base, kind)
                    report = check_refinement_properties(base, refined, beta, instances)
                    assert report.ok, f"{refined.label}:\n{report.render()}"
            sig, _ = hamming_ops(2)
            broken = check_refinement_properties(sig, EchoConstraintOperator(), beta, instances)
            assert "containment" in broken.violations


def test_criterion_9_synthesis_round_trip():
    with Criterion("9: synthesis round-trip over all closed three-atom sets", 30.0):
        u = U3
        for fragment in (HORN, KROM):
            sets = closed_model_sets(fragment.beta, u)
            assert len(sets) > 100  # the space is genuinely exhaustive
            for mset in sets:
                assert truth_table(str(synthesize(mset, fragment)), u) == mset.bits
