import collections
import contextlib
import functools
import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fragmerge.merge as merge_module
import fragmerge.postulates as postulates
from fragmerge.merge import Memo, answer_table
from fragmerge import (
    AND2,
    HORN,
    KROM,
    MAJ3,
    Aggregator,
    Base,
    BetaMapping,
    ClosureRefinement,
    CountingDistance,
    EmptySpaceError,
    Instance,
    LexClosureRefinement,
    LexRefinement,
    MergeOperator,
    ModelSet,
    Profile,
    PostulateId,
    RefinedOperator,
    SearchSpace,
    ShapeMismatchError,
    SpaceTooLargeError,
    Universe,
    UniverseMismatchError,
    UnknownFixtureError,
    cli,
    check_postulate,
    closure,
    fixture_ids,
    is_closed,
    reproduce,
    search,
)
from fragmerge.postulates import ALL_POSTULATES, FIXTURES, MAX_INSTANCES, ROWS
from helpers import (
    U2,
    U3,
    EchoConstraintOperator,
    PresentationCache,
    all_model_sets,
    ms,
    prof,
    recheck,
    slow_check_postulate,
    slow_instances,
    slow_search,
)

SIG2 = MergeOperator(CountingDistance.hamming(2), Aggregator.SIGMA)
GMAX2 = MergeOperator(CountingDistance.hamming(2), Aggregator.GMAX)
CLO_SIG = RefinedOperator(SIG2, ClosureRefinement(AND2))
CLO_GMAX = RefinedOperator(GMAX2, ClosureRefinement(AND2))


def simple(e, mu):
    return Instance((e,), (mu,))


class TestCheckPostulate:
    def test_an_unknown_postulate_is_refused(self):
        e, mu = prof(U2, ("a",)), ms(U2, "a")
        with pytest.raises(ShapeMismatchError, match="^unknown postulate 'ic9'$"):
            check_postulate("ic9", SIG2, simple(e, mu))

    def test_ic0_ic1_ic2_pass_for_merge(self):
        e, mu = prof(U2, ("a", "ab"), ("b", "ab")), ms(U2, "", "a", "b")
        for pid in (PostulateId.IC0, PostulateId.IC1, PostulateId.IC2):
            assert check_postulate(pid, SIG2, simple(e, mu)) is None

    def test_ic2_pass_for_refined_on_agreeing_profile(self):
        e = prof(U2, ("a", "ab"), ("ab",))
        mu = ModelSet.full(U2)
        assert check_postulate(PostulateId.IC2, CLO_SIG, simple(e, mu)) is None

    def test_ic2_witness_for_echo(self):
        # echo returns all of mu although profile and constraint agree on less
        e = prof(U2, ("ab",))
        mu = ModelSet.full(U2)
        hit = check_postulate(PostulateId.IC2, EchoConstraintOperator(), simple(e, mu))
        assert hit is not None
        assert hit.postulate is PostulateId.IC2
        assert dict(hit.details)["profile-and-constraint"] == "{a,b}"

    def test_ic3_pass_on_permuted_presentation(self):
        e1 = prof(U2, ("a",), ("b", "ab"))
        e2 = prof(U2, ("b", "ab"), ("a",))
        mu = ms(U2, "", "a", "b")
        instance = Instance((e1, e2), (mu, mu))
        assert check_postulate(PostulateId.IC3, SIG2, instance) is None

    def test_ic3_shape_mismatch_on_inequivalent_profiles(self):
        instance = Instance((prof(U2, ("a",)), prof(U2, ("b",))), (ms(U2, "a"), ms(U2, "a")))
        with pytest.raises(ShapeMismatchError):
            check_postulate(PostulateId.IC3, SIG2, instance)

    @pytest.mark.parametrize("pid", [PostulateId.IC0, PostulateId.IC5, PostulateId.IC7])
    def test_an_instance_over_two_universes_is_refused(self, pid):
        # Answer tables read bitsets, which carry no universe: it is checked once, here.
        e, mu = prof(U2, ("a",)), ms(U2, "a")
        other = {PostulateId.IC0: ((e,), (ms(U3, "a"),)), PostulateId.IC5: ((e, prof(U3, ("a",))), (mu,)),
                 PostulateId.IC7: ((e,), (mu, ms(U3, "a")))}[pid]
        with pytest.raises(UniverseMismatchError):
            check_postulate(pid, SIG2, Instance(*other))

    def test_ic4_witness_for_closure_of_gmax(self):
        e = prof(U2, ("",), ("ab",))
        mu = ModelSet.full(U2)
        hit = check_postulate(PostulateId.IC4, CLO_GMAX, simple(e, mu))
        assert hit is not None
        assert dict(hit.details)["output"] == "{}|{a}|{b}"
        assert recheck(hit, CLO_GMAX)

    def test_ic4_passes_for_closure_of_sigma_same_instance(self):
        e = prof(U2, ("",), ("ab",))
        mu = ModelSet.full(U2)
        assert check_postulate(PostulateId.IC4, CLO_SIG, simple(e, mu)) is None

    def test_ic4_shape_checks(self):
        mu = ms(U2, "", "a")
        with pytest.raises(ShapeMismatchError):
            check_postulate(PostulateId.IC4, SIG2, simple(prof(U2, ("a",)), mu))
        with pytest.raises(ShapeMismatchError):
            # second base does not entail the constraint
            check_postulate(PostulateId.IC4, SIG2, simple(prof(U2, ("a",), ("b",)), mu))

    def test_ic5_witness_three_against_one(self):
        u = Universe("abc")
        e1 = prof(u, ("a", "ab", "ac"), ("b", "ab", "bc"), ("c", "ac", "bc"))
        e2 = prof(u, ("", "b"))
        mu = ModelSet.from_sets(u, "", "a", "b", "c")
        op = RefinedOperator(
            MergeOperator(CountingDistance.hamming(3), Aggregator.SIGMA),
            ClosureRefinement(AND2),
        )
        hit = check_postulate(PostulateId.IC5, op, Instance((e1, e2), (mu,)))
        assert hit is not None
        assert dict(hit.details)["joint"] == "{}|{b}"
        assert dict(hit.details)["union-output"] == "{b}"

    def test_ic7_witness_for_closure(self):
        e = prof(U2, ("a",), ("b",), ("ab",))
        mu1, mu2 = ms(U2, "", "a", "b"), ms(U2, "", "a")
        hit = check_postulate(PostulateId.IC7, CLO_SIG, Instance((e,), (mu1, mu2)))
        assert hit is not None
        assert dict(hit.details)["restricted"] == "{}|{a}"
        assert dict(hit.details)["conjoined"] == "{a}"

    def test_ic7_passes_for_lex(self):
        e = prof(U2, ("a",), ("b",), ("ab",))
        mu1, mu2 = ms(U2, "", "a", "b"), ms(U2, "", "a")
        lex = RefinedOperator(SIG2, LexRefinement(AND2))
        assert check_postulate(PostulateId.IC7, lex, Instance((e,), (mu1, mu2))) is None

    def test_ic6_witnesses_for_all_three_refinements(self):
        k1, k2, k3 = ("a", "ab"), ("b", "ab"), ("", "a", "b")
        e1 = prof(U2, k1, k2, k3)
        mu = ModelSet.full(U2)
        cases = [
            (ClosureRefinement(AND2), prof(U2, ("",))),
            (LexRefinement(AND2), prof(U2, k1)),
            (LexClosureRefinement(AND2), prof(U2, ("",))),
        ]
        for kind, e2 in cases:
            op = RefinedOperator(GMAX2, kind)
            hit = check_postulate(PostulateId.IC6, op, Instance((e1, e2), (mu,)))
            assert hit is not None, kind
            assert recheck(hit, op)

    def test_ic8_witness_for_closure_of_gmax(self):
        # verified by hand: merge under the full constraint is {{a},{b}},
        # closing adds {}; conjoining with {{},{a,b}} keeps both models
        e = prof(U2, ("",), ("ab",))
        mu1 = ModelSet.full(U2)
        mu2 = ms(U2, "", "ab")
        hit = check_postulate(PostulateId.IC8, CLO_GMAX, Instance((e,), (mu1, mu2)))
        assert hit is not None
        assert dict(hit.details)["restricted"] == "{}"
        assert dict(hit.details)["conjoined"] == "{}|{a,b}"

    def test_shape_count_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            check_postulate(PostulateId.IC0, SIG2, Instance((), (ms(U2, "a"),)))
        with pytest.raises(ShapeMismatchError):
            check_postulate(PostulateId.IC5, SIG2, simple(prof(U2, ("a",)), ms(U2, "a")))


class TestSearch:
    def test_basic_postulates_hold_for_closure_refinement(self):
        space = SearchSpace(
            atoms=2,
            fragment=HORN,
            postulates=(PostulateId.IC0, PostulateId.IC1, PostulateId.IC2, PostulateId.IC3),
        )
        assert search(space, CLO_SIG) == []

    def test_ic4_space_is_clean_for_triangular_sigma_closure(self):
        space = SearchSpace(atoms=2, fragment=HORN, postulates=(PostulateId.IC4,))
        assert search(space, CLO_SIG) == []

    def test_lex_of_drastic_violates_ic4(self):
        op = RefinedOperator(
            MergeOperator(CountingDistance.drastic(2), Aggregator.SIGMA),
            LexRefinement(AND2),
        )
        space = SearchSpace(
            atoms=2, fragment=HORN, max_profile_size=3, postulates=(PostulateId.IC4,)
        )
        witnesses = search(space, op)
        assert witnesses
        first = witnesses[0]
        assert first.instance.profiles[0].render() == "{a}; {b}"
        assert all(recheck(w, op) for w in witnesses)

    @pytest.mark.parametrize("fragment", [HORN, KROM])
    def test_fair_refinements_keep_ic4(self, fragment):
        space = SearchSpace(atoms=2, fragment=fragment, postulates=(PostulateId.IC4,))
        for agg in (Aggregator.SIGMA, Aggregator.GMAX):
            drastic_clo = RefinedOperator(
                MergeOperator(CountingDistance.drastic(2), agg),
                ClosureRefinement(fragment.beta),
            )
            lex_clo = RefinedOperator(
                MergeOperator(CountingDistance.hamming(2), agg),
                LexClosureRefinement(fragment.beta),
            )
            assert search(space, drastic_clo) == []
            assert search(space, lex_clo) == []

    @pytest.mark.parametrize(
        "aggregator, kind, witnesses",
        [(Aggregator.SIGMA, ClosureRefinement, 0), (Aggregator.SIGMA, LexRefinement, 357),
         (Aggregator.GMAX, ClosureRefinement, 80)],
        ids=["sigma-closure", "sigma-lex", "gmax-closure"],
    )
    def test_three_atom_krom_ic4(self, aggregator, kind, witnesses):
        # Every non-empty set over 2 atoms is Krom-closed, so there a Krom
        # refinement is the identity; 3 atoms is the first size where MAJ3
        # closure acts.  Exhaustive over all 49,295 ic4 instances.
        space = SearchSpace(atoms=3, fragment=KROM, postulates=(PostulateId.IC4,))
        assert ROWS[PostulateId.IC4].count(space) == 49_295
        op = RefinedOperator(MergeOperator(CountingDistance.hamming(3), aggregator), kind(MAJ3))
        found = search(space, op)
        assert len(found) == witnesses
        assert all(recheck(w, op) for w in found[:10])

    def test_limit(self):
        op = RefinedOperator(
            MergeOperator(CountingDistance.drastic(2), Aggregator.SIGMA),
            LexRefinement(AND2),
        )
        space = SearchSpace(atoms=2, fragment=HORN, postulates=(PostulateId.IC4,))
        all_hits = search(space, op)
        assert len(all_hits) > 1
        assert len(search(space, op, limit=1)) == 1

    @pytest.mark.parametrize("limit", [0, -1])
    def test_a_limit_below_one_is_refused_before_any_table(self, limit):
        class Refusing:
            label = "refusing"

            def answers(self, *args):
                raise AssertionError("an answer table was built")

            __call__ = answers

        with pytest.raises(ValueError, match=f"^limit must be at least 1, got {limit}$"):
            search(SearchSpace(atoms=2, fragment=HORN), Refusing(), limit=limit)

    def test_deterministic(self):
        op = RefinedOperator(GMAX2, ClosureRefinement(AND2))
        space = SearchSpace(atoms=2, fragment=HORN, postulates=(PostulateId.IC4, PostulateId.IC8))
        first = [w.render() for w in search(space, op)]
        second = [w.render() for w in search(space, op)]
        assert first == second

    @pytest.mark.parametrize(
        "space, message",
        [
            (dict(atoms=0), "the universe needs at least 1 atom, got 0"),
            (dict(atoms=5, fragment=HORN), "exhaustive mode caps the universe at 4 atoms, got 5"),
            (dict(atoms=2, max_profile_size=0), "profile size cap must be at least 1"),
            (dict(atoms=2, max_bases=-1), "base cap must be at least 0, got -1"),
        ],
        ids=["atoms-0", "atoms-5", "profile-size-0", "max-bases--1"],
    )
    def test_space_too_large(self, space, message):
        # Refused when the space is built, before any search, and when
        # another space is copied with the value.
        for build in (SearchSpace, SearchSpace(atoms=2)._replace):
            with pytest.raises(SpaceTooLargeError) as info:
                build(**space)
            assert str(info.value) == message

    def test_max_bases_caps_the_pool(self):
        space = SearchSpace(atoms=2, fragment=HORN, max_bases=3)
        assert len(space.base_sets()) == 3

    def test_unrestricted_fragment_uses_all_sets(self):
        space = SearchSpace(atoms=2, fragment=None)
        assert len(space.base_sets()) == 15


class TestFixtures:
    def test_catalog_is_complete(self):
        assert fixture_ids() == (
            "ex1",
            "ex3",
            "prop3-horn",
            "prop3-krom",
            "prop4-horn",
            "prop4-krom",
            "prop6-fairness",
            "prop8-ic5",
            "prop8-ic7-horn",
            "prop8-ic7-krom",
            "prop9-ic4",
            "prop10-nonfair",
            "prop11-ic6",
        )

    @pytest.mark.parametrize("fixture_id", list(fixture_ids()))
    def test_every_fixture_reproduces(self, fixture_id):
        report = reproduce(fixture_id)
        failing = [r for r in report.rows if not r.ok]
        assert report.ok, failing

    def test_unknown_fixture(self):
        with pytest.raises(UnknownFixtureError):
            reproduce("nosuch")

    def test_report_rendering(self):
        report = reproduce("ex1")
        text = report.render_text()
        assert "all cells match" in text
        records = report.records()
        assert all(r[0] == "check" and r[-1] == "pass" for r in records)
        assert len(records) == len(report.rows)

    def test_score_cells_print_sigma_as_int_and_gmax_as_tuple(self):
        e, mu = prof(U3, ("ab",), ("a",), ("",)), ms(U3, "ab")
        rows = postulates._Rows()
        for f, score in ((Aggregator.SIGMA, "3"), (Aggregator.GMAX, "(2,1,0)")):
            rows.scores(e, mu, MergeOperator(CountingDistance.hamming(3), f), (("{a,b}", score),))
        assert [(r.label, r.actual, r.ok) for r in rows] == [
            ("row {a,b} sigma", "3", True),
            ("row {a,b} gmax", "(2,1,0)", True),
        ]

    def test_ex1_table_cells(self):
        report = reproduce("ex1")
        cells = {r.label: r.actual for r in report.rows}
        assert cells["row {} sigma"] == "2"
        assert cells["row {a} sigma"] == "1"
        assert cells["row {b} sigma"] == "1"
        assert cells["row {} gmax"] == "(1,1)"
        assert cells["row {a} gmax"] == "(1,0)"
        assert cells["merge sigma"] == "{a}, {b}"

    @pytest.mark.parametrize(
        "pair, key, patch, label",
        [
            ("prop3", "table", lambda t: (("{}", "0,3", "2"),) + t[1:], "row {} distances"),
            ("prop4", "closed", lambda s: "{}, {a}", "closure refinement"),
            ("prop8-ic7", "table", lambda t: t[:-1] + (("{c}", "2,2,0,1,1", "5"),), "row {c} sigma"),
        ],
    )
    def test_twin_spec_cells_are_compared(self, monkeypatch, capsys, pair, key, patch, label):
        (_, horn_builder, _), (_, builder, spec) = FIXTURES[f"{pair}-horn"], FIXTURES[f"{pair}-krom"]
        assert horn_builder is builder
        monkeypatch.setitem(spec, key, patch(spec[key]))
        report = reproduce(f"{pair}-krom")
        assert [r.label for r in report.rows if not r.ok] == [label]
        assert cli.main(["reproduce", f"{pair}-krom"]) == 1
        assert capsys.readouterr().out.count("FAIL") == 1
        assert reproduce(f"{pair}-horn").ok


FRAGMENTS = {"horn": HORN, "krom": KROM, "none": None}
REFINEMENTS = {
    "none": None,
    "closure": ClosureRefinement,
    "lex": LexRefinement,
    "lex-closure": LexClosureRefinement,
}
OPERATORS = [
    (distance, aggregator, refinement)
    for distance in ("hamming", "drastic")
    for aggregator in Aggregator
    for refinement in REFINEMENTS
]


def cli_operator(fragment, distance, aggregator, refinement):
    """One of the 16 `check --op` operators at 2 atoms; the unrestricted
    space gets the Horn refinements."""
    op = MergeOperator(getattr(CountingDistance, distance)(2), aggregator)
    kind = REFINEMENTS[refinement]
    return op if kind is None else RefinedOperator(op, kind((fragment or HORN).beta))


def engine_spaces(fragment):
    """The spaces the engine is compared on.  ic4 instances do not depend on
    the profile size, and ic3 has none at size 1."""
    return (
        SearchSpace(atoms=2, fragment=fragment, max_profile_size=1),
        SearchSpace(atoms=2, fragment=fragment, max_profile_size=2, postulates=(PostulateId.IC3,)),
        SearchSpace(atoms=2, fragment=fragment, max_profile_size=2, max_bases=3),
    )


@functools.cache
def slow_witnesses(fragment, spec):
    """Rendered `slow_search` witnesses of one operator on each engine space."""
    op = PresentationCache(cli_operator(FRAGMENTS[fragment], *spec))
    return [[w.render() for w in slow_search(space, op)] for space in engine_spaces(FRAGMENTS[fragment])]


def always(*values):
    return True


def bitsets(space):
    """A space's profiles and constraints as a search walks them: tuples of
    base bitsets and bitsets."""
    return space._profile_bits(), tuple(s.bits for s in space.base_sets())


def scanned(shape, answers, space):
    """Every instance a shape's scan walks, in order: its test always holds."""
    return [postulates._instance(space.universe, ps, cs)
            for ps, cs, _ in shape.scan(answers, *bitsets(space), always)]


def checks_made(shape, answers, space):
    """How many instances a shape's scan tests, with a test that flags none."""
    calls = [0]

    def count(*values):
        calls[0] += 1

    assert not list(shape.scan(answers, *bitsets(space), count))
    return calls[0]


class FlatTable:
    """An answer table that reads `value` for every constraint."""

    def __init__(self, value):
        self.value = value

    def __getitem__(self, position):
        return self.value

    def __iter__(self):
        return itertools.repeat(self.value)


class FlatAnswers(dict):
    """Tables for walking a scan without an operator: a profile of n bases
    reads 2^n for every constraint.  An ic5/ic6 union is longer than both
    its parts, so its bit is in neither, the two sides of every ic5/ic6
    instance differ and the scan tests them all."""

    def __missing__(self, key):
        return FlatTable(1 << len(key))


def last_base_outside(mset, profile_models):
    # Closure when the merge is closed or the last base has a model outside
    # it, else its least model: reads the bases in order.
    if is_closed(AND2, mset) or profile_models[-1].bits & ~mset.bits:
        return closure(AND2, mset)
    return ModelSet.from_bits(mset.universe, mset.bits & -mset.bits)


class FirstBaseKind:
    """A refinement kind of its own, not a `BetaMapping`: the closure of M
    when `holds(M, X[0])`, else M's least model."""

    def __init__(self, beta, holds):
        self.beta, self.holds, self.label = beta, holds, f"first-base({beta})"

    def __call__(self, mset, profile_models):
        if self.holds(mset, profile_models[0]):
            return closure(self.beta, mset)
        return ModelSet.from_bits(mset.universe, mset.bits & -mset.bits)


class MeetsFirstBaseKind(FirstBaseKind):
    """`FirstBaseKind` on whether M meets X[0], which it says with `reads`."""

    def __init__(self, beta):
        super().__init__(beta, ModelSet.intersects)

    @staticmethod
    def reads(profile_bits):
        return profile_bits[0]


class TestEngineAgainstSlowOracle:
    """The table engine gives the witnesses of the per-instance if-chain,
    in the same order and with the same text."""

    @pytest.mark.parametrize("fragment", list(FRAGMENTS), ids=list(FRAGMENTS))
    @pytest.mark.parametrize("spec", OPERATORS, ids=["-".join((d, a.value, r)) for d, a, r in OPERATORS])
    def test_witnesses_match(self, fragment, spec):
        op = PresentationCache(cli_operator(FRAGMENTS[fragment], *spec))
        for space, want in zip(engine_spaces(FRAGMENTS[fragment]), slow_witnesses(fragment, spec)):
            found = search(space, op)
            assert isinstance(found, list)
            assert [w.render() for w in found] == want
            assert all(recheck(w, op) for w in found)
            for limit in (1, 3):
                assert [w.render() for w in search(space, op, limit=limit)] == want[:limit]

    @pytest.mark.parametrize("fragment", list(FRAGMENTS), ids=list(FRAGMENTS))
    @pytest.mark.parametrize("spec", OPERATORS, ids=["-".join((d, a.value, r)) for d, a, r in OPERATORS])
    def test_builtin_operators_match_on_the_fast_path(self, fragment, spec):
        # Unwrapped, the shipped operators answer through `answers`: one
        # ring search per profile and one refinement per distinct input in a
        # search.  The oracle asks them one (profile, constraint) at a time.
        op = cli_operator(FRAGMENTS[fragment], *spec)
        assert hasattr(op, "answers")
        for space, want in zip(engine_spaces(FRAGMENTS[fragment]), slow_witnesses(fragment, spec)):
            found = search(space, op)
            assert [w.render() for w in found] == want
            assert all(recheck(w, op) for w in found)
            assert [w.render() for w in search(space, op, limit=1)] == want[:1]

    def test_ic4_witnesses_do_not_depend_on_the_postulates_searched_before(self):
        # ic3 keeps full tables for the profiles it reads; ic4 reads its own.
        # Only Horn operators have ic4 witnesses at 2 atoms.
        found = 0
        for fragment, spec in itertools.product((HORN, KROM), OPERATORS):
            op = cli_operator(fragment, *spec)
            spaces = [SearchSpace(atoms=2, fragment=fragment, postulates=pids)
                      for pids in ((PostulateId.IC4,), (PostulateId.IC3, PostulateId.IC4))]
            alone, after = ([w.render() for w in search(space, op) if w.postulate is PostulateId.IC4]
                            for space in spaces)
            assert after == alone
            found += len(alone)
        assert found

    @pytest.mark.parametrize("fragment", list(FRAGMENTS), ids=list(FRAGMENTS))
    def test_check_postulate_and_instance_order_match(self, fragment):
        frag = FRAGMENTS[fragment]
        space = SearchSpace(atoms=2, fragment=frag, max_profile_size=2, max_bases=3)
        for spec in OPERATORS:
            op = PresentationCache(cli_operator(frag, *spec))
            answers = postulates._Answers(op, space.universe, bitsets(space)[1], True)
            for pid in PostulateId:
                slow = list(slow_instances(pid, space))
                # ic5-ic8 test entailments, so their scans skip the instances
                # where the two sides are equal, and ic7/ic8 those where the
                # first is empty: no row can fire there.  `check_postulate`
                # skips none, so it is compared on every instance.
                expected = slow
                if ROWS[pid].shape is postulates._PAIRS:
                    expected = [i for i in slow if op(i.profiles[0], i.constraints[0])
                                & op(i.profiles[1], i.constraints[0])
                                != op(i.profiles[0].union(i.profiles[1]), i.constraints[0])]
                if ROWS[pid].shape is postulates._CONSTRAINT_PAIRS:
                    expected = [i for i in slow if (op(i.profiles[0], i.constraints[0]) & i.constraints[1])
                                not in (ModelSet(U2), op(i.profiles[0], i.constraints[0] & i.constraints[1]))]
                fast = scanned(ROWS[pid].shape, answers, space)
                assert [i.encode() for i in fast] == [i.encode() for i in expected]
                for instance in slow:
                    assert check_postulate(pid, op, instance) == slow_check_postulate(pid, op, instance)

    def test_ic3_asks_the_operator_for_the_flipped_profile(self):
        # A plain callable that reads the first base: an answer table shared by
        # both presentations would hide every ic3 violation.
        def first_base(profile, mu):
            return profile.bases[0].models & mu

        space = SearchSpace(atoms=2, fragment=HORN, postulates=(PostulateId.IC3,))
        found = search(space, first_base)
        assert found
        assert [w.render() for w in found] == [w.render() for w in slow_search(space, first_base)]
        assert all(recheck(w, first_base) for w in found)

    def test_ic3_finds_witnesses_of_an_order_dependent_refinement(self):
        # Closure when the merge is closed or meets the first base, else its
        # least model: two presentations of one profile can refine apart.
        def first_base_closure(mset, profile_models):
            if is_closed(AND2, mset) or mset.intersects(profile_models[0]):
                return closure(AND2, mset)
            return ModelSet.from_bits(mset.universe, mset.bits & -mset.bits)

        op = RefinedOperator(SIG2, BetaMapping(AND2, first_base_closure))
        space = SearchSpace(atoms=2, fragment=HORN, postulates=(PostulateId.IC3,))
        found = search(space, op)
        assert len(found) == 2
        assert [w.render() for w in found] == [w.render() for w in slow_search(space, op)]
        assert all(recheck(w, op) for w in found)

    def test_memo_keys_on_a_base_outside_the_merge_output(self):
        # Closure when the merge is closed or the last base has a model
        # outside it, else its least model: two profiles with one merge
        # output, and one pattern of the bases it meets, can refine apart.
        # The mapping reads X in order, so each presentation of a profile
        # union (ic5/ic6) gets its own table.
        op = RefinedOperator(SIG2, BetaMapping(AND2, last_base_outside))
        space = SearchSpace(atoms=2, fragment=HORN)
        found = search(space, op)
        slow = slow_search(space, PresentationCache(op))
        assert [w.render() for w in found] == [w.render() for w in slow]
        counts = collections.Counter(w.postulate for w in found)
        assert counts[PostulateId.IC5] == 159 and counts[PostulateId.IC6] == 109

    @pytest.mark.parametrize("fragment", [HORN, KROM], ids=["horn", "krom"])
    def test_a_kind_that_reads_whether_m_meets_a_bitset_keeps_its_witnesses(self, fragment):
        # A kind's output may depend on X only through whether M meets the
        # bitset that its `reads` returns: here the first base's models.
        op = RefinedOperator(SIG2, MeetsFirstBaseKind(fragment.beta))
        space = SearchSpace(atoms=2, fragment=fragment)
        found = search(space, op)
        assert found
        assert [w.render() for w in found] == [w.render() for w in slow_search(space, PresentationCache(op))]

    def test_a_kind_without_reads_is_asked_on_all_of_x(self):
        # Whether M holds the first base is not whether M meets some bitset,
        # so the kind has no `reads`, and the engine asks it on X in order.
        op = RefinedOperator(SIG2, FirstBaseKind(AND2, lambda mset, first: first.issubset(mset)))
        space = SearchSpace(atoms=2, fragment=HORN)
        found = search(space, op)
        assert len(found) == 1876
        assert [w.render() for w in found] == [w.render() for w in slow_search(space, PresentationCache(op))]

    def test_operator_is_asked_once_per_profile_and_constraint(self):
        calls = []

        def counting(profile, mu):
            calls.append((profile, mu))
            return SIG2(profile, mu)

        space = SearchSpace(atoms=2, fragment=KROM, postulates=(PostulateId.IC7, PostulateId.IC8))
        assert search(space, counting) == search(space, SIG2)
        assert len(calls) == len(set(calls))


def base_bits(profile):
    return tuple(b.models.bits for b in profile.bases)


class TestAnswers:
    """`answers(keys, memo)` is a function that gives, on the profile with
    base bitsets `bases`, for every constraint bitset in `keys`, the bits
    the operator's own call gives, in the order of `keys`."""

    @pytest.mark.parametrize("fragment", [HORN, KROM], ids=["horn", "krom"])
    def test_every_two_atom_profile_and_constraint(self, fragment):
        space = SearchSpace(atoms=2, fragment=None, max_profile_size=2)
        constraints = list(all_model_sets(U2))
        keys = tuple(mu.bits for mu in constraints)
        for spec in OPERATORS:
            op, memo = cli_operator(fragment, *spec), Memo(U2)
            for e in space.profiles():
                for shown in (e, Profile(e.bases[::-1])):
                    table = op.answers(keys, memo)(base_bits(shown))
                    assert table == tuple(op(shown, mu).bits for mu in constraints)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_keys_three_to_six_atoms(self, data):
        n = data.draw(st.integers(3, 6))
        universe = Universe("abcdef"[:n])
        masks = st.integers(0, (1 << n) - 1)
        within = data.draw(st.frozensets(masks, max_size=24))
        subsets = st.lists(st.sampled_from(sorted(within)), unique=True) if within else st.just([])
        constraints = [ModelSet(universe, data.draw(subsets)) for _ in range(4)] + [ModelSet(universe, within)]
        distance = data.draw(st.sampled_from(("hamming", "drastic")))
        merge_op = MergeOperator(getattr(CountingDistance, distance)(n), data.draw(st.sampled_from(list(Aggregator))))
        kind = REFINEMENTS[data.draw(st.sampled_from(list(REFINEMENTS)))]
        beta = data.draw(st.sampled_from([AND2, MAJ3]))
        op = merge_op if kind is None else RefinedOperator(merge_op, kind(beta))
        keys, memo = tuple(dict.fromkeys(mu.bits for mu in constraints)), Memo(universe)
        # Two profiles share the memo, as the profiles of one search do.
        for _ in range(2):
            bases = data.draw(st.lists(st.frozensets(masks, min_size=1, max_size=8), min_size=1, max_size=4))
            e = Profile(tuple(Base(ModelSet(universe, b)) for b in bases))
            table = dict(zip(keys, op.answers(keys, memo)(base_bits(e))))
            assert [table[mu.bits] for mu in constraints] == [op(e, mu).bits for mu in constraints]

    def test_refinement_runs_once_per_distinct_input_per_search(self):
        # A BetaMapping may read all of X in order: it runs once per distinct
        # (M, ordered X) of a search, and again in the next search.
        calls = []

        def closure_of(mset, profile_models):
            calls.append((mset.bits, tuple(m.bits for m in profile_models)))
            return closure(AND2, mset)

        op = RefinedOperator(SIG2, BetaMapping(AND2, closure_of))
        space = SearchSpace(atoms=2, fragment=HORN, postulates=(PostulateId.IC0, PostulateId.IC3, PostulateId.IC7))
        profiles, pool = space.profiles(), [mu.bits for mu in space.base_sets()]
        shown = list(profiles) + [Profile(e.bases[::-1]) for e in profiles if len(e) > 1]
        keys = {b1 & b2 for b1 in pool for b2 in pool}
        want = {(SIG2(e, ModelSet.from_bits(U2, b)).bits, tuple(k.models.bits for k in e.bases))
                for e in shown for b in keys}
        search(space, op)
        assert len(calls) == len(want) and set(calls) == want
        search(space, op)  # the memo lives for one search, not on the operator
        assert len(calls) == 2 * len(want)

    def test_one_memo_serves_every_gauge_aggregator_and_key_list(self):
        # Rings and groups are keyed on what they depend on, so one
        # memo may serve operators of other gauges and aggregators, and other
        # key lists, in any order.
        pool = tuple(mu.bits for mu in all_model_sets(U2))
        key_lists = [pool[:5], pool, pool[::-1], tuple(b for b in pool if b & 1)]
        ops = [cli_operator(HORN, *spec) for spec in OPERATORS]
        ops += [MergeOperator(CountingDistance.from_gauge((1, 3)), agg) for agg in Aggregator]
        memo = Memo(U2)
        for e in SearchSpace(atoms=2, fragment=None, max_profile_size=2).profiles():
            for keys in key_lists:
                for op in ops:
                    table = op.answers(keys, memo)(base_bits(e))
                    assert table == tuple(op(e, ModelSet.from_bits(U2, b)).bits for b in keys)
                    assert table == op.answers(keys, Memo(U2))(base_bits(e)), op.label

    @pytest.mark.parametrize("fragment", [HORN, KROM], ids=["horn", "krom"])
    def test_one_ring_search_per_base_and_within(self, fragment, monkeypatch):
        # One search keeps one memo: each base's rings are searched once per
        # `within` (the union of the keys; ic4's narrower keys here all hold
        # the full set), and a profile union of ic5/ic6 (at profile size 1,
        # as the benchmark runs them) grows its first part's groups by the
        # other's bases.  The next search starts afresh.
        rings, calls = merge_module._rings, []

        def counting(bits, within, gauge, patterns):
            calls.append((bits, within))
            return rings(bits, within, gauge, patterns)

        monkeypatch.setattr(merge_module, "_rings", counting)
        pool = [mu.bits for mu in SearchSpace(atoms=2, fragment=fragment).base_sets()]
        once = sorted((bits, functools.reduce(operator.or_, pool)) for bits in pool)
        op = RefinedOperator(GMAX2, LexClosureRefinement(fragment.beta))
        for size, pids in [(2, ALL_POSTULATES[:5] + ALL_POSTULATES[7:]), (1, ALL_POSTULATES[5:7])]:
            space = SearchSpace(atoms=2, fragment=fragment, max_profile_size=size, postulates=pids)
            calls.clear()
            search(space, op)
            assert sorted(calls) == once
            search(space, op)
            assert sorted(calls) == sorted(once * 2)

    def test_ic4_tables_hold_only_the_keys_asked_for(self):
        # ic4 asks for tables of two-base profiles over fewer keys than ic0
        # does, and over the same full set, so with the same levels: one memo
        # serves both, and never hands back a table built over other keys.
        class KeyedMerge(MergeOperator):
            def answers(self, keys, memo):
                table = super().answers(keys, memo)

                def keyed(bases):
                    out = table(bases)
                    asked.append((bases, keys, out))
                    return out

                return keyed

        asked = []
        base = KeyedMerge(CountingDistance.hamming(2), Aggregator.SIGMA)
        op = RefinedOperator(base, ClosureRefinement(MAJ3))
        space = SearchSpace(atoms=2, fragment=KROM, max_profile_size=1, postulates=(PostulateId.IC0, PostulateId.IC4))
        found = search(space, op)
        assert len({keys for _, keys, _ in asked}) > 1
        for bases, keys, table in asked:
            e = Profile.from_bits(U2, bases)
            assert table == tuple(base(e, ModelSet.from_bits(U2, b)).bits for b in keys)
        assert [w.render() for w in found] == [w.render() for w in slow_search(space, op)]

    def test_base_output_outside_the_constraint_is_refused(self):
        op = RefinedOperator(lambda e, mu: ms(U2, "a", "b"), ClosureRefinement(AND2))
        with pytest.raises(ValueError, match="contained in the constraint"):
            op.answers((ms(U2, "a").bits,), Memo(U2))((ms(U2, "a").bits,))


class TestTableFunctions:
    """Every table of a table function, `answer_table(op, keys, memo)`,
    equals one `op(Profile, ModelSet)` call per key, on every presentation
    a search asks for: sorted profiles, flipped ones (ic3), profile unions
    (ic5/ic6) and ic4's narrower keys."""

    @staticmethod
    def operators(fragment, atoms):
        # The 16 `check --op` operators, and for each refined one the same
        # operator over a cached merge: the oracle, which refines the
        # merge's own answer and shares it among the four refinements.
        ops, oracles = [], []
        for distance, aggregator, refinement in OPERATORS:
            merge_op = MergeOperator(getattr(CountingDistance, distance)(atoms), aggregator)
            kind = REFINEMENTS[refinement]
            if kind is None:
                ops.append(merge_op)
                oracles.append(cached := PresentationCache(merge_op))
            else:
                ops.append(RefinedOperator(merge_op, kind(fragment.beta)))
                oracles.append(RefinedOperator(cached, kind(fragment.beta)))
        return ops, oracles

    @pytest.mark.parametrize("fragment, atoms, max_bases", [(HORN, 2, None), (KROM, 2, None), (KROM, 3, 36)],
                             ids=["horn-2", "krom-2", "krom-3-36"])
    def test_every_table_matches_one_call_per_key(self, fragment, atoms, max_bases):
        space = SearchSpace(atoms=atoms, fragment=fragment, max_bases=max_bases)
        universe, (profiles, pool) = space.universe, bitsets(space)
        pairs, singles = [e for e in profiles if len(e) == 2], [e for e in profiles if len(e) == 1]
        shown, keys = profiles, pool
        if atoms == 2:
            # Flipped pairs, unions of a pair and a single, and ic7/ic8's
            # conjoined keys; over 3 atoms they would take seconds.
            shown = profiles + [e[::-1] for e in pairs] + [e + singles[i % len(singles)] for i, e in enumerate(pairs)]
            keys = tuple(dict.fromkeys(pool + tuple(b1 & b2 for b1 in pool for b2 in pool)))
        narrower = {e: tuple(c for c in pool if not (e[0] | e[1]) & ~c) for e in pairs}
        ops, oracles = self.operators(fragment, atoms)
        refined_acts = False
        for op, oracle in zip(ops, oracles):
            memo = Memo(universe)
            table = answer_table(op, keys, memo)
            assert answer_table(op, keys, memo) is table  # one function per (op, keys, memo)
            for e in shown:
                profile = Profile.from_bits(universe, e)
                want = tuple(oracle(profile, ModelSet.from_bits(universe, b)).bits for b in keys)
                assert table(e) == want, (op.label, e)
                if isinstance(op, RefinedOperator):
                    refined_acts |= want != answer_table(op.base, keys, memo)(e)
            for e, narrow in narrower.items():
                profile = Profile.from_bits(universe, e)
                want = tuple(oracle(profile, ModelSet.from_bits(universe, b)).bits for b in narrow)
                assert answer_table(op, narrow, memo)(e) == want, (op.label, e)
        # Over 2 atoms every set is Krom-closed, so no Krom refinement acts
        # there; over 3 atoms and 36 bases, four merge outputs need refining.
        assert refined_acts == (fragment is HORN or atoms == 3)

    @pytest.mark.parametrize("fragment", [HORN, KROM], ids=["horn", "krom"])
    def test_profiles_with_equal_levels_share_one_table(self, fragment):
        space = SearchSpace(atoms=2, fragment=fragment)
        profiles, pool = bitsets(space)
        within, shared = functools.reduce(operator.or_, pool), 0
        for op in self.operators(fragment, 2)[0][::4]:
            sigma = op.aggregator is Aggregator.SIGMA
            by_levels, table = {}, answer_table(op, pool, Memo(U2))
            for e in profiles:
                levels = merge_module._levels(e, within, op.distance.gauge, sigma, 2, ({}, {}, {}))
                by_levels.setdefault(levels, []).append(e)
            for group in by_levels.values():
                assert all(table(e) is table(group[0]) for e in group)
                shared += len(group) - 1
        assert shared

    def test_an_operator_without_answers_is_asked_once_per_profile_and_key(self):
        calls = []

        class FirstBase:
            label = "first-base"

            def __call__(self, profile, mu):
                calls.append((tuple(b.models.bits for b in profile.bases), mu.bits))
                return profile.bases[0].models & mu

        op, memo = FirstBase(), Memo(U2)
        profiles, pool = bitsets(SearchSpace(atoms=2, fragment=HORN))
        shown = profiles + [e[::-1] for e in profiles if len(e) > 1]
        table = answer_table(op, pool, memo)
        assert answer_table(op, pool, memo) is table
        for e in shown:
            calls.clear()
            assert table(e) == tuple(e[0] & b for b in pool)
            assert calls == [(e, b) for b in pool]


# The gmax merge, each Horn refinement kind on it, and an order-dependent mapping.
HORN_OPERATORS = (GMAX2,) + tuple(RefinedOperator(GMAX2, kind) for kind in (
    ClosureRefinement(AND2), LexRefinement(AND2), LexClosureRefinement(AND2),
    BetaMapping(AND2, last_base_outside, "last-base")))


class TestIntEngine:
    """A search works on tuples of base bitsets and shares each table by
    what it depends on."""

    @pytest.mark.parametrize("index", range(5), ids=["merge", "closure", "lex", "lex-closure", "mapping"])
    def test_search_builds_a_profile_only_for_a_witness(self, monkeypatch, index):
        built = []
        init = Profile.__init__

        def counting(self, bases):
            built.append(len(bases))
            init(self, bases)

        op = HORN_OPERATORS[index]
        monkeypatch.setattr(Profile, "__init__", counting)
        found = search(SearchSpace(atoms=2, fragment=HORN), op)
        assert found or op is GMAX2  # the gmax merge satisfies ic0-ic8
        assert len(built) == sum(len(w.instance.profiles) for w in found)

    @staticmethod
    def _refined_tables(monkeypatch, fragment, kind, postulates):
        # The distinct tables a refined gmax search serves, and the distinct
        # (keys, base table, union) triples its base function gives.
        # Closure and lex read nothing of X, so a refined table depends on
        # the base table alone; lex-closure reads the union of X's models.
        # A table served again is the same object, so the distinct objects
        # served are the tables built.
        base_tables, served = set(), []
        merge_answers, refined_answers = MergeOperator.answers, RefinedOperator.answers

        def merge_function(self, keys, memo):
            table = merge_answers(self, keys, memo)

            def recorded(bases):
                out = table(bases)
                union = functools.reduce(operator.or_, bases) if kind is LexClosureRefinement else None
                base_tables.add((keys, out, union))
                return out

            return recorded

        def refined_function(self, keys, memo):
            table = refined_answers(self, keys, memo)

            def recorded(bases):
                served.append(table(bases))
                return served[-1]

            return recorded

        monkeypatch.setattr(MergeOperator, "answers", merge_function)
        monkeypatch.setattr(RefinedOperator, "answers", refined_function)
        space = SearchSpace(atoms=2, fragment=fragment, postulates=postulates)
        search(space, RefinedOperator(GMAX2, kind(fragment.beta)))
        return len({id(table) for table in served}), len(base_tables), space

    @pytest.mark.parametrize("fragment", [HORN, KROM], ids=["horn", "krom"])
    @pytest.mark.parametrize("kind", [ClosureRefinement, LexRefinement, LexClosureRefinement],
                             ids=["closure", "lex", "lex-closure"])
    def test_one_refined_table_per_distinct_base_table(self, monkeypatch, fragment, kind):
        served, base_tables, _ = self._refined_tables(
            monkeypatch, fragment, kind, ALL_POSTULATES[:5] + ALL_POSTULATES[7:])
        assert served == base_tables

    @pytest.mark.parametrize("fragment", [HORN, KROM], ids=["horn", "krom"])
    @pytest.mark.parametrize("kind", [ClosureRefinement, LexRefinement, LexClosureRefinement],
                             ids=["closure", "lex", "lex-closure"])
    def test_fewer_refined_tables_than_profiles_without_ic4(self, monkeypatch, fragment, kind):
        # ic4 asks for narrower tables of its own, one per two-base profile.
        served, base_tables, space = self._refined_tables(
            monkeypatch, fragment, kind, ALL_POSTULATES[:4] + ALL_POSTULATES[7:])
        assert served == base_tables < space.profile_count

    @pytest.mark.parametrize("fragment", [HORN, KROM], ids=["horn", "krom"])
    @pytest.mark.parametrize("postulate", [PostulateId.IC7, PostulateId.IC8], ids=["ic7", "ic8"])
    def test_lex_closure_refines_once_per_output_and_overlap(self, monkeypatch, fragment, postulate):
        # Lex-closure reads of X only whether M meets a base, so a search
        # refines each M at most twice: once meeting X and once missing it.
        calls, refine_call = [], LexClosureRefinement.__call__

        def counting(self, mset, profile_models):
            calls.append((mset.bits, any(mset.intersects(m) for m in profile_models)))
            return refine_call(self, mset, profile_models)

        monkeypatch.setattr(LexClosureRefinement, "__call__", counting)
        op = RefinedOperator(MergeOperator(CountingDistance.drastic(2), Aggregator.GMAX),
                             LexClosureRefinement(fragment.beta))
        search(SearchSpace(atoms=2, fragment=fragment, postulates=(postulate,)), op)
        assert len(calls) == len(set(calls)) <= 2 * len({m for m, _ in calls})

    @pytest.mark.parametrize("fragment, bases, size", [(HORN, 10, 2), (KROM, 40, 1)], ids=["horn", "krom"])
    @pytest.mark.parametrize("aggregator", list(Aggregator), ids=[a.value for a in Aggregator])
    def test_three_atom_search_matches_the_oracle(self, fragment, bases, size, aggregator):
        # Krom refinements first act at 3 atoms, and over the first 40 closed
        # sets at profile size 1 they break ic5-ic8, where the merge does not.
        space = SearchSpace(atoms=3, fragment=fragment, max_bases=bases, max_profile_size=size)
        merge_op = MergeOperator(CountingDistance.hamming(3), aggregator)
        ops = [RefinedOperator(merge_op, kind(fragment.beta))
               for kind in (ClosureRefinement, LexRefinement, LexClosureRefinement)]
        if fragment is HORN:
            ops.append(RefinedOperator(merge_op, BetaMapping(AND2, last_base_outside)))
        counts = []
        for op in ops:
            found = search(space, op)
            assert [w.render() for w in found] == [w.render() for w in slow_search(space, PresentationCache(op))]
            counts.append(len(found))
        assert all(counts[:1] + counts[2:])


class TestInstanceCounts:
    @pytest.mark.parametrize("atoms", [1, 2])
    @pytest.mark.parametrize("fragment", list(FRAGMENTS), ids=list(FRAGMENTS))
    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("max_bases", [None, 3])
    def test_count_matches_enumeration(self, atoms, fragment, size, max_bases):
        space = SearchSpace(atoms=atoms, fragment=FRAGMENTS[fragment],
                            max_profile_size=size, max_bases=max_bases)
        profiles, constraints = space.profiles(), space.base_sets()
        assert space.profile_count == len(profiles)
        enumerated = {}
        for pid in PostulateId:
            shape = ROWS[pid].shape
            if shape not in enumerated:
                if shape.sizes == (2, 1) and size == 3 and max_bases is None:
                    # millions of pairs: count the scan's tests, without an operator
                    enumerated[shape] = checks_made(shape, FlatAnswers(), space)
                else:
                    enumerated[shape] = sum(1 for _ in slow_instances(pid, space))
            assert ROWS[pid].count(space) == enumerated[shape], pid

    @pytest.mark.parametrize(
        "fragment, profiles, ic0, ic7",
        [(HORN, 7_502, 907_742, 109_836_782), (KROM, 13_860, 2_286_900, 377_338_500)],
        ids=["horn", "krom"],
    )
    def test_three_atom_counts(self, fragment, profiles, ic0, ic7):
        space = SearchSpace(atoms=3, fragment=fragment)
        assert space.profile_count == profiles
        assert ROWS[PostulateId.IC0].count(space) == ic0
        assert ROWS[PostulateId.IC7].count(space) == ic7


class TestInstanceBudget:
    @staticmethod
    def refuse(profile, mu):
        raise AssertionError("the operator ran on a refused space")

    def test_largest_tested_space_fits(self):
        space = SearchSpace(atoms=2, fragment=KROM)
        assert ROWS[PostulateId.IC5].count(space) + ROWS[PostulateId.IC7].count(space) == 168_075
        # CI's 3-atom Horn closure searches of ic5 and of ic6, at profile size 1.
        assert ROWS[PostulateId.IC5].count(SearchSpace(3, HORN, 1)) == 893_101 <= MAX_INSTANCES
        assert ROWS[PostulateId.IC6].count(SearchSpace(3, HORN, 1)) == 893_101

    @pytest.mark.parametrize(
        "space",
        [
            SearchSpace(atoms=3, fragment=KROM, postulates=(PostulateId.IC5,)),
            SearchSpace(atoms=4, fragment=None, postulates=(PostulateId.IC4,)),
        ],
        ids=["krom-3-ic5", "none-4-ic4"],
    )
    def test_space_over_budget_is_refused_before_any_instance(self, space):
        with pytest.raises(SpaceTooLargeError, match="over the budget"):
            search(space, self.refuse)

    def test_empty_space_is_refused_before_any_instance(self):
        space = SearchSpace(atoms=2, fragment=HORN, max_profile_size=1, postulates=(PostulateId.IC3,))
        with pytest.raises(EmptySpaceError):
            search(space, self.refuse)

    @pytest.mark.parametrize(
        "space, refusal",
        [
            (dict(atoms=2, fragment=HORN, postulates=(PostulateId.IC0, PostulateId.IC4)), None),
            (dict(atoms=2, fragment=None, postulates=(PostulateId.IC0, PostulateId.IC7)), None),
            (dict(atoms=3, fragment=None), SpaceTooLargeError),
            (dict(atoms=2, fragment=KROM, max_profile_size=1, postulates=(PostulateId.IC3,)), EmptySpaceError),
        ],
        ids=["horn", "none", "none-3-over-budget", "krom-empty"],
    )
    def test_base_sets_are_built_once_per_search(self, monkeypatch, space, refusal):
        builds = []

        def counted(build):
            def wrapper(*args, **kwargs):
                builds.append(args)
                return build(*args, **kwargs)
            return wrapper

        for name in ("model_sets", "closed_model_sets"):
            monkeypatch.setattr(postulates, name, counted(getattr(postulates, name)))
        with pytest.raises(refusal) if refusal else contextlib.nullcontext():
            search(SearchSpace(**space), SIG2)
        assert len(builds) == 1
