import hashlib
import itertools
import re

import pytest

import fragmerge.refine as refine_module
from fragmerge import (
    AND2,
    HORN,
    KROM,
    MAJ3,
    Aggregator,
    BetaMapping,
    BooleanFn,
    ClosureRefinement,
    CountingDistance,
    LexClosureRefinement,
    LexOrder,
    LexRefinement,
    MappingViolationError,
    MergeOperator,
    ModelSet,
    Profile,
    RefinedOperator,
    Universe,
    UniverseMismatchError,
    UniverseTooLargeError,
    cardintersection,
    check_refinement_properties,
    closed_model_sets,
    closure,
    is_closed,
    is_fair,
    validate_mapping,
)
from fragmerge.postulates import SearchSpace
from fragmerge.refine import refine
from helpers import (
    U2,
    U3,
    EchoConstraintOperator,
    PresentationCache,
    all_model_sets,
    ms,
    prof,
    slow_check_refinement_properties,
    slow_is_fair,
    slow_validate_mapping,
)

SIG2 = MergeOperator(CountingDistance.hamming(2), Aggregator.SIGMA)
GMAX2 = MergeOperator(CountingDistance.hamming(2), Aggregator.GMAX)


def example_instance():
    e = prof(U2, ("a", "ab"), ("b", "ab"))
    mu = ms(U2, "", "a", "b")
    return e, mu


class TestLexOrder:
    def test_default_is_ascending_weight(self):
        order = LexOrder(U2)
        assert order.minimum(ms(U2, "a", "b")) == U2.interpretation("a")
        assert order.minimum(ms(U2, "ab", "b")) == U2.interpretation("b")

    def test_explicit_prefix(self):
        order = LexOrder(U2, [U2.interpretation("b")])
        assert order.minimum(ms(U2, "a", "b")) == U2.interpretation("b")
        # unlisted interpretations keep ascending order after the prefix
        assert order.minimum(ms(U2, "a", "ab")) == U2.interpretation("a")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            LexOrder(U2, [U2.interpretation("b"), U2.interpretation("b")])

    def test_entries_of_another_universe_rejected(self):
        with pytest.raises(ValueError, match="^order entries must share the universe$"):
            LexOrder(U2, [U3.interpretation("a")])

    def test_repr(self):
        assert repr(LexOrder(U2)) == "LexOrder(ascending)"
        order = LexOrder(U2, [U2.interpretation("b"), U2.interpretation("")])
        assert repr(order) == "LexOrder({b}, {}, then ascending)"

    def test_empty_set_has_no_minimum(self):
        with pytest.raises(ValueError):
            LexOrder(U2).minimum(ModelSet(U2))

    def test_minimum_rejects_another_universe(self):
        with pytest.raises(UniverseMismatchError):
            LexOrder(U3).minimum(ms(U2, "a", "b"))


class TestCardintersection:
    def test_example_counts_two(self):
        e, mu = example_instance()
        assert cardintersection(SIG2(e, mu), e) == 2

    def test_seven_atom_counts(self):
        u = Universe("abcdefg")
        e = Profile.from_model_sets(
            ModelSet.from_sets(u, "a", "ab", "ad", "af"),
            ModelSet.from_sets(u, "abcdefg"),
        )
        merged = ModelSet.from_sets(u, "abc", "ade", "afg")
        assert cardintersection(merged, e) == 0
        assert cardintersection(closure(AND2, merged), e) == 1

    def test_empty_set(self):
        e, _ = example_instance()
        assert cardintersection(ModelSet(U2), e) == 0

    def test_universe_mismatch(self):
        e, _ = example_instance()
        with pytest.raises(UniverseMismatchError):
            cardintersection(ms(U3, "a"), e)


class TestRefine:
    def test_lex_picks_the_least_model(self):
        e, mu = example_instance()
        out = refine(LexRefinement(AND2), SIG2(e, mu), e, mu)
        assert out == ms(U2, "a")

    def test_closure_adds_missing_intersections(self):
        e, mu = example_instance()
        out = refine(ClosureRefinement(AND2), SIG2(e, mu), e, mu)
        assert out == ms(U2, "", "a", "b")

    def test_lex_closure_follows_closure_when_bases_are_met(self):
        e, mu = example_instance()
        out = refine(LexClosureRefinement(AND2), SIG2(e, mu), e, mu)
        assert out == ms(U2, "", "a", "b")

    def test_lex_closure_follows_lex_when_no_base_is_met(self):
        # merge output misses both bases, so the lex branch fires
        u = Universe("abcdefg")
        e = Profile.from_model_sets(
            ModelSet.from_sets(u, "a", "ab", "ad", "af"),
            ModelSet.from_sets(u, "abcdefg"),
        )
        mu = ModelSet.from_sets(u, "a", "abc", "ade", "afg")
        op = MergeOperator(CountingDistance.hamming(7), Aggregator.SIGMA)
        merged = op(e, mu)
        assert cardintersection(merged, e) == 0
        out = refine(LexClosureRefinement(AND2), merged, e, mu)
        assert len(out) == 1

    def test_custom_lex_order_changes_the_pick(self):
        e, mu = example_instance()
        order = LexOrder(U2, [U2.interpretation("b")])
        out = refine(LexRefinement(AND2, order), SIG2(e, mu), e, mu)
        assert out == ms(U2, "b")

    @pytest.mark.parametrize(
        "kind",
        [ClosureRefinement(AND2), LexRefinement(AND2), LexClosureRefinement(AND2)],
    )
    def test_closed_outputs_are_untouched(self, kind):
        e = prof(U2, ("a",))
        for mset in closed_model_sets(AND2, U2):
            assert refine(kind, mset, e, mset) == mset

    @pytest.mark.parametrize(
        "kind",
        [ClosureRefinement(AND2), LexRefinement(AND2), LexClosureRefinement(AND2)],
    )
    def test_output_invariants_exhaustive(self, kind):
        e = prof(U2, ("a", "ab"), ("b",))
        mu = ModelSet.full(U2)
        for mset in all_model_sets(U2):
            out = refine(kind, mset, e, mu)
            assert is_closed(AND2, out)
            assert bool(out) == bool(mset)
            assert out.issubset(closure(AND2, mset))

    def test_lex_collapses_open_sets_to_one_model(self):
        e = prof(U2, ("a",))
        mu = ModelSet.full(U2)
        for mset in all_model_sets(U2, include_empty=False):
            if not is_closed(AND2, mset):
                assert len(refine(LexRefinement(AND2), mset, e, mu)) == 1

    def test_lex_order_over_another_universe(self):
        e, mu = example_instance()
        kind = LexRefinement(AND2, LexOrder(U3))
        with pytest.raises(UniverseMismatchError):
            refine(kind, SIG2(e, mu), e, mu)

    def test_containment_precondition(self):
        e, mu = example_instance()
        with pytest.raises(ValueError):
            refine(ClosureRefinement(AND2), ModelSet.full(U2), e, mu)

    def test_unknown_kind(self):
        e, mu = example_instance()
        with pytest.raises(TypeError):
            refine(object(), SIG2(e, mu), e, mu)

    def test_refinements_compare_by_class_and_function(self):
        renamed = BooleanFn(2, (0, 0, 0, 1), "renamed")
        assert ClosureRefinement(renamed) == ClosureRefinement(AND2)
        lex, lex_closure = LexRefinement(AND2), LexClosureRefinement(AND2)
        assert lex != lex_closure and not lex == lex_closure and lex_closure != lex
        # A mapping's function is not compared; its name is.
        first = BetaMapping(AND2, lambda mset, x: closure(AND2, mset), "closure")
        second = BetaMapping(AND2, lambda mset, x: mset, "closure")
        assert first == second and not first != second and hash(first) == hash(second)
        assert first != BetaMapping(AND2, first.fn, "other")
        with pytest.raises(AttributeError):
            lex.order = LexOrder(U2)


class TestMappings:
    def test_closure_mapping_is_valid(self):
        for beta in (AND2, MAJ3):
            report = validate_mapping(ClosureRefinement(beta), U2)
            assert report.ok, report.render()

    def test_lex_and_lex_closure_mappings_are_valid(self):
        assert validate_mapping(LexRefinement(AND2), U2).ok
        assert validate_mapping(LexClosureRefinement(AND2), U2).ok

    def test_constant_empty_mapping_violates_nonemptiness(self):
        bad = BetaMapping(AND2, lambda mset, x: ModelSet(mset.universe), "empty")
        report = validate_mapping(bad, U2)
        assert "preserves_nonempty" in report.violations

    def test_identity_mapping_violates_closedness(self):
        identity = BetaMapping(AND2, lambda mset, x: mset, "identity")
        report = validate_mapping(identity, U2)
        assert "closed_output" in report.violations
        witness_set, _, _ = report.violations["closed_output"][0]
        assert not is_closed(AND2, witness_set)

    def test_beta_mapping_is_checked_once_per_pair(self, monkeypatch):
        calls = []
        check = refine_module._mapping_violation
        monkeypatch.setattr(refine_module, "_mapping_violation",
                            lambda *args: calls.append(args) or check(*args))
        report = validate_mapping(BetaMapping(AND2, lambda mset, x: closure(AND2, mset)), U2)
        assert report.ok and report.checked == len(calls) == 2160

    @pytest.mark.parametrize("atoms, cases", [(1, 36), (2, 2160)])
    def test_the_budget_counts_every_case(self, monkeypatch, atoms, cases):
        # 2^(2^n) sets M, each with k profiles of one set and k(k+1)/2 of two,
        # for the k = 2^(2^n) - 1 non-empty sets.
        universe = Universe(["a", "b"][:atoms])
        monkeypatch.setattr(refine_module, "MAX_INSTANCES", cases)
        assert validate_mapping(ClosureRefinement(AND2), universe).checked == cases
        monkeypatch.setattr(refine_module, "MAX_INSTANCES", cases - 1)
        with pytest.raises(UniverseTooLargeError, match=f"^validate_mapping has {cases:,} cases over "):
            validate_mapping(ClosureRefinement(AND2), universe)

    @pytest.mark.parametrize("atoms, count", [
        (3, "8,421,120"), (4, "about 10^14"), (16, "about 10^59184"),
    ])
    def test_a_universe_over_the_budget_is_refused_before_any_call(self, atoms, count):
        def never(mset, profile_models):
            raise AssertionError("the mapping was called")

        universe = Universe([chr(ord("a") + i) for i in range(atoms)])
        message = f"validate_mapping has {count} cases over {atoms} atoms, over the budget of 1,000,000"
        with pytest.raises(UniverseTooLargeError, match=f"^{re.escape(message)}$"):
            validate_mapping(BetaMapping(AND2, never), universe)

    def test_mapping_refinement_applies_the_function(self):
        e, mu = example_instance()
        op = BetaMapping(AND2, lambda mset, x: closure(AND2, mset), "closure")
        assert op.label == "mapping(closure)"
        assert refine(op, SIG2(e, mu), e, mu) == ms(U2, "", "a", "b")

    def test_violating_mapping_raises_on_use(self):
        e, mu = example_instance()
        bad = BetaMapping(AND2, lambda mset, x: mset, "identity")
        with pytest.raises(MappingViolationError) as exc:
            refine(bad, SIG2(e, mu), e, mu)
        assert exc.value.prop == "closed_output"


def fragment_instances(fragment):
    return list(SearchSpace(atoms=2, fragment=fragment).instances())


class TestRefinementProperties:
    @pytest.mark.parametrize("fragment", [HORN, KROM])
    @pytest.mark.parametrize("base_op", [SIG2, GMAX2])
    def test_shipped_refinements_pass(self, fragment, base_op):
        beta = fragment.beta
        instances = fragment_instances(fragment)
        for kind in (ClosureRefinement(beta), LexRefinement(beta), LexClosureRefinement(beta)):
            refined = RefinedOperator(base_op, kind)
            report = check_refinement_properties(base_op, refined, beta, instances)
            assert report.ok, f"{refined.label}:\n{report.render()}"

    def test_checkers_build_one_table_per_profile(self):
        # Each operator answers from one table per presentation of a
        # profile: the base outputs', and the one the refined operator refines.
        class CountingMerge(MergeOperator):
            calls = tables = 0

            def __call__(self, profile, mu):
                self.calls += 1
                return super().__call__(profile, mu)

            def answers(self, profile, keys, memo):
                self.tables += 1
                return super().answers(profile, keys, memo)

        base = CountingMerge(CountingDistance.hamming(2), Aggregator.SIGMA)
        refined = RefinedOperator(base, LexClosureRefinement(AND2))
        instances = fragment_instances(HORN)
        profiles = {e.mmod() for e, _ in instances}
        for checker in (check_refinement_properties, is_fair):
            base.calls = base.tables = 0
            args = (AND2, instances) if checker is check_refinement_properties else (instances,)
            assert checker(base, refined, *args).checked == len(instances)
            assert (base.calls, base.tables) == (0, 2 * len(profiles))

    def test_an_empty_refined_output_fails_consistency(self):
        class Empty:
            label = "empty"

            def __call__(self, profile, mu):
                return ModelSet(mu.universe)

        instances = fragment_instances(HORN)
        report = check_refinement_properties(SIG2, Empty(), AND2, instances)
        _, _, base_out, refined_out = witness = report.violations["consistency"][0]
        assert base_out and not refined_out
        # A closed merge output refined to nothing breaks invariance too, and
        # each property gets its witness or an "ok" line in the report.
        assert report.render().splitlines() == [
            f"checked {len(instances)} cases",
            f"VIOLATED consistency: {witness}",
            "ok containment",
            f"VIOLATED invariance: {report.violations['invariance'][0]}",
            "ok equivalence",
        ]

    def test_a_constraint_over_another_universe_is_refused(self):
        e, mu = example_instance()
        refined = RefinedOperator(SIG2, ClosureRefinement(AND2))
        for checker in (check_refinement_properties, is_fair):
            args = (AND2,) if checker is check_refinement_properties else ()
            with pytest.raises(UniverseMismatchError, match="^constraint and profile over different universes$"):
                checker(SIG2, refined, *args, [(e, mu), (e, ModelSet.full(U3))])

    def test_broken_refinement_fails_containment(self):
        report = check_refinement_properties(
            SIG2, EchoConstraintOperator(), AND2, fragment_instances(HORN)
        )
        assert "containment" in report.violations
        _, _, base_out, refined_out = report.violations["containment"][0]
        assert not refined_out.issubset(closure(AND2, base_out))

    def test_constraint_sensitive_refinement_fails_equivalence(self):
        # output depends on the constraint presentation beyond the base output
        class ParityOp:
            label = "parity"

            def __call__(self, profile, mu):
                base = SIG2(profile, mu)
                if len(mu) % 2 == 0:
                    return closure(AND2, base)
                return refine(LexRefinement(AND2), base, profile, mu)

        e = prof(U2, ("a", "ab"), ("b", "ab"))
        instances = [(e, ms(U2, "", "a", "b")), (e, ms(U2, "a", "b"))]
        report = check_refinement_properties(SIG2, ParityOp(), AND2, instances)
        assert "equivalence" in report.violations


class TestFairness:
    def test_seven_atom_closure_counterexample(self):
        u = Universe("abcdefg")
        e = Profile.from_model_sets(
            ModelSet.from_sets(u, "a", "ab", "ad", "af"),
            ModelSet.from_sets(u, "abcdefg"),
        )
        mu = ModelSet.from_sets(u, "a", "abc", "ade", "afg")
        base = MergeOperator(CountingDistance.hamming(7), Aggregator.SIGMA)
        refined = RefinedOperator(base, ClosureRefinement(AND2))
        report = is_fair(base, refined, [(e, mu)])
        assert not report.ok
        _, _, _, _, base_count, refined_count = report.violations["fairness"][0]
        assert (base_count, refined_count) == (0, 1)

    @pytest.mark.parametrize("fragment", [HORN, KROM])
    @pytest.mark.parametrize("agg", [Aggregator.SIGMA, Aggregator.GMAX])
    def test_drastic_closure_is_fair(self, fragment, agg):
        base = MergeOperator(CountingDistance.drastic(2), agg)
        refined = RefinedOperator(base, ClosureRefinement(fragment.beta))
        report = is_fair(base, refined, fragment_instances(fragment))
        assert report.ok, report.render()

    @pytest.mark.parametrize("fragment", [HORN, KROM])
    def test_lex_closure_is_fair_for_any_operator(self, fragment):
        for dist in (CountingDistance.hamming(2), CountingDistance.drastic(2)):
            for agg in (Aggregator.SIGMA, Aggregator.GMAX):
                base = MergeOperator(dist, agg)
                refined = RefinedOperator(base, LexClosureRefinement(fragment.beta))
                report = is_fair(base, refined, fragment_instances(fragment))
                assert report.ok, report.render()

    @pytest.mark.parametrize("fragment", [HORN, KROM])
    @pytest.mark.parametrize("base_op", [SIG2, GMAX2])
    def test_lex_closure_preserves_overlap_counts(self, fragment, base_op):
        # zero bases met stays zero; more than one stays more than one
        refined = RefinedOperator(base_op, LexClosureRefinement(fragment.beta))
        for e, mu in fragment_instances(fragment):
            n_base = cardintersection(base_op(e, mu), e)
            n_refined = cardintersection(refined(e, mu), e)
            if n_base == 0:
                assert n_refined == 0
            elif n_base > 1:
                assert n_refined > 1


class TestRefinedOperator:
    def test_label_and_memo(self):
        refined = RefinedOperator(SIG2, ClosureRefinement(AND2))
        assert refined.label == "merge(hamming,sigma)+closure(and)"
        e, mu = example_instance()
        assert refined(e, mu) == refined(e, mu)


DRASTIC2 = MergeOperator(CountingDistance.drastic(2), Aggregator.SIGMA)


class _Parity:
    """Closure of the drastic sigma merge under an even-sized constraint, lex
    under an odd one: equal base outputs can refine apart."""

    label = "parity"

    def __call__(self, profile, mu):
        kind = ClosureRefinement(AND2) if len(mu) % 2 == 0 else LexRefinement(AND2)
        return refine(kind, DRASTIC2(profile, mu), profile, mu)


# One profile and base output {a}, {b} under three constraints: `_Parity`
# refines the first two alike and the third apart from them.
PARITY_CASES = [
    (prof(U2, ("a",), ("b",)), ms(U2, *mu)) for mu in (("a", "b"), ("", "a", "b", "ab"), ("", "a", "b"))
]


def _first_base_closure(mset, profile_models):
    # Closure when the merge is closed or meets the first base, else its least
    # model: two presentations of one profile can refine apart.
    if is_closed(AND2, mset) or mset.intersects(profile_models[0]):
        return closure(AND2, mset)
    return ModelSet.from_bits(mset.universe, mset.bits & -mset.bits)


class _PlainMapping:
    """A refinement f(M, X) that checks nothing itself, unlike a BetaMapping,
    so `validate_mapping` finds its violations on its outputs."""

    beta = AND2

    def __init__(self, fn, label):
        self.fn, self.label = fn, label

    def __call__(self, mset, profile_models):
        return self.fn(mset, profile_models)


def _differential_operators(beta):
    for dist in (CountingDistance.hamming(2), CountingDistance.drastic(2)):
        for agg in Aggregator:
            base = MergeOperator(dist, agg)
            for kind in (ClosureRefinement(beta), LexRefinement(beta), LexClosureRefinement(beta)):
                yield base, RefinedOperator(base, kind)
    yield SIG2, EchoConstraintOperator()
    yield DRASTIC2, _Parity()
    yield SIG2, RefinedOperator(SIG2, BetaMapping(AND2, _first_base_closure, "first-base"))


class TestCheckersAgainstSlowOracle:
    """The one case loop against the three loops it replaced: cases checked,
    the first witness per property, and every fairness witness in order."""

    def test_witness_lists_are_pinned(self):
        # Every report of both checkers, for each operator pair below on both
        # 2-atom spaces, rendered and hashed: the checkers that built a
        # `ModelSet` for every case gave this text.
        lines = []
        for fragment in (HORN, KROM):
            instances = fragment_instances(fragment)
            for base, refined in _differential_operators(fragment.beta):
                report = check_refinement_properties(base, refined, fragment.beta, instances)
                lines.append(f"{fragment.name} {refined.label} props {report.checked} "
                             f"{sorted(report.violations.items())!r}")
                report = is_fair(base, refined, instances)
                lines.append(f"{fragment.name} {refined.label} fair {report.checked} "
                             f"{sorted(report.violations.items())!r}")
        text = "\n".join(lines)
        assert sum(line.count("Profile[") for line in lines) == 63
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "775f0dd1a6dbc64235f90b06433612808c35fc96e3812e972d4a157ef85f1f25")

    @pytest.mark.parametrize("fragment", [HORN, KROM])
    def test_refinement_properties_and_fairness(self, fragment):
        instances = PARITY_CASES + fragment_instances(fragment)
        beta = fragment.beta
        for base, refined in _differential_operators(beta):
            # Both sides ask the same cached operators, so each output is computed once.
            base, refined = PresentationCache(base), PresentationCache(refined)
            report = check_refinement_properties(base, refined, beta, instances)
            first = {prop: found[0] for prop, found in report.violations.items()}
            assert all(len(found) == 1 for found in report.violations.values())
            assert (report.checked, first) == slow_check_refinement_properties(
                base, refined, beta, instances), refined.label
            report = is_fair(base, refined, instances)
            assert (report.checked, report.violations.get("fairness", [])) == slow_is_fair(
                base, refined, instances), refined.label

    def test_one_memo_serves_operators_of_other_gauges_and_aggregators(self):
        # The checkers hand the base and the refined operator one memo.  A
        # refined drastic operator beside a hamming base must read only its
        # own rings, groups, tables and refinements: the reports are those of
        # the oracle, which shares nothing.
        instances = fragment_instances(HORN)
        violated = set()
        for agg, kind in itertools.product(Aggregator, (LexRefinement(AND2), LexClosureRefinement(AND2))):
            refined = RefinedOperator(MergeOperator(CountingDistance.drastic(2), agg), kind)
            for base in (SIG2, GMAX2, RefinedOperator(SIG2, ClosureRefinement(AND2))):
                report = check_refinement_properties(base, refined, AND2, instances)
                first = {prop: found[0] for prop, found in report.violations.items()}
                assert (report.checked, first) == slow_check_refinement_properties(
                    base, refined, AND2, instances), (base.label, refined.label)
                violated |= set(first)
                report = is_fair(base, refined, instances)
                assert (report.checked, report.violations.get("fairness", [])) == slow_is_fair(
                    base, refined, instances), (base.label, refined.label)
                violated |= set(report.violations)
        assert violated

    def test_the_oracle_sees_violations(self):
        # Guards the comparison above against agreeing only on clean reports.
        instances = fragment_instances(HORN)
        echo = slow_check_refinement_properties(SIG2, EchoConstraintOperator(), AND2, instances)[1]
        assert {"containment", "equivalence"} <= set(echo)
        parity = slow_check_refinement_properties(DRASTIC2, _Parity(), AND2, PARITY_CASES)[1]
        first, second = parity["equivalence"]
        assert (first[1], second[1]) == (PARITY_CASES[0][1], PARITY_CASES[2][1])
        assert slow_is_fair(GMAX2, RefinedOperator(GMAX2, ClosureRefinement(AND2)), instances)[1]

    @pytest.mark.parametrize("mapping", [
        ClosureRefinement(AND2), LexRefinement(AND2), LexClosureRefinement(AND2),
        ClosureRefinement(MAJ3), LexRefinement(MAJ3), LexClosureRefinement(MAJ3),
        BetaMapping(AND2, lambda mset, x: mset, "identity"),
        BetaMapping(AND2, lambda mset, x: ModelSet(mset.universe), "empty"),
        BetaMapping(AND2, _first_base_closure, "first-base"),
        _PlainMapping(lambda mset, x: mset, "plain-identity"),
        _PlainMapping(lambda mset, x: ModelSet(mset.universe), "plain-empty"),
        _PlainMapping(lambda mset, x: ModelSet.full(mset.universe), "plain-full"),
    ], ids=lambda m: m.label)
    def test_validate_mapping(self, mapping):
        report = validate_mapping(mapping, U2)
        first = {prop: found[0] for prop, found in report.violations.items()}
        assert all(len(found) == 1 for found in report.violations.values())
        assert (report.checked, first) == slow_validate_mapping(mapping, U2)
