import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragmerge import (
    AND2,
    HORN,
    KROM,
    MAJ3,
    ClauseKind,
    Fragment,
    ModelSet,
    NoSyntacticFragmentError,
    NotClosedError,
    ParseError,
    UnknownAtomError,
    Universe,
    UniverseTooLargeError,
    classify,
    closed_model_sets,
    closure,
    is_closed,
    models,
    parse,
    synthesize,
    to_text,
)
from fragmerge.formula import And, Atom, Const, Iff, Implies, Not, Or, TOP, BOTTOM, _clause_pool
from helpers import U2, U3, fragment_clauses, ms, slow_clause_pool, slow_synthesize


def eval_formula(phi, assignment):
    """Oracle evaluator: one interpretation at a time, plain recursion."""
    if isinstance(phi, Atom):
        return assignment[phi.name]
    if isinstance(phi, Const):
        return phi.value
    if isinstance(phi, Not):
        return not eval_formula(phi.operand, assignment)
    left, right = eval_formula(phi.left, assignment), eval_formula(phi.right, assignment)
    if isinstance(phi, And):
        return left and right
    if isinstance(phi, Or):
        return left or right
    if isinstance(phi, Implies):
        return (not left) or right
    return left == right


def oracle_models(phi, universe):
    masks = []
    for bits in itertools.product((0, 1), repeat=len(universe)):
        assignment = dict(zip(universe.atoms, bits))
        if eval_formula(phi, assignment):
            masks.append(sum(b << i for i, b in enumerate(bits)))
    return ModelSet(universe, masks)


class TestParse:
    def test_negative_clause(self):
        assert parse("!a | !b", U2) == Or(Not(Atom("a")), Not(Atom("b")))

    def test_example_merge_result(self):
        phi = parse("(a | b) & (!a | !b)", U2)
        assert phi == And(Or(Atom("a"), Atom("b")), Or(Not(Atom("a")), Not(Atom("b"))))

    def test_constants(self):
        assert parse("T", U2) is TOP
        assert parse("F", U2) is BOTTOM

    def test_precedence(self):
        assert parse("a & b | c", U3) == Or(And(Atom("a"), Atom("b")), Atom("c"))
        assert parse("!a & b", U2) == And(Not(Atom("a")), Atom("b"))
        assert parse("a -> b -> c", U3) == Implies(Atom("a"), Implies(Atom("b"), Atom("c")))
        assert parse("a <-> b -> c", U3) == Iff(Atom("a"), Implies(Atom("b"), Atom("c")))
        assert parse("a | b <-> c", U3) == Iff(Or(Atom("a"), Atom("b")), Atom("c"))

    def test_left_associativity(self):
        assert parse("a & b & c", U3) == And(And(Atom("a"), Atom("b")), Atom("c"))

    def test_atom_names_with_digits(self):
        u = Universe(("x1", "y_2"))
        assert parse("x1 & y_2", u) == And(Atom("x1"), Atom("y_2"))

    @pytest.mark.parametrize("bad,pos", [("a &", 3), ("(a", 2), ("a b", 2), (")", 0)])
    def test_syntax_errors_carry_position(self, bad, pos):
        with pytest.raises(ParseError) as exc:
            parse(bad, U2)
        assert exc.value.position == pos

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse("a @ b", U2)

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtomError) as exc:
            parse("a & z", U2)
        assert exc.value.name == "z"


class TestModels:
    def test_example_constraint(self):
        assert models(parse("!a | !b", U2), U2) == ms(U2, "", "a", "b")

    def test_contradiction(self):
        assert models(BOTTOM, U2) == ModelSet(U2)

    def test_example_merge_formula(self):
        assert models(parse("(a | b) & (!a | !b)", U2), U2) == ms(U2, "a", "b")

    def test_tautology_has_all_models(self):
        assert models(TOP, U2) == ModelSet.full(U2)

    def test_against_oracle_on_fixed_formulas(self):
        texts = [
            "a -> (b <-> !c)",
            "!(a & b) | c",
            "a <-> a",
            "(a -> b) & (b -> c) & !c",
            "F | !a & T",
        ]
        for text in texts:
            phi = parse(text, U3)
            assert models(phi, U3) == oracle_models(phi, U3)

    def test_universe_cap(self):
        big = Universe([f"x{i}" for i in range(17)])
        with pytest.raises(UniverseTooLargeError):
            models(TOP, big)

    def test_unknown_atom_at_evaluation(self):
        with pytest.raises(UnknownAtomError):
            models(Atom("zz"), U2)


class TestClassify:
    def test_negative_clause_is_both(self):
        result = classify(parse("!a | !b", U2))
        assert result.verdict == "both"
        assert result.clauses[0][1] is ClauseKind.BOTH

    def test_positive_pair_is_krom_only(self):
        result = classify(parse("a | b", U2))
        assert result.verdict == "krom"
        assert result.krom and not result.horn

    def test_wide_clause_is_general(self):
        result = classify(parse("a | b | !c", U3))
        assert result.verdict == "general"
        assert result.clauses[0][1] is ClauseKind.GENERAL

    def test_mixed_cnf(self):
        result = classify(parse("(!a | !b) & (a | b | !c)", U3))
        assert result.verdict == "general"
        kinds = [k for _, k in result.clauses]
        assert kinds == [ClauseKind.BOTH, ClauseKind.GENERAL]

    def test_horn_wide_clause(self):
        result = classify(parse("!a | !b | c", U3))
        assert result.verdict == "horn"

    def test_non_cnf(self):
        assert classify(parse("a -> b", U2)).verdict == "non-cnf"
        assert classify(parse("a & (b | (c & a))", U3)).verdict == "non-cnf"

    def test_constants(self):
        assert classify(TOP).verdict == "both"
        bottom = classify(BOTTOM)
        assert bottom.verdict == "both" and len(bottom.clauses) == 1

    def test_tautological_clause_is_still_classified(self):
        result = classify(parse("a | !a", U2))
        assert result.is_cnf
        assert result.clauses[0][0].is_tautological

    @pytest.mark.parametrize("fragment,beta", [(HORN, AND2), (KROM, MAJ3)])
    def test_classified_formulas_have_closed_models(self, fragment, beta):
        # every CNF built from fragment clauses over 3 atoms, up to 4 clauses
        pool = list(fragment_clauses(U3, fragment.clause_predicate))
        texts = [to_text(c.to_formula(U3)) for c in pool]
        for size in (1, 2, 3, 4):
            for combo in itertools.combinations(texts, size):
                phi = parse(" & ".join(f"({t})" for t in combo), U3)
                verdict = classify(phi)
                assert getattr(verdict, fragment.name)
                assert is_closed(beta, models(phi, U3))


class TestSynthesize:
    def test_horn_triangle(self):
        phi = synthesize(ms(U2, "", "a", "b"), HORN)
        assert to_text(phi) == "!a | !b"
        assert models(phi, U2) == ms(U2, "", "a", "b")

    def test_krom_exclusive_pair(self):
        target = ms(U2, "a", "b")
        phi = synthesize(target, KROM)
        assert models(phi, U2) == target
        assert classify(phi).krom

    def test_not_closed_raises_with_witness(self):
        with pytest.raises(NotClosedError) as exc:
            synthesize(ms(U2, "a", "b"), HORN)
        args, img = exc.value.witness
        assert img == U2.interpretation("")

    def test_empty_set_gives_contradiction(self):
        phi = synthesize(ModelSet(U2), HORN)
        assert models(phi, U2) == ModelSet(U2)

    def test_full_set_gives_tautology(self):
        phi = synthesize(ModelSet.full(U2), HORN)
        assert phi is TOP

    def test_fragment_without_clause_language(self):
        anonymous = Fragment("pointwise-and", AND2, None)
        with pytest.raises(NoSyntacticFragmentError):
            synthesize(ms(U2, "", "a"), anonymous)

    def test_mismatched_clause_predicate_detected(self):
        # maj3-closed set that no conjunction of Horn clauses can pin down
        from fragmerge.formula import is_horn_clause

        broken = Fragment("bad", MAJ3, is_horn_clause)
        with pytest.raises(NoSyntacticFragmentError):
            synthesize(ms(U2, "a", "b"), broken)

    def test_minimize_drops_entailed_clauses(self):
        target = ms(U2, "")
        full = synthesize(target, HORN)
        small = synthesize(target, HORN, minimize=True)
        assert models(small, U2) == target
        assert len(classify(small).clauses) < len(classify(full).clauses)

    @pytest.mark.parametrize("fragment", [HORN, KROM])
    def test_round_trip_two_atoms(self, fragment):
        for mset in closed_model_sets(fragment.beta, U2):
            assert models(synthesize(mset, fragment), U2) == mset

    @pytest.mark.parametrize("fragment", [HORN, KROM])
    def test_formula_round_trip_three_atoms(self, fragment):
        # models(synthesize(models(phi))) == models(phi) for fragment CNFs
        pool = list(fragment_clauses(U3, fragment.clause_predicate))[:10]
        for size in (1, 2, 3):
            for combo in itertools.combinations(pool, size):
                phi = _conjoin_clauses(combo)
                target = models(phi, U3)
                if not target:
                    continue
                assert models(synthesize(target, fragment), U3) == target

    @pytest.mark.parametrize("fragment", [HORN, KROM])
    @pytest.mark.parametrize("minimize", [False, True])
    def test_matches_slow_synthesize_on_every_closed_set(self, fragment, minimize):
        # Atom order differs from name order: pool order sorts literals by
        # name, the printed clauses by universe index.
        counts = {"horn": 121, "krom": 165}
        for universe in (Universe("ba"), Universe("cab")):
            sets = closed_model_sets(fragment.beta, universe, include_empty=True)
            if len(universe) == 3:
                assert len(sets) == counts[fragment.name] + 1
            for mset in sets:
                fast = synthesize(mset, fragment, minimize=minimize)
                slow = slow_synthesize(mset, fragment, minimize=minimize)
                assert to_text(fast) == to_text(slow)

    @settings(max_examples=60, deadline=None)
    @given(
        fragment=st.sampled_from([HORN, KROM]),
        minimize=st.booleans(),
        masks=st.sets(st.integers(0, 15), min_size=1, max_size=6),
    )
    def test_matches_slow_synthesize_at_four_atoms(self, fragment, minimize, masks):
        universe = Universe("dbca")
        mset = closure(fragment.beta, ModelSet(universe, masks))
        fast = synthesize(mset, fragment, minimize=minimize)
        assert to_text(fast) == to_text(slow_synthesize(mset, fragment, minimize=minimize))

    def test_long_horn_pool_at_eight_atoms(self):
        # 1192 Horn clauses hold in both models; the unminimized conjunction
        # is a left-deep chain deeper than the default recursion limit.
        u = Universe("abcdefgh")
        target = ms(u, "beh", "abeh")
        phi = synthesize(target, HORN)
        assert len(classify(phi).clauses) == 1192
        assert models(phi, u) == target
        assert models(parse(to_text(phi), u), u) == target


class TestClausePoolAgainstFullScan:
    """The Krom pool from the clauses of at most two literals, the Horn pool
    from the shapes with at most one positive literal, and the walk over
    all shapes that any other predicate gets, against the 3^n scan: equal
    key for key and table for table."""

    @staticmethod
    def pools(universe, predicate, bits):
        full = (1 << (1 << len(universe))) - 1
        fast = sorted(_clause_pool(universe, predicate, bits, full))
        return fast, sorted(slow_clause_pool(universe, predicate, bits, full))

    @pytest.mark.parametrize("fragment", [HORN, KROM])
    def test_every_closed_set_up_to_three_atoms(self, fragment):
        for atoms in ("a", "ba", "cab"):
            universe = Universe(atoms)
            for mset in closed_model_sets(fragment.beta, universe, include_empty=True):
                fast, slow = self.pools(universe, fragment.clause_predicate, mset.bits)
                assert fast == slow

    def test_other_predicate_sees_every_shape(self):
        def at_most_one_negative(clause):
            return sum(1 for _, pos in clause.literals if not pos) <= 1

        for mset in list(closed_model_sets(AND2, Universe("cab"), include_empty=True))[::7]:
            fast, slow = self.pools(mset.universe, at_most_one_negative, mset.bits)
            assert fast == slow

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        fragment=st.sampled_from([HORN, KROM]),
    )
    def test_random_closed_sets_four_to_six_atoms(self, data, fragment):
        n = data.draw(st.integers(4, 6))
        universe = Universe(data.draw(st.permutations("abcdef"[:n])))
        masks = data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
        mset = closure(fragment.beta, ModelSet(universe, masks))
        fast, slow = self.pools(universe, fragment.clause_predicate, mset.bits)
        assert fast == slow


def _conjoin_clauses(clauses):
    node = clauses[0].to_formula(U3)
    for clause in clauses[1:]:
        node = And(node, clause.to_formula(U3))
    return node


def formulas(universe):
    atoms = st.sampled_from([Atom(a) for a in universe.atoms])
    consts = st.sampled_from([TOP, BOTTOM])
    return st.recursive(
        atoms | consts,
        lambda inner: st.one_of(
            inner.map(Not),
            st.tuples(inner, inner).map(lambda p: And(*p)),
            st.tuples(inner, inner).map(lambda p: Or(*p)),
            st.tuples(inner, inner).map(lambda p: Implies(*p)),
            st.tuples(inner, inner).map(lambda p: Iff(*p)),
        ),
        max_leaves=12,
    )


class TestPrinter:
    def test_minimal_parentheses(self):
        cases = [
            ("a & b | c", "a & b | c"),
            ("(a | b) & c", "(a | b) & c"),
            ("!(a & b)", "!(a & b)"),
            ("a & (b & c)", "a & (b & c)"),
            ("a -> b -> c", "a -> b -> c"),
            ("(a -> b) -> c", "(a -> b) -> c"),
        ]
        for text, expected in cases:
            assert to_text(parse(text, U3)) == expected

    @pytest.mark.parametrize("op", ["&", "|", "->", "<->"])
    def test_long_flat_chain(self, op):
        # Deeper than the default recursion limit.  An even number of a's
        # chained by -> or <-> is valid.
        text = f" {op} ".join(["a"] * 1200)
        phi = parse(text, U2)
        assert to_text(phi) == text
        if op in ("&", "|"):
            assert models(phi, U2) == ms(U2, "a", "ab")
            assert classify(phi).verdict == "both"
        else:
            assert models(phi, U2) == ModelSet.full(U2)

    @pytest.mark.parametrize("count", [1200, 1201])
    def test_long_negation_run(self, count):
        text = "!" * count + "(a & b)"
        phi = parse(text, U2)
        assert to_text(phi) == text
        assert models(phi, U2) == (ms(U2, "ab") if count % 2 == 0 else ms(U2, "", "a", "b"))

    def test_parentheses_nested_too_deep(self):
        assert parse("(" * 64 + "a" + ")" * 64, U2) == parse("a", U2)
        with pytest.raises(ParseError, match="nested more than 64 deep"):
            parse("(" * 65 + "a" + ")" * 65, U2)

    @settings(max_examples=300, deadline=None)
    @given(phi=formulas(U3))
    def test_print_parse_identity(self, phi):
        assert parse(to_text(phi), U3) == phi

    @settings(max_examples=150, deadline=None)
    @given(phi=formulas(U3))
    def test_printed_formula_keeps_models(self, phi):
        assert models(parse(to_text(phi), U3), U3) == oracle_models(phi, U3)
