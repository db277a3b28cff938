import copy
import functools
import itertools
import operator
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fragmerge.formula
from fragmerge import (
    AND2,
    HORN,
    KROM,
    MAJ3,
    Classification,
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
from fragmerge.formula import (
    And, Atom, Clause, Const, Iff, Implies, Not, Or, TOP, BOTTOM, _clause_pool,
)
from helpers import (
    U2,
    U3,
    all_model_sets,
    fragment_clauses,
    greedy_synthesize,
    is_tautological,
    ms,
    slow_clause_pool,
    slow_parse,
    slow_synthesize,
    slow_truth_bits,
)


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

    @pytest.mark.parametrize(
        "bad,pos",
        [("a &", 3), ("(a", 2), ("a b", 2), (")", 0), ("a &\x0cb", 3), ("a & \xa0b", 4)],
    )
    def test_syntax_errors_carry_position(self, bad, pos):
        with pytest.raises(ParseError) as exc:
            parse(bad, U2)
        assert exc.value.position == pos

    @pytest.mark.parametrize(
        "text,char", [("a &\x0cb", "\x0c"), ("a & \xa0b", "\xa0"), ("\x0ca", "\x0c")]
    )
    def test_rejected_whitespace_is_named(self, text, char):
        # Only spaces, tabs and line breaks separate tokens; other
        # whitespace is accepted after the last token only.
        with pytest.raises(ParseError) as exc:
            parse(text, U2)
        assert str(exc.value).startswith(f"unexpected character {char!r} ")
        assert exc.value.position == text.index(char)
        assert parse("a \x0c\xa0 ", U2) == Atom("a")

    def test_bad_character_wins_over_earlier_syntax_error(self):
        with pytest.raises(ParseError, match="unexpected character '\\$'") as exc:
            parse(") & z $", U2)
        assert exc.value.position == 6

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse("a @ b", U2)

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtomError) as exc:
            parse("a & z", U2)
        assert exc.value.name == "z"


class TestNodes:
    A, B = Atom("a"), Atom("b")

    def test_repr(self):
        phi = Iff(Or(Not(self.A), TOP), Implies(And(self.B, BOTTOM), self.A))
        assert repr(phi) == (
            "Iff(left=Or(left=Not(operand=Atom(name='a')), right=Const(value=True)), "
            "right=Implies(left=And(left=Atom(name='b'), right=Const(value=False)), "
            "right=Atom(name='a')))"
        )

    def test_equality_includes_the_connective(self):
        assert And(self.A, self.B) != Or(self.A, self.B)
        assert Implies(self.A, self.B) != Iff(self.A, self.B)
        assert Not(self.A) != Atom("a")
        assert Const(True) == TOP and Const(False) != TOP

    def test_equal_trees_hash_alike(self):
        first = Iff(Or(Not(Atom("a")), Atom("b")), TOP)
        second = Iff(Or(Not(Atom("a")), Atom("b")), Const(True))
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert len({first, second, Iff(Or(Not(Atom("a")), Atom("b")), BOTTOM)}) == 2

    @pytest.mark.parametrize("field", ["name", "value", "operand", "left", "right", "extra"])
    def test_nodes_are_immutable(self, field):
        nodes = [Atom("a"), TOP, Not(self.A), And(self.A, self.B), Or(self.A, self.B),
                 Implies(self.A, self.B), Iff(self.A, self.B)]
        for node in nodes:
            with pytest.raises(AttributeError):
                setattr(node, field, self.B)

    def test_copy_and_pickle_round_trip(self):
        phi = Implies(Not(And(self.A, TOP)), Iff(self.B, self.A))
        assert copy.deepcopy(phi) == phi
        assert pickle.loads(pickle.dumps(phi)) == phi


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
        # Every universe can be enumerated: the cap is checked when it is made.
        assert len(models(TOP, Universe([f"x{i}" for i in range(16)]))) == 1 << 16
        with pytest.raises(UniverseTooLargeError):
            Universe([f"x{i}" for i in range(17)])

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

    def test_clause_and_classification_records(self):
        # Records compare, hash, print and pickle by their fields, and are immutable.
        result = classify(parse("!a | b", U2))
        clause = result.clauses[0][0]
        assert repr(clause) in ("Clause(literals=frozenset({('a', False), ('b', True)}))",
                                "Clause(literals=frozenset({('b', True), ('a', False)}))")
        assert repr(Classification(False, ())) == "Classification(is_cnf=False, clauses=())"
        assert str(clause) == "!a | b" and clause.positive_count == 1
        assert clause == Clause(frozenset({("b", True), ("a", False)})) != Clause(frozenset())
        again = classify(parse("b | !a", U2))
        assert result == again and hash(result) == hash(again)
        assert Clause(frozenset()) != Classification(True, ())
        for record in (clause, result):
            assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)
            with pytest.raises(AttributeError):
                record.literals = frozenset()

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
        assert is_tautological(result.clauses[0][0])

    @pytest.mark.parametrize("fragment,beta", [(HORN, AND2), (KROM, MAJ3)])
    def test_classified_formulas_have_closed_models(self, fragment, beta):
        # every CNF built from fragment clauses over 3 atoms, up to 4 clauses
        pool = list(fragment_clauses(U3, fragment))
        texts = [to_text(c.to_formula(U3)) for c in pool]
        for size in (1, 2, 3, 4):
            for combo in itertools.combinations(texts, size):
                phi = parse(" & ".join(f"({t})" for t in combo), U3)
                verdict = classify(phi)
                assert getattr(verdict, fragment.name)
                assert is_closed(beta, models(phi, U3))


class TestFragmentRows:
    def test_builtin_rows_admit_the_textbook_clauses(self):
        # Every clause over 3 atoms, each atom absent, positive, negative or
        # both: the empty clause and the tautologies included.  A Horn
        # clause has at most one positive literal, a Krom clause at most
        # two literals; a clause that is no tautology is one exactly when
        # its models are closed under AND, respectively majority.
        admitted = {"horn": 0, "krom": 0}
        for shape in itertools.product(((), (True,), (False,), (True, False)), repeat=3):
            clause = Clause(frozenset((name, pos) for name, signs in zip("abc", shape) for pos in signs))
            positives = [name for name, pos in clause.literals if pos]
            textbook = {"horn": len(positives) <= 1, "krom": len(clause.literals) <= 2}
            for fragment in (HORN, KROM):
                assert fragment.admits(clause) == textbook[fragment.name], (fragment.name, clause)
                admitted[fragment.name] += textbook[fragment.name]
                if not is_tautological(clause):
                    closed = is_closed(fragment.beta, models(clause.to_formula(U3), U3))
                    assert closed == textbook[fragment.name], (fragment.name, clause)
        assert admitted == {"horn": 32, "krom": 22}


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
        # The clause bounds are not compared; the name is.
        for unnamed_horn in (Fragment("horn", AND2), Fragment("horn", AND2, 2, 0)):
            assert unnamed_horn == HORN and not unnamed_horn != HORN
            assert hash(unnamed_horn) == hash(HORN)
        assert anonymous != HORN and not anonymous == HORN

    def test_mismatched_clause_bounds_detected(self):
        # maj3-closed set that no conjunction of Horn clauses can pin down
        broken = Fragment("bad", MAJ3, max_positive=1)
        with pytest.raises(NoSyntacticFragmentError):
            synthesize(ms(U2, "a", "b"), broken)

    def test_minimize_drops_entailed_clauses(self):
        target = ms(U2, "")
        small = synthesize(target, HORN)
        assert models(small, U2) == target
        assert len(classify(small).clauses) < len(_clause_pool(U2, HORN, target.bits)[0])

    @pytest.mark.parametrize("fragment", [HORN, KROM])
    def test_round_trip_two_atoms(self, fragment):
        for mset in closed_model_sets(fragment.beta, U2):
            assert models(synthesize(mset, fragment), U2) == mset

    @pytest.mark.parametrize("fragment", [HORN, KROM])
    def test_formula_round_trip_three_atoms(self, fragment):
        # models(synthesize(models(phi))) == models(phi) for fragment CNFs
        pool = list(fragment_clauses(U3, fragment))[:10]
        for size in (1, 2, 3):
            for combo in itertools.combinations(pool, size):
                phi = _conjoin_clauses(combo)
                target = models(phi, U3)
                if not target:
                    continue
                assert models(synthesize(target, fragment), U3) == target

    @pytest.mark.parametrize("fragment", [HORN, KROM])
    def test_matches_slow_synthesize_on_every_closed_set(self, fragment):
        # Atom order differs from name order: pool order sorts literals by
        # name, the printed clauses by universe index.
        counts = {("horn", 3): 121, ("krom", 3): 165, ("horn", 4): 4959, ("krom", 4): 4169}
        for atoms in ("a", "ba", "cab", ["d", "b", "ca", "a"]):
            universe = Universe(atoms)
            sets = (ModelSet(universe),) + closed_model_sets(fragment.beta, universe)
            if len(universe) >= 3:
                assert len(sets) == counts[fragment.name, len(universe)] + 1
            for mset in sets:
                assert to_text(synthesize(mset, fragment)) == to_text(slow_synthesize(mset, fragment))

    @settings(max_examples=60, deadline=None)
    @given(
        fragment=st.sampled_from([HORN, KROM]),
        masks=st.sets(st.integers(0, 15), min_size=1, max_size=6),
    )
    def test_matches_slow_synthesize_at_four_atoms(self, fragment, masks):
        universe = Universe("dbca")
        mset = closure(fragment.beta, ModelSet(universe, masks))
        assert to_text(synthesize(mset, fragment)) == to_text(slow_synthesize(mset, fragment))

    @settings(max_examples=60, deadline=None)
    @given(
        names=st.permutations(["a", "ab", "a_", "a1", "b", "ba"]),
        fragment=st.sampled_from([HORN, KROM]),
        masks=st.sets(st.integers(0, 15), min_size=1, max_size=6),
    )
    def test_matches_slow_synthesize_with_prefix_named_atoms(self, names, fragment, masks):
        # Atom names that are prefixes of one another, so the pool's key
        # order and the printed clauses' text order must agree on them.
        universe = Universe(names[:4])
        mset = closure(fragment.beta, ModelSet(universe, masks))
        assert to_text(synthesize(mset, fragment)) == to_text(slow_synthesize(mset, fragment))

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(5, 10),
        # Majority-closed sets under Horn clauses: some cannot be expressed.
        fragment=st.sampled_from([HORN, KROM, Fragment("maj3-horn", MAJ3, max_positive=1)]),
    )
    def test_matches_greedy_synthesize_at_five_to_ten_atoms(self, data, n, fragment):
        # The slow oracle is out of reach here (seconds per call at 7 atoms),
        # so the reference is the greedy pass over the whole pool's tables.
        universe = Universe(["j", "a", "ab", "i", "b", "h", "c", "g", "d", "f"][:n])
        masks = data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
        mset = closure(fragment.beta, ModelSet(universe, masks))
        try:
            expected = to_text(greedy_synthesize(mset, fragment))
        except NoSyntacticFragmentError:
            with pytest.raises(NoSyntacticFragmentError):
                synthesize(mset, fragment)
        else:
            assert to_text(synthesize(mset, fragment)) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        names=st.permutations(["ab", "a", "b_1", "ba", "a_", "b", "abc", "a1", "bb", "c", "ca", "b1"]),
    )
    def test_horn_reading_matches_greedy_synthesize_at_five_to_twelve_atoms(self, data, names):
        # Multi-character names that share prefixes, in an order that is
        # not name order: the last falsified clause's positive atom is
        # picked by name order, and the masks are renamed into it.
        n = data.draw(st.integers(5, 12))
        universe = Universe(names[:n])
        assume(list(universe.atoms) != sorted(universe.atoms))
        masks = data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
        mset = closure(AND2, ModelSet(universe, masks))
        assert to_text(synthesize(mset, HORN)) == to_text(greedy_synthesize(mset, HORN))

    def test_horn_row_reads_no_clause_pool(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the Horn row walked the clause pool")

        monkeypatch.setattr(fragmerge.formula, "_clause_pool", refuse)
        assert to_text(synthesize(ms(U2, "", "a", "b"), HORN)) == "!a | !b"
        for universe in (Universe("cab"), Universe(["ab", "a", "b_"])):
            for mset in closed_model_sets(AND2, universe):
                assert models(synthesize(mset, HORN), universe) == mset

    @pytest.mark.parametrize("fragment, atoms, members, expected", [
        # Majority-closed sets, so the AND-closed reading does not apply.
        (Fragment("maj3-horn", MAJ3, max_positive=1), "cab", ("", "a", "ab"),
         "(a | !b) & (!c | b) & (!c | !a | !b)"),
        (Fragment("maj3-horn", MAJ3, max_positive=1), "cab", ("", "b"),
         "(c | !a) & (!c | b) & (!c | !a | !b) & (!c | a | !b)"),
        # README's row: the size bound keeps the 3-literal clauses out.
        (Fragment("binary-horn", AND2, max_literals=2, max_positive=1), "cab", ("", "a", "ab"),
         "(!c | !b) & (a | !b) & (!c | b)"),
        (Fragment("binary-horn", AND2, max_literals=2, max_positive=1), "cab", ("", "b"),
         "(c | !a) & (!c | !b) & (!c | b)"),
    ])
    def test_other_rows_walk_the_clause_pool(self, monkeypatch, fragment, atoms, members, expected):
        calls = []

        def counted(*args):
            calls.append(args[1].name)
            return _clause_pool(*args)

        monkeypatch.setattr(fragmerge.formula, "_clause_pool", counted)
        u = Universe(atoms)
        mset = closure(fragment.beta, ModelSet.from_sets(u, *members))
        assert to_text(synthesize(mset, fragment)) == expected
        assert calls == [fragment.name]

    def test_an_atom_name_that_parse_cannot_read_is_refused(self):
        # Over an atom named `!a`, the text `!!a` of its negation would read
        # back as a double negation of `a`.
        with pytest.raises(ValueError, match=r"^atom name '!a' does not match \[a-z\]\[a-z0-9_\]\*$"):
            Universe(("b", "!a", "a"))

    def test_long_horn_pool_at_eight_atoms(self):
        # 1192 Horn clauses hold in both models; the minimizing pass keeps 14.
        u = Universe("abcdefgh")
        target = ms(u, "beh", "abeh")
        phi = synthesize(target, HORN)
        assert len(_clause_pool(u, HORN, target.bits)[0]) == 1192
        assert len(classify(phi).clauses) == 14
        assert models(phi, u) == target
        assert models(parse(to_text(phi), u), u) == target


class TestClausePoolAgainstFullScan:
    """The Krom pool from the clauses of at most two literals, the Horn pool
    from the shapes with at most one positive literal, and the pools of
    bounds that no builtin fragment uses, against the 3^n scan: equal key
    for key and table for table."""

    @staticmethod
    def pools(universe, fragment, bits):
        # The pool's keys decoded to ((size, text), table, clause), in key order.
        keys, literals = _clause_pool(universe, fragment, bits)
        full = (1 << (1 << len(universe))) - 1
        fast = []
        for key in keys:
            lits = [literals[r] for r in key[1:]]
            text = " | ".join(name if pos else f"!{name}" for name, pos, _ in lits)
            table = full ^ functools.reduce(operator.and_, (f for _, _, f in lits), full)
            clause = Clause(frozenset((name, pos) for name, pos, _ in lits))
            fast.append(((key[0], text), table, clause))
        return fast, sorted(slow_clause_pool(universe, fragment, bits, full))

    @pytest.mark.parametrize("fragment", [HORN, KROM])
    def test_every_closed_set_up_to_three_atoms(self, fragment):
        for atoms in ("a", "ba", "cab"):
            universe = Universe(atoms)
            for mset in (ModelSet(universe),) + closed_model_sets(fragment.beta, universe):
                fast, slow = self.pools(universe, fragment, mset.bits)
                assert fast == slow

    @pytest.mark.parametrize("bounds", [(2, 1), (3, None), (None, 0), (1, None), (0, 0)])
    def test_other_bounds_match_the_full_scan(self, bounds):
        fragment = Fragment("other", AND2, *bounds)
        for atoms in ("a", "ba", "cab"):
            for mset in all_model_sets(Universe(atoms)):
                fast, slow = self.pools(mset.universe, fragment, mset.bits)
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
        fast, slow = self.pools(universe, fragment, mset.bits)
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


# Atoms in and out of the universe, constants, connectives, parentheses,
# separators, and characters no token starts with.
PARSE_UNIVERSE = Universe(("a", "b", "c", "x1"))
TOKENS = ("a", "b", "c", "x1", "z", "q_2", "T", "F", "!", "&", "|", "->", "<->", "(", ")",
          " ", " ", "\t", "\n", "$", "-", "<", ">", "1", "_", "\x0c", "\xa0")


def parse_outcome(parser, text, universe=PARSE_UNIVERSE):
    try:
        return "tree", repr(parser(text, universe))
    except (ParseError, UnknownAtomError) as exc:
        return type(exc).__name__, str(exc), exc.position


class TestParseAgainstSlowParser:
    """`parse` against the recursive-descent oracle: the same tree, or the
    same exception type, message and position."""

    @settings(max_examples=1000, deadline=None)
    @given(parts=st.lists(st.sampled_from(TOKENS), max_size=30))
    def test_token_strings(self, parts):
        text = "".join(parts)
        assert parse_outcome(parse, text) == parse_outcome(slow_parse, text)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_printed_formulas_with_a_splice(self, data):
        # Near-valid text: a printed formula with one span replaced by a few
        # tokens, so errors also come late in the input.
        text = to_text(data.draw(formulas(PARSE_UNIVERSE)))
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, len(text)))
        splice = "".join(data.draw(st.lists(st.sampled_from(TOKENS), max_size=3)))
        text = text[:i] + splice + text[j:]
        assert parse_outcome(parse, text) == parse_outcome(slow_parse, text)

    @pytest.mark.parametrize(
        "text",
        [
            "(" * 64 + "a" + ")" * 64,
            "(" * 65 + "a" + ")" * 65,
            "!(" * 64 + "a" + ")" * 64,
            "(" * 64 + "a" + ")" * 63,
            "!" * 5000 + "a",
            "!" * 5001 + "(a)",
            " & ".join(["a"] * 10_000),
            " | ".join(["!a"] * 10_000),
            " -> ".join(["a"] * 10_000),
            "<->".join(["b"] * 10_000),
            " -> ".join(["a & b"] * 5_000) + " -> !",
            " " * 50_000 + "$",
            "a" + " \t" * 25_000 + "\x0c$",
        ],
        ids=["nest-64", "nest-65", "negated-nest-64", "unclosed-64", "not-5000",
             "not-5001-group", "and-chain", "or-chain", "implies-chain", "iff-chain",
             "chain-error-at-end", "long-blank-then-bad", "long-separators-then-bad"],
    )
    def test_deep_nesting_and_long_chains(self, text):
        # Trees this deep are compared by their printed text and models: a
        # nested repr or == recurses once per level.  The long blank runs
        # take quadratic time if the text check backtracks over whitespace.
        results = []
        for parser in (parse, slow_parse):
            try:
                phi = parser(text, U2)
            except ParseError as exc:
                results.append((str(exc), exc.position))
            else:
                results.append((to_text(phi), models(phi, U2).bits))
        assert results[0] == results[1]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_models_match_slow_truth_bits(self, data):
        universe = Universe("abcdefgh"[:data.draw(st.integers(1, 8))])
        phi = data.draw(formulas(universe))
        assert models(phi, universe).bits == slow_truth_bits(phi, universe)
