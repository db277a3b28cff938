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
    Cnf,
    Fragment,
    ModelSet,
    NoSyntacticFragmentError,
    NotClosedError,
    ParseError,
    UnknownAtomError,
    Universe,
    UniverseTooLargeError,
    closed_model_sets,
    closure,
    is_closed,
    models,
    parse,
    synthesize,
    truth_table,
)
from fragmerge.formula import (
    MAX_NESTING, And, Atom, Const, Iff, Implies, Not, Or, TOP, BOTTOM, _clause_pool, _horn_tables,
    _pool_size, _row_pool,
)
from helpers import (
    U2,
    U3,
    all_model_sets,
    conjoin,
    fragment_clauses,
    greedy_synthesize,
    holding_pool,
    is_tautological,
    ms,
    slow_clause_pool,
    slow_parse,
    slow_synthesize,
    slow_truth_bits,
    slow_verdict,
    to_text,
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

    @pytest.mark.parametrize("reader", [parse, truth_table])
    @pytest.mark.parametrize("text", [") & z $", "a a $", "z $", "(a b $", "(" * 65 + "$"],
                             ids=["no-operand", "trailing-input", "unknown-atom", "unclosed", "nest-65"])
    def test_bad_character_wins_in_every_error_branch(self, reader, text):
        # The reader meets another error first, at or before the `$`.
        with pytest.raises(ParseError, match="unexpected character '\\$'") as exc:
            reader(text, U2)
        assert exc.value.position == text.index("$")

    @pytest.mark.parametrize("reader", [parse, truth_table])
    @pytest.mark.parametrize("text", ["", " ", "\t\n", "\x0c", " \xa0", "\u3000\u2028"])
    def test_a_blank_text_ends_at_its_length(self, reader, text):
        with pytest.raises(ParseError, match="^unexpected end of input ") as exc:
            reader(text, U2)
        assert exc.value.position == len(text)

    @pytest.mark.parametrize("space", ["\x0c", "\xa0", "\x0b", "\x85", "\u3000"])
    def test_any_whitespace_may_end_the_text(self, space):
        assert parse("a" + space, U2) == Atom("a")
        assert truth_table("!a" + space, U2) == truth_table("!a", U2)

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

    @pytest.mark.parametrize("build", [
        lambda leaf: functools.reduce(lambda phi, _: Not(phi), range(5000), Atom(leaf)),
        lambda leaf: functools.reduce(And, [Atom(leaf)] + [Atom(f"x{i}") for i in range(4999)]),
    ], ids=["not-run-5000", "and-chain-5000"])
    def test_deep_trees_compare_and_hash(self, build):
        # Far deeper than the recursion limit; the trees differ at most in
        # their deepest leaf.
        first, second, other = build("a"), build("a"), build("b")
        assert first == second and not first != second
        assert first != other and not first == other
        assert hash(first) == hash(second)
        assert len({first, second, other}) == 2


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

    @pytest.mark.parametrize("phi, item", [("a", "'a'"), (None, "None"), (Not("a"), "'a'"),
                                           (And(Atom("a"), 5), "5")])
    def test_a_non_node_is_refused(self, phi, item):
        with pytest.raises(TypeError, match=f"^not a formula node: {item}$"):
            models(phi, U2)

    @pytest.mark.parametrize("build, field", [
        (lambda: Atom(Not), "an atom name is a str, got <class 'fragmerge.formula.Not'>"),
        (lambda: Const(And), "a constant's value is a bool, got <class 'fragmerge.formula.And'>"),
        (lambda: Atom(Atom("a")), "an atom name is a str, got Atom(name='a')"),
        (lambda: Const("x"), "a constant's value is a bool, got 'x'"),
    ], ids=["atom-of-class", "const-of-class", "atom-of-atom", "const-of-str"])
    def test_a_leaf_field_is_checked_when_the_node_is_built(self, build, field):
        # `models` reads leaf fields off the pre-order walk, where a node class
        # or node in a leaf would pass for an operator or an operand.
        with pytest.raises(TypeError) as caught:
            build()
        assert str(caught.value) == field


class TestCnf:
    @pytest.mark.parametrize("clauses, text, verdict", [
        ((), "T", "both"),
        (((),), "F", "both"),
        (((("a", False), ("b", False)),), "!a | !b", "both"),
        (((("a", True), ("b", True)),), "a | b", "krom"),
        (((("a", True), ("b", True), ("c", False)),), "a | b | !c", "general"),
        (((("a", False), ("b", False), ("c", True)),), "!a | !b | c", "horn"),
        (((("a", False), ("b", False)), (("a", True), ("b", True), ("c", False))),
         "(!a | !b) & (a | b | !c)", "general"),
        (((("a", True),), (), (("b", True), ("c", True))), "a & F & (b | c)", "krom"),
        # A tautological clause is printed and classified like any other.
        (((("a", True), ("a", False)),), "a | !a", "both"),
    ])
    def test_text_and_verdict(self, clauses, text, verdict):
        cnf = Cnf(clauses)
        assert (str(cnf), cnf.verdict) == (text, verdict)
        assert str(cnf) == to_text(conjoin(clauses))

    def test_record(self):
        # Compares, hashes, prints and pickles by its clauses, in order.
        cnf = Cnf(((("a", False), ("b", True)),))
        assert repr(cnf) == "Cnf(clauses=((('a', False), ('b', True)),))"
        again = Cnf(((("a", False), ("b", True)),))
        assert cnf == again and hash(cnf) == hash(again)
        assert cnf != Cnf(((("b", True), ("a", False)),))
        assert pickle.loads(pickle.dumps(cnf)) == cnf == copy.deepcopy(cnf)

    @pytest.mark.parametrize("fragment", [HORN, KROM])
    def test_fragment_cnfs_have_closed_models(self, fragment):
        # every CNF built from fragment clauses over 3 atoms, up to 4 clauses
        pool = list(fragment_clauses(U3, fragment))
        for size in (1, 2, 3, 4):
            for combo in itertools.combinations(pool, size):
                cnf = Cnf(combo)
                assert cnf.verdict in (fragment.name, "both")
                assert is_closed(fragment.beta, ModelSet.from_bits(U3, truth_table(str(cnf), U3)))


class TestFragmentRows:
    def test_builtin_rows_admit_the_textbook_clauses(self):
        # Every clause over 3 atoms, each atom absent, positive, negative or
        # both: the empty clause and the tautologies included.  A Horn
        # clause has at most one positive literal, a Krom clause at most
        # two literals; a clause that is no tautology is one exactly when
        # its models are closed under AND, respectively majority.
        admitted = {"horn": 0, "krom": 0}
        for shape in itertools.product(((), (True,), (False,), (True, False)), repeat=3):
            clause = tuple((name, pos) for name, signs in zip("abc", shape) for pos in signs)
            positives = [name for name, pos in clause if pos]
            textbook = {"horn": len(positives) <= 1, "krom": len(clause) <= 2}
            for fragment in (HORN, KROM):
                assert fragment.admits(clause) == textbook[fragment.name], (fragment.name, clause)
                admitted[fragment.name] += textbook[fragment.name]
                if not is_tautological(clause):
                    closed = is_closed(fragment.beta, models(conjoin([clause]), U3))
                    assert closed == textbook[fragment.name], (fragment.name, clause)
        assert admitted == {"horn": 32, "krom": 22}
        # Literals are counted as given: `a | !a` has two.
        assert not Fragment("unit", AND2, max_literals=1).admits((("a", True), ("a", False)))


class TestSynthesize:
    def test_horn_triangle(self):
        cnf = synthesize(ms(U2, "", "a", "b"), HORN)
        assert cnf == Cnf(((("a", False), ("b", False)),)) and str(cnf) == "!a | !b"
        assert truth_table(str(cnf), U2) == ms(U2, "", "a", "b").bits

    def test_krom_exclusive_pair(self):
        target = ms(U2, "a", "b")
        cnf = synthesize(target, KROM)
        assert truth_table(str(cnf), U2) == target.bits
        assert cnf.verdict in ("krom", "both")

    def test_not_closed_raises_with_witness(self):
        with pytest.raises(NotClosedError) as exc:
            synthesize(ms(U2, "a", "b"), HORN)
        args, img = exc.value.witness
        assert img == U2.interpretation("")

    @pytest.mark.parametrize("fragment, text", [
        (HORN, "b & !b"),
        (KROM, "b & !b"),
        (Fragment("binary-horn", AND2, max_literals=2, max_positive=1), "b & !b"),
        (Fragment("maj3-horn", MAJ3, max_positive=1), "b & !b"),
        # Rows that do not admit the unit clause `b` get the empty clause.
        (Fragment("neg", AND2, max_positive=0), "F"),
        (Fragment("z", MAJ3, max_literals=0), "F"),
    ])
    def test_empty_set_gives_contradiction(self, fragment, text):
        u = Universe("ba")
        cnf = synthesize(ModelSet(u), fragment)
        assert str(cnf) == text and truth_table(text, u) == 0
        assert all(fragment.admits(clause) for clause in cnf.clauses)

    def test_full_set_gives_tautology(self):
        cnf = synthesize(ModelSet.full(U2), HORN)
        assert cnf == Cnf(()) and str(cnf) == "T"

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
        assert truth_table(str(small), U2) == target.bits
        assert len(small.clauses) < len(holding_pool(U2, HORN, target.bits)[0])

    @pytest.mark.parametrize("fragment", [HORN, KROM])
    def test_round_trip_two_atoms(self, fragment):
        for mset in closed_model_sets(fragment.beta, U2):
            assert truth_table(str(synthesize(mset, fragment)), U2) == mset.bits

    @pytest.mark.parametrize("fragment", [HORN, KROM])
    def test_formula_round_trip_three_atoms(self, fragment):
        # models(synthesize(models(phi))) == models(phi) for fragment CNFs
        pool = list(fragment_clauses(U3, fragment))[:10]
        for size in (1, 2, 3):
            for combo in itertools.combinations(pool, size):
                target = models(conjoin(combo), U3)
                if not target:
                    continue
                assert truth_table(str(synthesize(target, fragment)), U3) == target.bits

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
                assert synthesize(mset, fragment) == slow_synthesize(mset, fragment)

    @settings(max_examples=60, deadline=None)
    @given(
        fragment=st.sampled_from([HORN, KROM]),
        masks=st.sets(st.integers(0, 15), min_size=1, max_size=6),
    )
    def test_matches_slow_synthesize_at_four_atoms(self, fragment, masks):
        universe = Universe("dbca")
        mset = closure(fragment.beta, ModelSet(universe, masks))
        assert synthesize(mset, fragment) == slow_synthesize(mset, fragment)

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
        assert synthesize(mset, fragment) == slow_synthesize(mset, fragment)

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
            expected = greedy_synthesize(mset, fragment)
        except NoSyntacticFragmentError:
            with pytest.raises(NoSyntacticFragmentError):
                synthesize(mset, fragment)
        else:
            assert synthesize(mset, fragment) == expected

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
        assert synthesize(mset, HORN) == greedy_synthesize(mset, HORN)

    def test_horn_row_reads_no_clause_pool(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the Horn row walked the clause pool")

        monkeypatch.setattr(fragmerge.formula, "_clause_pool", refuse)
        _row_pool.cache_clear()
        assert str(synthesize(ms(U2, "", "a", "b"), HORN)) == "!a | !b"
        for universe in (Universe("cab"), Universe(["ab", "a", "b_"])):
            for mset in closed_model_sets(AND2, universe):
                assert truth_table(str(synthesize(mset, HORN)), universe) == mset.bits

    def test_horn_tables_are_kept_for_the_last_four_universes(self):
        # At any size, as the other rows' pools are: a second set over a
        # 13-atom universe reads the tables the first one built.
        assert _horn_tables.cache_info().maxsize == _row_pool.cache_info().maxsize == 4
        u = Universe("abcdefghijklm")
        _horn_tables.cache_clear()
        for members in (("a", "ab"), ("b", "bcm")):
            mset = closure(AND2, ModelSet.from_sets(u, *members))
            assert truth_table(str(synthesize(mset, HORN)), u) == mset.bits
        assert (_horn_tables.cache_info().hits, _horn_tables.cache_info().misses) == (1, 1)

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
            calls.append(args[1:])
            return _clause_pool(*args)

        monkeypatch.setattr(fragmerge.formula, "_clause_pool", counted)
        _row_pool.cache_clear()
        u = Universe(atoms)
        mset = closure(fragment.beta, ModelSet.from_sets(u, *members))
        assert str(synthesize(mset, fragment)) == expected
        assert calls == [fragment[2:]]
        # The pool does not depend on the set: a second set over the same
        # universe and row walks no pool, another universe walks its own.
        assert synthesize(ModelSet.full(u), fragment) == Cnf(())
        assert str(synthesize(mset, fragment)) == expected
        assert calls == [fragment[2:]]
        synthesize(ModelSet.full(Universe("ab")), fragment)
        assert calls == [fragment[2:]] * 2

    def test_an_atom_name_that_parse_cannot_read_is_refused(self):
        # Over an atom named `!a`, the text `!!a` of its negation would read
        # back as a double negation of `a`.
        with pytest.raises(ValueError, match=r"^atom name '!a' does not match \[a-z\]\[a-z0-9_\]\*$"):
            Universe(("b", "!a", "a"))

    def test_long_horn_pool_at_eight_atoms(self):
        # 1192 Horn clauses hold in both models; the minimizing pass keeps 14.
        u = Universe("abcdefgh")
        target = ms(u, "beh", "abeh")
        cnf = synthesize(target, HORN)
        assert len(holding_pool(u, HORN, target.bits)[0]) == 1192
        assert len(cnf.clauses) == 14
        assert models(parse(str(cnf), u), u) == target


ROWS = [HORN, KROM, Fragment("binary-horn", AND2, max_literals=2, max_positive=1),
        Fragment("maj3-horn", MAJ3, max_positive=1), Fragment("neg", AND2, max_positive=0)]


class TestTextAndVerdict:
    """`merge` prints `str(synthesize(M, row))` and its `verdict`: both must
    equal the reference printer's text of the clauses' tree and their class
    counted here, the text must read back to M, and a set the row cannot
    express must raise, as the greedy reference does.  The universes are
    not in name order, so the pool's order and the printed literals' order
    differ."""

    @staticmethod
    def check(mset, fragment):
        try:
            cnf = synthesize(mset, fragment)
        except NoSyntacticFragmentError as exc:
            assert str(exc) == f"fragment {fragment.name!r} cannot express the given model set"
            with pytest.raises(NoSyntacticFragmentError):
                greedy_synthesize(mset, fragment)
            return
        assert str(cnf) == to_text(conjoin(cnf.clauses))
        assert cnf.verdict == slow_verdict(cnf.clauses)
        assert truth_table(str(cnf), mset.universe) == mset.bits

    @pytest.mark.parametrize("fragment", ROWS, ids=lambda row: row.name)
    def test_every_closed_set_of_two_to_four_atoms(self, fragment):
        for atoms in ("ba", "cab", ["d", "b", "ca", "a"]):
            universe = Universe(atoms)
            for mset in (ModelSet(universe),) + closed_model_sets(fragment.beta, universe):
                self.check(mset, fragment)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(5, 10), fragment=st.sampled_from(ROWS))
    def test_random_closed_sets_of_five_to_ten_atoms(self, data, n, fragment):
        names = data.draw(st.permutations(["j", "a", "ab", "i", "b", "h", "c", "g", "d", "f"]))
        universe = Universe(names[:n])
        assume(list(universe.atoms) != sorted(universe.atoms))
        masks = data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=8))
        self.check(closure(fragment.beta, ModelSet(universe, masks)), fragment)


class TestClausePoolAgainstFullScan:
    """The kept Krom pool from the clauses of at most two literals, the Horn
    pool from the shapes with at most one positive literal, and the pools of
    bounds that no builtin fragment uses, each filtered by the target
    through the falsifiers kept with it, against the 3^n scan: equal key for
    key and table for table."""

    @staticmethod
    def pools(universe, fragment, bits):
        # The clauses of the row's kept pool that hold in `bits`, decoded to
        # ((size, text), table, clause) in key order; each table is read off
        # the falsifier kept with the clause.
        bounds = (fragment.max_literals, fragment.max_positive)
        pool, literals = _row_pool(universe, *bounds)
        assert len(pool) == _pool_size(len(universe), *bounds)
        full = (1 << (1 << len(universe))) - 1
        fast = []
        for key, falsifier in reversed(pool):
            if bits & falsifier:
                continue
            lits = [literals[r] for r in key[1:]]
            text = " | ".join(name if pos else f"!{name}" for name, pos, _ in lits)
            clause = tuple(sorted((lit[:2] for lit in lits), key=lambda lit: universe.index(lit[0])))
            fast.append(((key[0], text), full & ~falsifier, clause))
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


    @pytest.mark.parametrize("bounds", [(2, None), (2, 1), (None, 1), (3, None), (None, 0), (0, 0), (9, 2)])
    def test_pool_size_counts_the_walk(self, bounds):
        for n in range(1, 9):
            universe = Universe("abcdefgh"[:n])
            assert _pool_size(n, *bounds) == len(_clause_pool(universe, *bounds)[0])

    @pytest.mark.parametrize("fragment", [KROM, Fragment("maj3-horn", MAJ3, max_positive=1),
                                          Fragment("binary-horn", AND2, max_literals=2, max_positive=1)])
    def test_a_pool_too_large_to_keep_gives_the_same_formulas(self, monkeypatch, fragment):
        # With no room to keep a pool, each call walks it and makes the
        # falsifiers as it goes; the formulas and errors stay the same.
        def result(mset):
            try:
                return str(synthesize(mset, fragment))
            except NoSyntacticFragmentError as exc:
                return str(exc)

        sets = closed_model_sets(fragment.beta, Universe("cab")) + closed_model_sets(
            fragment.beta, Universe(["b1", "a", "ab", "b"]))[::7]
        kept = [result(mset) for mset in sets]
        monkeypatch.setattr(fragmerge.formula, "_POOL_BITS", 0)
        _row_pool.cache_clear()
        assert [result(mset) for mset in sets] == kept
        assert _row_pool.cache_info().currsize == 0


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


class TestParsePrintedText:
    """`parse` on long chains and runs of `!`, and on the reference
    printer's text of random trees."""

    def test_minimal_parentheses(self):
        # The reference printer, the oracle for `str(Cnf)`, writes exactly
        # the parentheses that `parse`'s precedence and associativity need.
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
# The last seven are whitespace that may end a text but not separate tokens.
TOKENS = ("a", "b", "c", "x1", "z", "q_2", "T", "F", "!", "&", "|", "->", "<->", "(", ")",
          " ", " ", "\t", "\n", "$", "-", "<", ">", "1", "_",
          "\x0c", "\xa0", "\x0b", "\x1c", "\x85", "\u2028", "\u3000")


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


def read_outcome(reader, text, universe=PARSE_UNIVERSE):
    try:
        return "bits", reader(text, universe)
    except (ParseError, UnknownAtomError) as exc:
        return type(exc).__name__, str(exc), exc.position


def parsed_bits(text, universe):
    return models(parse(text, universe), universe).bits


def oracle_bits(text, universe):
    # Shares no code with `parse`, `models` or `truth_table`.
    return slow_truth_bits(slow_parse(text, universe), universe)


SEPARATORS = st.sampled_from(["", " ", "\t", "\r\n", "\n", "\r", " \t\n "])


def formula_texts(atoms):
    # Formula text token by token: all four connectives, T and F, runs of
    # `!`, spaces, tabs and line breaks between tokens, and parentheses,
    # some of them redundant.  Binary connectives are joined without
    # parentheses, so precedence and associativity decide the grouping.
    leaves = st.sampled_from(list(atoms) + ["T", "F"])

    def extend(inner):
        return st.one_of(
            st.tuples(st.lists(st.just("!"), min_size=1, max_size=4), SEPARATORS, inner)
            .map(lambda t: "".join(t[0]) + t[1] + t[2]),
            st.tuples(inner, SEPARATORS, st.sampled_from(["&", "|", "->", "<->"]), SEPARATORS, inner)
            .map("".join),
            st.tuples(SEPARATORS, inner, SEPARATORS).map(lambda t: "(" + "".join(t) + ")"),
        )

    return st.recursive(leaves, extend, max_leaves=16)


class TestTruthTable:
    """`truth_table` reads a formula straight to its truth table: the bits
    of `models(parse(text, u), u)`, or the same exception type, message and
    position."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_formula_texts(self, data):
        universe = Universe("abcdefgh"[:data.draw(st.integers(1, 8))])
        text = data.draw(formula_texts(universe.atoms))
        depth = data.draw(st.integers(0, MAX_NESTING))
        text = "!" * data.draw(st.integers(0, 3)) + "(" * depth + text + ")" * depth
        outcome = read_outcome(truth_table, text, universe)
        assert outcome == read_outcome(parsed_bits, text, universe)
        assert outcome == read_outcome(oracle_bits, text, universe)

    @settings(max_examples=1000, deadline=None)
    @given(parts=st.lists(st.sampled_from(TOKENS), max_size=30))
    def test_token_strings(self, parts):
        text = "".join(parts)
        outcome = read_outcome(truth_table, text)
        assert outcome == read_outcome(parsed_bits, text) == read_outcome(oracle_bits, text)

    @pytest.mark.parametrize(
        "text",
        ["a & z", "a $ b", "a &\xa0b", "a &\x0cb", "a b", "(a | b", "", "   ",
         "(" * 65 + "a" + ")" * 65, "!(" * 65 + "a" + ")" * 65],
        ids=["unknown-atom", "stray-character", "no-break-space", "form-feed", "trailing-input",
             "missing-paren", "empty", "blank", "nest-65", "negated-nest-65"],
    )
    def test_malformed_texts_raise_as_parse_does(self, text):
        outcome = read_outcome(truth_table, text)
        assert outcome[0] != "bits"
        assert outcome == read_outcome(parsed_bits, text)
