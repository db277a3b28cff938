import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragmerge import (
    AND2,
    MAJ3,
    ArityMismatchError,
    BooleanFn,
    Interpretation,
    ModelSet,
    NotReproducingError,
    NotSymmetricError,
    Universe,
    UniverseMismatchError,
    UniverseTooLargeError,
    closed_model_sets,
    closure,
    closure_witness,
    is_closed,
)
from fragmerge.cli import _parse_interpretations
from fragmerge.interp import (
    CLOSURE_CACHE_SIZE,
    ENUM_CAP,
    _apply_masks,
    _atom_patterns,
    _closure_bits,
    _from_bits,
    _to_bits,
)
from helpers import (
    U2,
    U3,
    all_model_sets,
    brute_force_closure,
    ms,
    slow_closed_witness,
    slow_closure,
    slow_image,
    slow_render,
)

OR2 = BooleanFn(2, (0, 1, 1, 1), "or")
XOR3 = BooleanFn(3, (0, 1, 1, 0, 1, 0, 0, 1), "xor3")
AT_LEAST_2_OF_4 = BooleanFn(4, tuple(int(i.bit_count() >= 2) for i in range(16)), "atleast2of4")
# The builtin functions, and three that run the semi-naive fixpoint.
ORACLE_FNS = [AND2, MAJ3, OR2, AT_LEAST_2_OF_4, XOR3]


class TestUniverse:
    def test_basic(self):
        u = Universe(("a", "b", "c"))
        assert len(u) == 3
        assert u.index("c") == 2
        assert "b" in u and "z" not in u
        assert list(u) == ["a", "b", "c"]
        assert repr(u) == "Universe(('a', 'b', 'c'))"

    def test_index_of_an_unknown_atom(self):
        with pytest.raises(KeyError) as info:
            U2.index("z")
        assert info.value.args == ("atom 'z' not in universe ('a', 'b')",)

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            Universe(("a", "a"))
        with pytest.raises(ValueError):
            Universe(())

    def test_enum_cap_is_checked_when_the_universe_is_made(self):
        assert ENUM_CAP == 16
        assert len(Universe([f"x{i}" for i in range(16)])) == 16
        for n in (17, 25):
            with pytest.raises(UniverseTooLargeError) as info:
                Universe([f"x{i}" for i in range(n)])
            assert str(info.value) == f"universe has {n} atoms, enumeration cap is 16"

    @pytest.mark.parametrize("name", ["", "!a", "A", "T", "1a", "_a", "a-b", "a b", "é"])
    def test_atom_names_must_parse_as_atoms(self, name):
        with pytest.raises(ValueError) as info:
            Universe(("a", name))
        assert str(info.value) == f"atom name {name!r} does not match [a-z][a-z0-9_]*"

    @pytest.mark.parametrize("atoms, bad", [((1, 2), "1 (int)"), (("a", None), "None (NoneType)"),
                                            (("a", b"b"), "b'b' (bytes)")], ids=["int", "none", "bytes"])
    def test_atom_names_must_be_strings(self, atoms, bad):
        # Refused when made, not later in rendering, which joins the names.
        with pytest.raises(TypeError) as info:
            Universe(atoms)
        assert str(info.value) == f"atom names must be str, got {bad}"


class TestInterpretation:
    def test_weights_follow_declaration_order(self):
        # over (a, b): {} < {a} < {b} < {a,b}
        order = [U2.interpretation(s) for s in ("", "a", "b", "ab")]
        assert [w.mask for w in order] == [0, 1, 2, 3]
        assert sorted(reversed(order)) == order

    def test_str(self):
        assert str(U2.interpretation("ab")) == "{a,b}"
        assert str(U2.interpretation("")) == "{}"

    def test_cross_universe_compare(self):
        with pytest.raises(UniverseMismatchError):
            U2.interpretation("a") < U3.interpretation("a")

    @pytest.mark.parametrize("mask", [-1, 4])
    def test_mask_out_of_range(self, mask):
        with pytest.raises(ValueError, match=f"^mask {mask} out of range for 2 atoms$"):
            Interpretation(U2, mask)

    def test_hash_repr_and_order_against_other_types(self):
        w = Interpretation(U2, 1)
        assert hash(w) == hash(U2.interpretation("a")) and {w, U2.interpretation("a")} == {w}
        assert repr(w) == "Interpretation({a})"
        with pytest.raises(TypeError):
            w < 1


class TestBooleanFnValidation:
    def test_and_is_valid(self):
        fn = BooleanFn(2, (0, 0, 0, 1))
        assert fn(0, 1) == 0 and fn(1, 1) == 1

    def test_maj3_matches_two_of_three(self):
        fn = BooleanFn(3, (0, 0, 0, 1, 0, 1, 1, 1), "maj3")
        for bits in itertools.product((0, 1), repeat=3):
            assert fn(*bits) == (1 if sum(bits) >= 2 else 0)

    def test_xnor_rejected_not_reproducing(self):
        # all-zeros input maps to 1
        with pytest.raises(NotReproducingError):
            BooleanFn(2, (1, 0, 0, 1))

    def test_projection_rejected_not_symmetric(self):
        with pytest.raises(NotSymmetricError) as exc:
            BooleanFn(2, (0, 1, 0, 1))
        assert exc.value.witness is not None

    def test_wrong_table_length(self):
        with pytest.raises(ValueError):
            BooleanFn(2, (0, 1))

    def test_arity_zero_is_rejected(self):
        with pytest.raises(ValueError, match="^arity must be positive$"):
            BooleanFn(0, (0,))

    def test_constant_zero_rejected_not_one_reproducing(self):
        with pytest.raises(NotReproducingError, match="^not 1-reproducing") as exc:
            BooleanFn(2, (0, 0, 0, 0))
        assert exc.value.witness == (1, 1)

    def test_records_are_unordered(self):
        with pytest.raises(TypeError):
            AND2 < MAJ3

    def test_renamed_and_is_and(self, monkeypatch):
        # The name is not compared: a renamed AND2 equals and hashes as AND2,
        # so it takes AND2's kernel and cache entries, never the fixpoint.
        renamed = BooleanFn(2, (0, 0, 0, 1), "renamed")
        assert renamed == AND2 and not renamed != AND2 and hash(renamed) == hash(AND2)
        assert renamed != MAJ3 and not renamed == MAJ3
        assert repr(renamed) == "BooleanFn(arity=2, table=(0, 0, 0, 1), name='renamed')"
        monkeypatch.setattr("fragmerge.interp._fixpoint", None)
        _closure_bits.cache_clear()
        assert closure(renamed, ms(U3, "ab", "bc")) == ms(U3, "b", "ab", "bc")
        assert closed_model_sets(renamed, U3) is closed_model_sets(AND2, U3)
        with pytest.raises(AttributeError):
            renamed.name = "and"


class TestApplyMasks:
    """`_apply_masks`, beta coordinate-wise on interpretation masks: the step
    of every closure that is not read off a clause theory."""

    def test_maj3_on_disjoint_singletons(self):
        assert _apply_masks(MAJ3, (0b001, 0b010, 0b100), 3) == 0

    def test_and_intersects(self):
        assert _apply_masks(AND2, (0b01, 0b11), 2) == 0b01

    @pytest.mark.parametrize("beta", [AND2, MAJ3, OR2, XOR3])
    def test_reproduction_on_constant_tuple(self, beta):
        for mask in range(4):
            assert _apply_masks(beta, (mask,) * beta.arity, 2) == mask

    @pytest.mark.parametrize("beta", [AND2, MAJ3, OR2, XOR3])
    def test_every_three_atom_tuple_against_the_oracle(self, beta):
        for tup in itertools.product(range(8), repeat=beta.arity):
            assert _apply_masks(beta, tup, 3) == slow_image(beta, tup, 3)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            AND2(1)


class TestClosure:
    def test_and_closure_adds_intersection(self):
        assert closure(AND2, ms(U2, "a", "b")) == ms(U2, "", "a", "b")

    def test_empty_and_singletons_are_fixed(self):
        for beta in (AND2, MAJ3, OR2):
            assert closure(beta, ModelSet(U2)) == ModelSet(U2)
            for mask in range(4):
                single = ModelSet(U2, [mask])
                assert closure(beta, single) == single

    def test_maj3_closure_of_four_singletons(self):
        u = Universe("abcd")
        start = ms(u, "a", "b", "c", "d")
        result = closure(MAJ3, start)
        assert result == ms(u, "", "a", "b", "c", "d")
        # oracle: the enlarged set must be a fixpoint under all triples
        for tup in itertools.product(tuple(result.masks), repeat=3):
            img = 0
            for i in range(4):
                if sum(m >> i & 1 for m in tup) >= 2:
                    img |= 1 << i
            assert img in result.masks

    @pytest.mark.parametrize("beta", [AND2, MAJ3, OR2])
    def test_matches_brute_force_oracle_exhaustively(self, beta):
        for mset in all_model_sets(U2):
            assert closure(beta, mset) == brute_force_closure(beta, mset)

    @pytest.mark.parametrize("beta", [AND2, MAJ3])
    def test_extensive_idempotent_exhaustive(self, beta):
        for mset in all_model_sets(U2):
            closed = closure(beta, mset)
            assert mset.issubset(closed)
            assert closure(beta, closed) == closed
            assert bool(closed) == bool(mset)

    @pytest.mark.parametrize("beta", [AND2, MAJ3])
    def test_monotone_exhaustive(self, beta):
        sets = list(all_model_sets(U2))
        for small in sets:
            for large in sets:
                if small.issubset(large):
                    assert closure(beta, small).issubset(closure(beta, large))

    @settings(max_examples=200, deadline=None)
    @given(
        small=st.sets(st.integers(0, 7)),
        extra=st.sets(st.integers(0, 7)),
        beta=st.sampled_from([AND2, MAJ3]),
    )
    def test_monotone_and_idempotent_three_atoms(self, small, extra, beta):
        a = ModelSet(U3, small)
        b = ModelSet(U3, small | extra)
        ca, cb = closure(beta, a), closure(beta, b)
        assert ca.issubset(cb)
        assert closure(beta, ca) == ca
        assert a.issubset(ca)


class TestIsClosed:
    def test_and_open_pair(self):
        assert not is_closed(AND2, ms(U2, "a", "b"))
        witness = closure_witness(AND2, ms(U2, "a", "b"))
        args, img = witness
        assert img == U2.interpretation("")

    def test_maj3_on_two_singletons(self):
        # oracle: every triple drawn from a 2-element set repeats an element,
        # and the majority returns the repeated one
        target = ms(U2, "a", "b")
        for tup in itertools.product(tuple(target.masks), repeat=3):
            img = 0
            for i in range(2):
                if sum(m >> i & 1 for m in tup) >= 2:
                    img |= 1 << i
            assert img in target.masks
        assert is_closed(MAJ3, target)

    @pytest.mark.parametrize("beta", [AND2, MAJ3, OR2])
    def test_empty_and_singletons(self, beta):
        assert is_closed(beta, ModelSet(U2))
        for mask in range(4):
            assert is_closed(beta, ModelSet(U2, [mask]))

    @pytest.mark.parametrize("beta", [AND2, MAJ3])
    def test_agrees_with_closure_exhaustively(self, beta):
        for mset in all_model_sets(U2):
            assert is_closed(beta, mset) == (closure(beta, mset) == mset)


class TestClosureAgainstSlowOracles:
    """The clause-theory closures of AND2 and MAJ3, the semi-naive fixpoint
    of other functions, and the closure-first witness scan against the plain
    fixpoint and full scan in tests/helpers and against brute force."""

    @pytest.mark.parametrize("beta", ORACLE_FNS, ids=str)
    @pytest.mark.parametrize("atoms", ["a", "ba", "cab"])
    def test_every_set_up_to_three_atoms(self, beta, atoms):
        universe = Universe(atoms)
        for mset in all_model_sets(universe):
            closed = closure(beta, mset)
            assert closed == slow_closure(beta, mset) == brute_force_closure(beta, mset)
            witness = closure_witness(beta, mset)
            assert witness == slow_closed_witness(beta, mset)
            assert is_closed(beta, mset) == (witness is None) == (closed == mset)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), beta=st.sampled_from(ORACLE_FNS))
    def test_random_sets_four_to_eight_atoms(self, data, beta):
        n = data.draw(st.integers(4, 8))
        universe = Universe(data.draw(st.permutations("abcdefgh"[:n])))
        masks = data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=5))
        mset = ModelSet(universe, masks)
        closed = closure(beta, mset)
        assert closed == slow_closure(beta, mset)
        assert closure_witness(beta, mset) == slow_closed_witness(beta, mset)
        assert is_closed(beta, mset) == (closed == mset)
        assert is_closed(beta, closed) and closure_witness(beta, closed) is None

    def test_semi_naive_rounds_mix_new_and_old_elements(self):
        # A later round here needs beta on a tuple of new and old elements:
        # tuples of new elements alone miss part of the closure.
        mset = ModelSet(Universe("abcde"), [11, 13, 14, 16, 23, 25])
        assert closure(AT_LEAST_2_OF_4, mset) == slow_closure(AT_LEAST_2_OF_4, mset)

    def test_empty_set_maps_to_empty_set(self):
        for beta in ORACLE_FNS:
            for n in (1, 4, 9):
                empty = ModelSet(Universe("abcdefghi"[:n]))
                assert closure(beta, empty) == empty


class TestClosedModelSets:
    def test_counts_over_two_atoms(self):
        horn_sets = closed_model_sets(AND2, U2)
        krom_sets = closed_model_sets(MAJ3, U2)
        assert len(horn_sets) == sum(
            1 for m in all_model_sets(U2, include_empty=False)
            if brute_force_closure(AND2, m) == m
        )
        assert len(krom_sets) == sum(
            1 for m in all_model_sets(U2, include_empty=False)
            if brute_force_closure(MAJ3, m) == m
        )
        assert len(horn_sets) == 13
        assert len(krom_sets) == 15  # every non-empty set over 2 atoms

    def test_counts_over_three_and_four_atoms(self):
        u3, u4 = Universe("abc"), Universe("abcd")
        assert len(closed_model_sets(AND2, u3)) == 121
        assert len(closed_model_sets(MAJ3, u3)) == 165
        assert len(closed_model_sets(AND2, u4)) == 4959

    def test_walk_leaves_the_closure_cache_alone(self):
        # The walk tests each of the 65,536 sets over 4 atoms once; caching
        # them would fill the closure cache with entries never asked again.
        closed_model_sets.cache_clear()
        _closure_bits.cache_clear()
        assert len(closed_model_sets(MAJ3, Universe("abcd"))) > 0
        info = _closure_bits.cache_info()
        assert info.maxsize == CLOSURE_CACHE_SIZE
        assert info.currsize == 0
        for mset in itertools.islice(all_model_sets(Universe("abcd")), CLOSURE_CACHE_SIZE + 100):
            closure(MAJ3, mset)
        assert _closure_bits.cache_info().currsize == CLOSURE_CACHE_SIZE

    def test_deterministic_and_cached(self):
        first = closed_model_sets(AND2, U2)
        second = closed_model_sets(AND2, Universe("ab"))
        assert first == second
        assert all(is_closed(AND2, m) for m in first)

    def test_never_includes_the_empty_set(self):
        # The empty set is closed under every beta, and left out.
        for beta in (AND2, MAJ3):
            assert is_closed(beta, ModelSet(U2))
            assert ModelSet(U2) not in closed_model_sets(beta, U2)


class TestBitsets:
    @settings(max_examples=100, deadline=None)
    @given(masks=st.sets(st.integers(0, (1 << 12) - 1), max_size=300))
    def test_masks_round_trip_across_chunks(self, masks):
        bits = _to_bits(masks)
        assert bits == sum(1 << m for m in masks)
        assert _from_bits(bits) == sorted(masks)

    def test_atom_patterns(self):
        for n in range(1, 6):
            for i, pattern in enumerate(_atom_patterns(n)):
                assert _from_bits(pattern) == [m for m in range(1 << n) if m >> i & 1]


class TestModelSetBasics:
    def test_render_sorted_by_weight(self):
        assert str(ms(U2, "b", "", "a")) == "{}, {a}, {b}"
        assert ms(U2, "ab", "a").compact() == "{a}|{a,b}"

    def test_iterates_over_its_members(self):
        assert list(ms(U2, "ab", "a")) == [U2.interpretation("a"), U2.interpretation("ab")]

    def test_set_operations_take_model_sets_only(self):
        with pytest.raises(TypeError, match="^expected ModelSet, got int$"):
            ms(U2, "a") & 3

    @pytest.mark.parametrize("atoms", ["cab", "z", "gfedcba"])
    def test_rendering_matches_member_strings(self, atoms):
        # Every model set over 1 and 3 atoms, every single mask over 7.
        u = Universe(atoms)
        sets = all_model_sets(u) if len(u) < 4 else (ModelSet(u, [m]) for m in range(1 << len(u)))
        for mset in sets:
            texts = [str(w) for w in mset.members]
            assert mset.compact() == "|".join(texts)
            assert str(mset) == mset.render() == ", ".join(texts)
            assert mset.render(" ") == " ".join(texts)

    def test_set_operations(self):
        left, right = ms(U2, "", "a"), ms(U2, "a", "b")
        assert (left & right) == ms(U2, "a")
        assert (left | right) == ms(U2, "", "a", "b")
        assert (right - left) == ms(U2, "b")
        assert left.intersects(right)
        assert ms(U2, "a").issubset(right)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            ms(U2, "a") & ms(U3, "a")

    def test_full_and_empty(self):
        assert len(ModelSet.full(U2)) == 4
        assert not ModelSet(U2)


# Names that are prefixes of one another, so a text split at the wrong
# place still looks like a list of atoms.
RENDER_NAMES = ("a", "ab", "a_", "a1", "abc", "b", "ba", "b_", "b1", "c", "ca", "cab", "x", "x_1", "xy", "z")


@st.composite
def rendered_sets(draw):
    """A model set over 1-16 prefix-named atoms: empty, full, sparse (1-4
    models), dense (each interpretation a model with probability 7/8), or
    with models only in the first or only in the last block of 2^(n//2)
    masks, which `render` joins at once."""
    n = draw(st.integers(1, 16))
    universe = Universe(draw(st.permutations(RENDER_NAMES))[:n])
    kind = draw(st.sampled_from(["empty", "full", "sparse", "dense", "first-block", "last-block"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    size, width = 1 << n, 1 << n // 2
    if kind == "sparse":
        return ModelSet(universe, rng.sample(range(size), min(size, rng.randint(1, 4))))
    bits = {
        "empty": 0,
        "full": (1 << size) - 1,
        "dense": rng.getrandbits(size) | rng.getrandbits(size) | rng.getrandbits(size),
        "first-block": rng.getrandbits(width),
        "last-block": rng.getrandbits(width) << size - width,
    }[kind]
    return ModelSet.from_bits(universe, bits)


class TestRender:
    @settings(max_examples=60, deadline=None)
    @given(mset=rendered_sets())
    def test_render_matches_member_texts(self, mset):
        want = slow_render(mset, "|")  # no member's text holds a '|'
        for sep in ("|", ", ", " "):
            assert mset.render(sep) == want.replace("|", sep)
        assert mset.compact() == want and str(mset) == want.replace("|", ", ")

    @settings(max_examples=80, deadline=None)
    @given(mset=rendered_sets())
    def test_problem_file_reader_reads_back_rendered_sets(self, mset):
        # The `{a,b}` lists of a problem file's `models` bases: the reader
        # inverts the writer, and refuses the empty list.
        args = (mset.render(" "), mset.universe, ValueError, "line 1", "sets")
        if mset:
            assert tuple(_parse_interpretations(*args)) == mset.masks
        else:
            with pytest.raises(ValueError, match="line 1: expected sets"):
                _parse_interpretations(*args)


def assert_matches_reference(universe, left, ref_left, right, ref_right):
    """`left`/`right` against frozensets of masks `ref_left`/`ref_right`."""
    for mset, ref in ((left, ref_left), (right, ref_right)):
        ordered = sorted(ref)
        assert len(mset) == len(ref) and bool(mset) == bool(ref)
        assert mset.masks == tuple(ordered)
        assert mset.members == tuple(Interpretation(universe, m) for m in ordered)
        texts = [str(Interpretation(universe, m)) for m in ordered]
        assert mset.render() == ", ".join(texts) and mset.compact() == "|".join(texts)
        for m in range(-1, (1 << len(universe)) + 1):
            assert (m in mset) == (m in ref)
        for m in range(1 << len(universe)):
            assert (Interpretation(universe, m) in mset) == (m in ref)
    assert (left & right).masks == tuple(sorted(ref_left & ref_right))
    assert (left | right).masks == tuple(sorted(ref_left | ref_right))
    assert (left - right).masks == tuple(sorted(ref_left - ref_right))
    assert left.issubset(right) == (ref_left <= ref_right)
    assert left.intersects(right) == (not ref_left.isdisjoint(ref_right))
    assert (left == right) == (ref_left == ref_right)
    if ref_left == ref_right:
        assert hash(left) == hash(right)


class TestModelSetAgainstFrozenset:
    def test_every_pair_of_two_atom_sets(self):
        refs = [frozenset(m for m in range(4) if code >> m & 1) for code in range(16)]
        sets = list(all_model_sets(U2))
        for left, ref_left in zip(sets, refs):
            for right, ref_right in zip(sets, refs):
                assert_matches_reference(U2, left, ref_left, right, ref_right)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_random_sets_up_to_eight_atoms(self, data, n):
        universe = Universe("abcdefgh"[:n])
        masks = st.frozensets(st.integers(0, (1 << n) - 1), max_size=80)
        ref_left, ref_right = data.draw(masks), data.draw(masks)
        left, right = ModelSet(universe, ref_left), ModelSet(universe, ref_right)
        assert ModelSet.from_bits(universe, sum(1 << m for m in ref_left)) == left
        assert_matches_reference(universe, left, ref_left, right, ref_right)

    def test_out_of_range_masks_and_bits(self):
        with pytest.raises(ValueError):
            ModelSet(U2, [4])
        with pytest.raises(ValueError):
            ModelSet(U2, [0, -1])
        with pytest.raises(ValueError):
            ModelSet.from_bits(U2, 1 << 4)
        with pytest.raises(ValueError):
            ModelSet.from_bits(U2, -1)
        assert ModelSet.from_bits(U2, (1 << 4) - 1) == ModelSet.full(U2)
