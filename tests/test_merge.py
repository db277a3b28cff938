import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragmerge import (
    Aggregator,
    Base,
    CountingDistance,
    InconsistentBaseError,
    Interpretation,
    MergeOperator,
    ModelSet,
    Profile,
    Universe,
    UniverseMismatchError,
    score_table,
)
from fragmerge.merge import merge
from helpers import U2, U3, all_model_sets, common_models, ms, prof, slow_merge, slow_score_rows

DH2 = CountingDistance.hamming(2)
DD2 = CountingDistance.drastic(2)


class TestCountingDistance:
    def test_hamming_gauge(self):
        assert CountingDistance.hamming(3).gauge == (0, 1, 2, 3)

    def test_drastic_gauge(self):
        assert CountingDistance.drastic(3).gauge == (0, 1, 1, 1)

    def test_from_gauge_implies_zero(self):
        d = CountingDistance.from_gauge([2, 2, 5])
        assert d.gauge == (0, 2, 2, 5)

    @pytest.mark.parametrize("gauge", [(1, 2), (0, 0, 1), (0, 2, 1), ()])
    def test_invalid_gauges(self, gauge):
        with pytest.raises(ValueError):
            CountingDistance(gauge)

    def test_gauge_must_cover_the_universe(self):
        with pytest.raises(ValueError):
            score_table(prof(U3, ("a",)), ms(U3, "b"), DH2, Aggregator.SIGMA)

    def test_name_is_not_compared(self):
        renamed = CountingDistance((0, 1, 2), "renamed")
        assert renamed == DH2 and not renamed != DH2 and hash(renamed) == hash(DH2)
        assert renamed != DD2 and not renamed == DD2
        with pytest.raises(AttributeError):
            renamed.gauge = (0, 1, 1)


def distance(d, w, base):
    """d(w, K), read off the score table of the one-base profile (K)."""
    (row,) = score_table(Profile((base,)), ModelSet(w.universe, [w.mask]), d, Aggregator.SIGMA)
    return row.per_base[0]


class TestDistances:
    def test_hamming_symmetric_difference(self):
        assert distance(DH2, U2.interpretation(""), Base(ms(U2, "ab"))) == 2

    def test_drastic_collapses(self):
        d = CountingDistance.drastic(3)
        assert distance(d, U3.interpretation("a"), Base(ms(U3, "abc"))) == 1
        assert distance(d, U3.interpretation("a"), Base(ms(U3, "ab"))) == 1

    def test_zero_on_equal(self):
        for d in (DH2, DD2, CountingDistance.from_gauge([3, 7])):
            for mask in range(4):
                w = Interpretation(U2, mask)
                assert distance(d, w, Base(ModelSet(U2, [mask]))) == 0

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            distance(DH2, U2.interpretation("a"), Base(ms(U3, "a")))

    def test_base_distance_is_the_minimum(self):
        k1 = Base(ms(U2, "a", "ab"))
        assert distance(DH2, U2.interpretation(""), k1) == 1

    def test_base_distance_seven_atoms(self):
        u = Universe("abcdefg")
        k1 = Base(ModelSet.from_sets(u, "a", "ab", "ad", "af"))
        d = CountingDistance.hamming(7)
        assert distance(d, u.interpretation("abc"), k1) == 1

    def test_member_distance_is_zero(self):
        k = Base(ms(U2, "a", "b"))
        assert distance(DH2, U2.interpretation("b"), k) == 0


class TestBaseAndProfile:
    def test_inconsistent_base_rejected(self):
        with pytest.raises(InconsistentBaseError):
            Base(ModelSet(U2))

    def test_base_equality_is_by_models(self):
        plain, again = Base(ms(U2, "a")), Base(ms(U2, "a"))
        assert plain == again and not plain != again and hash(plain) == hash(again)
        assert plain != Base(ms(U2, "b")) and not plain == Base(ms(U2, "b"))

    def test_profile_needs_a_base(self):
        with pytest.raises(ValueError):
            Profile(())

    def test_presentation_insensitive_equality(self):
        e1 = prof(U2, ("a", "ab"), ("b", "ab"))
        e2 = prof(U2, ("b", "ab"), ("a", "ab"))
        assert e1 == e2 and hash(e1) == hash(e2)

    def test_duplicates_matter(self):
        assert prof(U2, ("a",), ("a",)) != prof(U2, ("a",))

    def test_union_is_multiset(self):
        e = prof(U2, ("a",)).union(prof(U2, ("a",)))
        assert len(e) == 2
        assert list(e) == [Base(ms(U2, "a"))] * 2

    def test_bases_share_one_universe(self):
        with pytest.raises(UniverseMismatchError, match="^bases over different universes$"):
            Profile((Base(ms(U2, "a")), Base(ms(U3, "a"))))
        with pytest.raises(UniverseMismatchError, match="^profiles over different universes$"):
            prof(U2, ("a",)).union(prof(U3, ("a",)))

    def test_common_models(self):
        e = prof(U2, ("a", "ab"), ("b", "ab"))
        assert common_models(e) == ms(U2, "ab")


def oracle_merge(profile, mu, d, f):
    """Independent argmin: naive loops, explicit pairwise comparisons."""
    scored = []
    for w in mu.members:
        dists = []
        for base in profile.bases:
            best = None
            for model in base.models.members:
                diff = bin(w.mask ^ model.mask).count("1")
                value = d.gauge[diff]
                if best is None or value < best:
                    best = value
            dists.append(best)
        if f is Aggregator.SIGMA:
            score = sum(dists)
        else:
            score = tuple(sorted(dists, reverse=True))
        scored.append((score, w.mask))
    if not scored:
        return ModelSet(mu.universe)
    minimum = min(score for score, _ in scored)
    return ModelSet(mu.universe, [m for score, m in scored if score == minimum])


class TestMerge:
    def test_two_agent_example_both_aggregators(self):
        e = prof(U2, ("a", "ab"), ("b", "ab"))
        mu = ms(U2, "", "a", "b")
        assert merge(e, mu, DH2, Aggregator.SIGMA) == ms(U2, "a", "b")
        assert merge(e, mu, DH2, Aggregator.GMAX) == ms(U2, "a", "b")

    def test_single_trivial_base_echoes_constraint(self):
        top = Profile((Base(ModelSet.full(U2)),))
        for mu in all_model_sets(U2):
            assert merge(top, mu, DH2, Aggregator.SIGMA) == mu

    def test_three_base_tie(self):
        u = U3
        e = prof(u, ("a", "ab", "ac"), ("b", "ab", "bc"), ("c", "ac", "bc"))
        mu = ms(u, "", "a", "b", "c")
        d = CountingDistance.hamming(3)
        assert merge(e, mu, d, Aggregator.SIGMA) == ms(u, "a", "b", "c")

    def test_empty_constraint(self):
        e = prof(U2, ("a",))
        assert merge(e, ModelSet(U2), DH2, Aggregator.SIGMA) == ModelSet(U2)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            merge(prof(U2, ("a",)), ms(U3, "a"), DH2, Aggregator.SIGMA)

    def test_gauge_too_short(self):
        with pytest.raises(ValueError):
            merge(prof(U3, ("a",)), ms(U3, "a"), DH2, Aggregator.SIGMA)

    @pytest.mark.parametrize("f", [Aggregator.SIGMA, Aggregator.GMAX])
    @pytest.mark.parametrize("d", [DH2, DD2])
    def test_against_oracle_exhaustively(self, f, d):
        sets = list(all_model_sets(U2, include_empty=False))
        profiles = [Profile((Base(a),)) for a in sets]
        profiles += [
            Profile((Base(a), Base(b)))
            for a, b in itertools.combinations_with_replacement(sets[:8], 2)
        ]
        constraints = list(all_model_sets(U2))
        for e in profiles:
            for mu in constraints:
                assert merge(e, mu, d, f) == oracle_merge(e, mu, d, f)

    @pytest.mark.parametrize("f", [Aggregator.SIGMA, Aggregator.GMAX])
    def test_output_within_constraint(self, f):
        for e in (prof(U2, ("a",), ("b",)), prof(U2, ("ab",))):
            for mu in all_model_sets(U2):
                assert merge(e, mu, DH2, f).issubset(mu)

    @pytest.mark.parametrize("f", [Aggregator.SIGMA, Aggregator.GMAX])
    def test_agreement_returns_intersection(self, f):
        # when the whole profile is consistent with the constraint
        for e in (prof(U2, ("a", "ab"), ("b", "ab")), prof(U2, ("", "a"), ("", "b"))):
            for mu in all_model_sets(U2):
                joint = common_models(e) & mu
                if joint:
                    assert merge(e, mu, DH2, f) == joint

    @pytest.mark.parametrize("f", [Aggregator.SIGMA, Aggregator.GMAX])
    def test_base_order_irrelevant(self, f):
        bases = [ms(U2, "a"), ms(U2, "b", "ab"), ms(U2, "", "b")]
        mu = ModelSet.full(U2)
        outputs = {
            merge(Profile.from_model_sets(*perm), mu, DH2, f).compact()
            for perm in itertools.permutations(bases)
        }
        assert len(outputs) == 1


def kernel_matches_pair_loop(profile, mu, d, f):
    assert merge(profile, mu, d, f) == slow_merge(profile, mu, d, f)
    rows = score_table(profile, mu, d, f)
    got = [(r.interpretation.mask, r.per_base, r.value) for r in rows]
    assert got == slow_score_rows(profile, mu, d, f)


class TestKernelAgainstPairLoop:
    @pytest.mark.parametrize("f", [Aggregator.SIGMA, Aggregator.GMAX])
    @pytest.mark.parametrize(
        "d", [DH2, DD2, CountingDistance.from_gauge((1, 3))], ids=["hamming", "drastic", "g13"]
    )
    def test_every_two_atom_profile_and_constraint(self, d, f):
        sets = list(all_model_sets(U2, include_empty=False))
        profiles = [Profile((Base(a),)) for a in sets]
        profiles += [
            Profile((Base(a), Base(b))) for a, b in itertools.combinations_with_replacement(sets, 2)
        ]
        for e in profiles:
            for mu in all_model_sets(U2):
                kernel_matches_pair_loop(e, mu, d, f)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_wide_universes_and_plateau_gauges(self, data):
        n = data.draw(st.integers(5, 9))
        names = data.draw(st.permutations([f"x{i}" for i in range(n)]))
        universe = Universe(names)
        masks = st.integers(0, (1 << n) - 1)
        bases = data.draw(
            st.lists(st.frozensets(masks, min_size=1, max_size=12), min_size=1, max_size=3)
        )
        mu = ModelSet(universe, data.draw(st.frozensets(masks, max_size=40)))
        # Nondecreasing gauges with plateaus, e.g. (1, 1, 4, 4, ...).
        steps = data.draw(st.lists(st.sampled_from((0, 0, 3)), min_size=n - 1, max_size=n - 1))
        gauge = list(itertools.accumulate(steps, initial=data.draw(st.integers(1, 2))))
        d = CountingDistance.from_gauge(gauge)
        f = data.draw(st.sampled_from(list(Aggregator)))
        profile = Profile(tuple(Base(ModelSet(universe, b)) for b in bases))
        kernel_matches_pair_loop(profile, mu, d, f)


class TestScoreTable:
    def test_rows_match_example(self):
        e = prof(U2, ("a", "ab"), ("b", "ab"))
        mu = ms(U2, "", "a", "b")
        rows = score_table(e, mu, DH2, Aggregator.SIGMA)
        assert [(str(r.interpretation), r.per_base, r.value) for r in rows] == [
            ("{}", (1, 1), 2),
            ("{a}", (0, 1), 1),
            ("{b}", (1, 0), 1),
        ]

    def test_gmax_rows(self):
        # A gmax value is the descending tuple of the distances.
        e = prof(U2, ("a", "ab"), ("b", "ab"))
        mu = ms(U2, "", "a", "b")
        rows = score_table(e, mu, DH2, Aggregator.GMAX)
        assert [r.value for r in rows] == [(1, 1), (1, 0), (1, 0)]

    def test_gmax_values_compare_lexicographically(self):
        e, mu = prof(U3, ("",), ("ab",), ("abc",)), ms(U3, "a", "ab")
        worse, better = (r.value for r in score_table(e, mu, CountingDistance.hamming(3), Aggregator.GMAX))
        assert (worse, better) == ((2, 1, 1), (2, 1, 0)) and better < worse

    @pytest.mark.parametrize("order", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_sigma_and_gmax_values_do_not_compare(self, order):
        e, mu = prof(U2, ("a",)), ms(U2, "b")
        sigma, gmax = (score_table(e, mu, DH2, f)[0].value for f in Aggregator)
        with pytest.raises(TypeError):
            order(sigma, gmax)

    @pytest.mark.parametrize(
        "order, expected",
        [(operator.lt, True), (operator.le, True), (operator.gt, False), (operator.ge, False)],
        ids=["lt", "le", "gt", "ge"],
    )
    def test_gmax_values_of_different_profile_sizes_compare_lexicographically(self, order, expected):
        # A one-base value is a prefix of a two-base one, so it sorts first.
        mu = ms(U2, "b")
        profiles = prof(U2, ("a",)), prof(U2, ("a",), ("b",))
        (short,), (long,) = (score_table(e, mu, DH2, Aggregator.GMAX) for e in profiles)
        assert (short.value, long.value) == ((2,), (2, 0))
        assert order(short.value, long.value) is expected

    def test_values_of_a_model_of_every_base_are_zero(self):
        e, mu = prof(U3, ("a", "ab"), ("a",), ("a", "c")), ms(U3, "a")
        (sigma,), (gmax,) = (score_table(e, mu, CountingDistance.hamming(3), f) for f in Aggregator)
        assert (sigma.value, gmax.value) == (0, (0, 0, 0))

    @pytest.mark.parametrize("f", list(Aggregator), ids=lambda f: f.value)
    def test_merge_keeps_the_rows_of_least_value(self, f):
        for e in (prof(U2, ("a", "ab"), ("b", "ab")), prof(U2, ("",), ("ab",), ("a",))):
            for mu in all_model_sets(U2, include_empty=False):
                rows = score_table(e, mu, DH2, f)
                least = min(r.value for r in rows)
                kept = ModelSet(U2, [r.interpretation.mask for r in rows if r.value == least])
                assert merge(e, mu, DH2, f) == kept


class TestMergeOperator:
    def test_label(self):
        assert MergeOperator(DH2, Aggregator.SIGMA).label == "merge(hamming,sigma)"
        assert repr(MergeOperator(DH2, Aggregator.GMAX)) == "<merge(hamming,gmax)>"

    def test_memoized(self):
        op = MergeOperator(DH2, Aggregator.GMAX)
        e = prof(U2, ("a",), ("b",))
        mu = ModelSet.full(U2)
        # Results are not cached: repeated calls and an equal presentation
        # recompute the same set.
        assert op(e, mu) == op(e, mu)
        e2 = prof(U2, ("b",), ("a",))
        assert op(e2, mu) == op(e, mu)
