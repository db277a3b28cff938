"""Distance-based merging of belief-base profiles under a constraint.

A counting distance between interpretations is g(|symmetric difference|)
for a nondecreasing gauge g with g(0)=0 and g(k)>0 otherwise; Hamming is
g=id, drastic is g=1 off zero.  Per-interpretation distances to the bases
are aggregated by sum, an int, or by the descending-sorted tuple, which
compares lexicographically; merging keeps the constraint models with
minimal aggregate, and `score_table` rows carry the same plain value.
Distances are integer-valued, so comparisons are exact.

One kernel, `_rings`, gives `merge`, `MergeOperator.answers` and
`score_table` every distance d(w, K) without scanning (w, model) pairs: per
base, a breadth-first search over the hypercube on truth-table bitsets (ints
with bit m for interpretation m) reaches w at step k = min over models m of
|w xor m|, and d(w, K) = g(k) because the gauge is nondecreasing.

Answer tables work on plain ints: a profile is a tuple of its bases'
bitsets, in presentation order, and a table is the tuple of an operator's
output bitsets for a tuple of constraint bitsets, `keys`, in their order.
An operator's table function over `keys` maps a profile to its table.
"""

from enum import Enum
from functools import reduce
from operator import or_

from .interp import Interpretation, ModelSet, Universe, UniverseMismatchError, record_type
from .interp import _atom_patterns, _from_bits


class InconsistentBaseError(ValueError):
    """Bases in a profile must be consistent (non-empty model sets)."""


class CountingDistance(record_type("CountingDistance", "gauge name", ("table",), slice(1))):
    """Distance d(w, w') = gauge[|w xor w'|]; the gauge must cover 0..|U|.
    The name is not compared."""

    __slots__ = ()

    def __new__(cls, gauge: tuple, name: str = "table"):
        gauge = tuple(int(v) for v in gauge)
        if not gauge or gauge[0] != 0:
            raise ValueError("gauge must start with g(0) = 0")
        if any(v <= 0 for v in gauge[1:]):
            raise ValueError("gauge must be positive away from zero")
        if any(a > b for a, b in zip(gauge, gauge[1:])):
            raise ValueError("gauge must be nondecreasing")
        return super().__new__(cls, gauge, name)

    @classmethod
    def hamming(cls, n: int) -> "CountingDistance":
        return cls(tuple(range(n + 1)), "hamming")

    @classmethod
    def drastic(cls, n: int) -> "CountingDistance":
        return cls((0,) + (1,) * n, "drastic")

    @classmethod
    def from_gauge(cls, positive_values, name: str = "table") -> "CountingDistance":
        """Build from g(1), g(2), ...; g(0) = 0 is implied."""
        return cls((0,) + tuple(positive_values), name)


class Base(record_type("Base", "models")):
    """Consistent belief base: a non-empty model set."""

    __slots__ = ()

    def __new__(cls, models: ModelSet):
        if not models:
            raise InconsistentBaseError("base has no models")
        return super().__new__(cls, models)


class Profile:
    """Non-empty multiset of bases over one universe.

    Presentation order is kept for display, but equality and hashing are by
    the multiset of model sets, so two presentations of the same multiset
    are interchangeable everywhere.
    """

    __slots__ = ("bases", "_key", "_hash")

    def __init__(self, bases):
        bases = tuple(bases)
        if not bases:
            raise ValueError("profile needs at least one base")
        universe = bases[0].models.universe
        for b in bases:
            if b.models.universe != universe:
                raise UniverseMismatchError("bases over different universes")
        self.bases = bases
        self._key = (universe, tuple(sorted(b.models.bits for b in bases)))
        self._hash = hash(self._key)

    @classmethod
    def from_model_sets(cls, *msets) -> "Profile":
        return cls(tuple(Base(m) for m in msets))

    @classmethod
    def from_bits(cls, universe: Universe, bases) -> "Profile":
        """The profile of a tuple of base bitsets, in that order."""
        return cls(tuple(Base(ModelSet.from_bits(universe, bits)) for bits in bases))

    @property
    def universe(self) -> Universe:
        return self.bases[0].models.universe

    def __len__(self):
        return len(self.bases)

    def __iter__(self):
        return iter(self.bases)

    def __eq__(self, other):
        return isinstance(other, Profile) and self._key == other._key

    def __hash__(self):
        return self._hash

    def mmod(self) -> tuple:
        return tuple(b.models for b in self.bases)

    def union(self, other: "Profile") -> "Profile":
        """Multiset union (concatenation)."""
        if other.universe != self.universe:
            raise UniverseMismatchError("profiles over different universes")
        return Profile(self.bases + other.bases)

    def render(self) -> str:
        return "; ".join(b.models.compact() for b in self.bases)

    def __repr__(self):
        return f"Profile[{self.render()}]"


class Aggregator(Enum):
    SIGMA = "sigma"
    GMAX = "gmax"


def _check_merge_inputs(universe: Universe, d: CountingDistance, mu: ModelSet = None):
    if mu is not None and mu.universe != universe:
        raise UniverseMismatchError("constraint and profile over different universes")
    if len(d.gauge) <= len(universe):
        raise ValueError(
            f"distance gauge covers differences up to {len(d.gauge) - 1}, "
            f"universe has {len(universe)} atoms"
        )


def _rings(bits: int, within: int, gauge: tuple, patterns: tuple) -> list:
    """The models of `within` by distance from the base `bits`: (distance,
    bitset) pairs, nearest first, that partition `within`.

    Ring 0 is the base and ring k+1 every interpretation one atom flip from
    ring k: flipping atom i moves the bits under `patterns[i]` down by 2^i
    and the others up.  So ring k holds every w at Hamming distance k and
    none farther; those of `within` leave the search when first hit.  The
    gauge g is nondecreasing (CountingDistance enforces it), so
    min_m g(|w xor m|) = g(min_m |w xor m|) = gauge[k] for a hit in ring k."""
    ring, left, hits = bits, within, []
    for g in gauge:
        hit = ring & left
        if hit:
            hits.append((g, hit))
            left ^= hit
        if not left:
            break
        grown = 0
        for i, pattern in enumerate(patterns):
            down = ring & pattern
            grown |= down >> (1 << i) | (ring ^ down) << (1 << i)
        ring = grown
    return hits


def _grow(groups: dict, hits: list, sigma: bool) -> dict:
    """Groups {aggregate: bitset} of some bases, met with the rings `hits` of
    one more base: each part goes to the group of the combined aggregate."""
    grown = {}
    for key, bits in groups.items():
        for g, hit in hits:
            both = bits & hit
            if both:
                new = key + g if sigma else tuple(sorted(key + (g,), reverse=True))
                grown[new] = grown.get(new, 0) | both
    return grown


def _levels(bases: tuple, within: int, gauge: tuple, sigma: bool, width: int, kept: tuple) -> tuple:
    """The models of `within` grouped by aggregate, as bitsets in ascending
    order of aggregate: the sum of the distances (sigma) or their descending
    tuple (gmax).  Both are symmetric, so the levels are those of the
    multiset of `bases`, taken in ascending order.  A group of the first j
    bases meets each ring of base j + 1 in the group of the combined key.
    `kept` holds three dicts over this `within`, gauge and aggregator: each
    base's rings, each sorted prefix's groups and each multiset's levels, so
    a multiset grows the groups of its longest kept prefix."""
    rings, groups, levels = kept
    key = tuple(sorted(bases))
    found = levels.get(key)
    if found is None:
        grown = {0 if sigma else (): within}
        for j, bits in enumerate(key, 1):
            prefix = key[:j]
            if prefix not in groups:
                if bits not in rings:
                    rings[bits] = _rings(bits, within, gauge, _atom_patterns(width))
                groups[prefix] = _grow(grown, rings[bits], sigma)
            grown = groups[prefix]
        found = levels[key] = tuple([grown[g] for g in sorted(grown)])
    return found


def _least(levels: list, bits: int) -> int:
    """The constraint `bits`' part of the first level that meets it: its
    models of least aggregate, ties all kept (none for an empty constraint)."""
    for level in levels:
        if level & bits:
            return level & bits
    return 0


def merge(profile: Profile, mu: ModelSet, d: CountingDistance, f: Aggregator) -> ModelSet:
    """Constraint models at minimal aggregated distance from the profile:
    the least of `_levels` that meets mu, as in `MergeOperator.answers`.
    Ties are all retained; an empty constraint yields an empty result."""
    _check_merge_inputs(profile.universe, d, mu)
    bases = tuple(b.models.bits for b in profile.bases)
    levels = _levels(bases, mu.bits, d.gauge, f is Aggregator.SIGMA, len(mu.universe), ({}, {}, {}))
    return ModelSet.from_bits(profile.universe, _least(levels, mu.bits))


class ScoreRow(record_type("ScoreRow", "interpretation per_base value")):
    """`value` is the aggregate that `_levels` groups by: the sum of
    `per_base` (sigma) or its descending tuple (gmax)."""

    __slots__ = ()


def score_table(profile: Profile, mu: ModelSet, d: CountingDistance, f: Aggregator):
    """Per-interpretation distance rows in ascending mask order, from the
    ring kernel `_rings` that `merge` reads."""
    _check_merge_inputs(profile.universe, d, mu)
    rows = {w: [] for w in _from_bits(mu.bits)}
    patterns = _atom_patterns(len(profile.universe))
    for base in profile.bases:
        for g, hit in _rings(base.models.bits, mu.bits, d.gauge, patterns):
            for w in _from_bits(hit):
                rows[w].append(g)
    universe, sigma = profile.universe, f is Aggregator.SIGMA
    return tuple(ScoreRow(Interpretation(universe, w), tuple(dists),
                          sum(dists) if sigma else tuple(sorted(dists, reverse=True)))
                 for w, dists in rows.items())


class Memo(dict):
    """What the answer tables of one `search` or checker call share, over one
    universe: each table function under (op, keys), and each operator's own
    part under a key of its own."""

    __slots__ = ("universe",)

    def __init__(self, universe: Universe):
        super().__init__()
        self.universe = universe


class MergeOperator:
    """Callable (profile, constraint) -> model set, not cached.  `answers`
    serves every constraint of one profile from one ring search per base."""

    def __init__(self, distance: CountingDistance, aggregator: Aggregator):
        self.distance = distance
        self.aggregator = aggregator

    @property
    def label(self) -> str:
        return f"merge({self.distance.name},{self.aggregator.value})"

    def __call__(self, profile: Profile, mu: ModelSet) -> ModelSet:
        return merge(profile, mu, self.distance, self.aggregator)

    def answers(self, keys: tuple, memo: Memo):
        """The table function over `keys`: bases -> (self(profile, mu).bits
        for each mu.bits in `keys`), on the profile with base bitsets `bases`,
        read as `merge` does off `_levels` of the keys' union, whose rings,
        groups and levels the memo keeps per gauge, aggregator and union.
        Profiles with equal levels share one table.  The gauge is checked
        once per memo."""
        within = reduce(or_, keys, 0)
        gauge, sigma, width = self.distance.gauge, self.aggregator is Aggregator.SIGMA, len(memo.universe)
        kept = memo.get((gauge, sigma, within))
        if kept is None:
            _check_merge_inputs(memo.universe, self.distance)
            kept = memo[gauge, sigma, within] = {}, {}, {}
        tables = {}

        def table(bases):
            levels = _levels(bases, within, gauge, sigma, width, kept)
            found = tables.get(levels)
            if found is None:
                # From a list: a tuple from a generator is resized, so it skips
                # its size's free list when made but fills it when freed.
                found = tables[levels] = tuple([_least(levels, bits) for bits in keys])
            return found

        return table

    def __repr__(self):
        return f"<{self.label}>"


def answer_table(op, keys: tuple, memo: Memo):
    """The table function of `op` over `keys`, bases -> (op(profile, mu).bits
    for each mu.bits in `keys`): `op.answers(keys, memo)` when the operator
    has it, else one call of `op` per key on a `Profile` built for the bases.
    The memo keeps one per (op, keys), so `op` must be hashable."""
    found = memo.get((op, keys))
    if found is None and hasattr(op, "answers"):
        found = memo[op, keys] = op.answers(keys, memo)
    elif found is None:
        universe, mus = memo.universe, [ModelSet.from_bits(memo.universe, bits) for bits in keys]

        def found(bases):
            profile = Profile.from_bits(universe, bases)
            return tuple([op(profile, mu).bits for mu in mus])

        memo[op, keys] = found
    return found
