"""Rationality postulates ic0..ic8 for merge operators, exhaustive
counterexample search over small fragment spaces, and a catalog of
reproducible fixtures with hard-coded expected tables.

All postulate checks run at the model level: entailment is set inclusion,
conjunction is intersection, consistency is non-emptiness.
"""

import itertools
import string
from functools import cached_property, reduce
from enum import Enum
from math import comb
from operator import add, and_

from .formula import HORN, KROM
from .interp import (
    AND2,
    MAJ3,
    MAX_INSTANCES,
    ModelSet,
    Universe,
    UniverseMismatchError,
    _count_text,
    closed_model_sets,
    model_sets,
    record_type,
)
from .merge import (
    Aggregator,
    CountingDistance,
    Memo,
    MergeOperator,
    Profile,
    answer_table,
    score_table,
)
from .refine import (
    ClosureRefinement,
    LexClosureRefinement,
    LexRefinement,
    RefinedOperator,
    cardintersection,
    is_fair,
)


class ShapeMismatchError(ValueError):
    """Instance does not have the shape the postulate needs."""


class SpaceTooLargeError(ValueError):
    """Search space exceeds the exhaustive-mode caps."""


class EmptySpaceError(ValueError):
    """The selected postulates have no instances in the search space."""


class UnknownFixtureError(KeyError):
    pass


class PostulateId(Enum):
    IC0 = "ic0"
    IC1 = "ic1"
    IC2 = "ic2"
    IC3 = "ic3"
    IC4 = "ic4"
    IC5 = "ic5"
    IC6 = "ic6"
    IC7 = "ic7"
    IC8 = "ic8"


ALL_POSTULATES = tuple(PostulateId)


class Instance(record_type("Instance", "profiles constraints")):
    """Profiles and constraints feeding one postulate check."""

    __slots__ = ()

    def encode(self) -> str:
        ps = ",".join(f"[{p.render()}]" for p in self.profiles)
        cs = ",".join(c.compact() or "{}" for c in self.constraints)
        return f"profiles={ps} constraints={cs}"


class Witness(record_type("Witness", "postulate instance operator message details")):
    """A reproduced postulate violation: `check_postulate` on the instance
    with the same operator yields the same details."""

    __slots__ = ()

    def render(self) -> str:
        lines = [
            f"{self.postulate.value} violated by {self.operator}: {self.message}",
            f"  {self.instance.encode()}",
        ]
        lines.extend(f"  {name} = {value}" for name, value in self.details)
        return "\n".join(lines)


class _Answers(dict):
    """Answer tables by profile, a tuple of base bitsets, for one `search` or
    `check_postulate` call, sharing one memo.  A table is a tuple over
    `keys`: the constraints' bitsets in order, then with `pairs` (ic7/ic8)
    each pair's conjunction; `index` gives each key's position.  `table` is
    the table function over `keys`, which makes one that is not kept, for
    ic3's flipped presentation; `function` gives it over other keys, for
    ic4's narrower ones."""

    def __init__(self, op, universe, bits, pairs):
        keys = dict.fromkeys(bits)
        if pairs:
            keys.update(dict.fromkeys(b1 & b2 for b1 in bits for b2 in bits))
        self.keys = tuple(keys)
        self.index = {b: i for i, b in enumerate(self.keys)}
        self.op, self.memo = op, Memo(universe)
        self.table = self.function(self.keys)

    def __missing__(self, profile):
        table = self[profile] = self.table(profile)
        return table

    def function(self, keys):
        return answer_table(self.op, keys, self.memo)


# Each shape's scan walks its instances over a space in search order and
# yields (profiles, constraints, values) for those `violated(*values)` flags,
# a profile as a tuple of base bitsets and a constraint as a bitset; the
# constraints hold the first positions of the tables.  Its `values` reads
# the same ints for one instance.
def _each_scan(answers, profiles, constraints, violated):
    for e in profiles:
        common = reduce(and_, e)
        for b, out in zip(constraints, answers[e]):
            if violated(out, b, common & b):
                yield (e,), (b,), (out, b, common & b)


def _each_values(answers, profiles, constraints):
    e, b = profiles[0], constraints[0]
    return answers[e][answers.index[b]], b, reduce(and_, e) & b


def _flipped_scan(answers, profiles, constraints, violated):
    for e in profiles:
        if len(e) > 1:
            flipped = e[::-1]
            for b, first, second in zip(constraints, answers[e], answers.table(flipped)):
                if violated(first, second):
                    yield (e, flipped), (b, b), (first, second)


def _flipped_values(answers, profiles, constraints):
    i = answers.index[constraints[0]]
    return answers[profiles[0]][i], answers.table(profiles[1])[i]


def _two_bases_scan(answers, profiles, constraints, violated):
    # Each two-base profile's answers by constraint, from its kept table or,
    # if it has none, from a new one over only the constraints holding both.
    bits, tables, holding = constraints, {}, {}
    for b in bits:
        inside = [i for i, k in enumerate(bits) if not k & ~b]
        for i, j in itertools.combinations_with_replacement(inside, 2):
            if (i, j) not in tables:
                e, both = (bits[i], bits[j]), bits[i] | bits[j]
                if both not in holding:
                    holding[both] = tuple(c for c in bits if not both & ~c)
                keys = answers.keys if e in answers else holding[both]
                tables[i, j] = e, dict(zip(keys, answers[e] if e in answers else answers.function(keys)(e)))
            e, table = tables[i, j]
            out = table[b]
            values = out, bool(out & bits[i]), bool(out & bits[j])
            if violated(*values):
                yield (e,), (b,), values


def _two_bases_values(answers, profiles, constraints):
    (k1, k2), b = profiles[0], constraints[0]
    out = answers[profiles[0]][answers.index[b]]
    return out, bool(out & k1), bool(out & k2)


def _two_bases_problem(profiles, constraints):
    if len(profiles[0]) != 2:
        return "ic4 needs a two-base profile"
    if any(k & ~constraints[0] for k in profiles[0]):
        return "ic4 needs both bases to entail the constraint"
    return None


def _two_bases_count(k, p, bits, width):
    # inside[mu] = bases within mu, by a subset sum over all 2^width sets
    inside = [0] * (1 << width)
    for b in bits:
        inside[b] = 1
    for i in range(width):
        step = 1 << i
        for hi in range(step, len(inside), 2 * step):
            inside[hi:hi + step] = map(add, inside[hi:hi + step], inside[hi - step:hi])
    return sum(inside[mu] * (inside[mu] + 1) // 2 for mu in bits)


def _pairs_scan(answers, profiles, constraints, violated):
    # Symmetric in the two profiles, so unordered pairs suffice.  A union's
    # table is kept by its presentation, like any profile's; an operator that
    # ignores base order shares its parts through its own memo.  Both rows
    # test an entailment between the joint and the union output, so neither
    # fires where they are equal.
    for i, e1 in enumerate(profiles):
        first = answers[e1]
        for e2 in profiles[i:]:
            for b, out1, out2, rhs in zip(constraints, first, answers[e2], answers[e1 + e2]):
                if out1 & out2 != rhs and violated(out1 & out2, rhs):
                    yield (e1, e2), (b,), (out1 & out2, rhs)


def _pairs_values(answers, profiles, constraints):
    (e1, e2), i = profiles, answers.index[constraints[0]]
    return answers.table(e1)[i] & answers.table(e2)[i], answers.table(e1 + e2)[i]


def _constraint_pairs_scan(answers, profiles, constraints, violated):
    # The tables hold each b1 & b2 (`_Answers` adds them for this shape), at
    # `conjoined[i][j]`.  Each distinct table is scanned once, for every
    # profile with it.  Both rows test an entailment between out & b2 and
    # the table's answer at b1 & b2: neither fires where the first is empty
    # or the two are equal.
    index, found = answers.index, {}
    conjoined = [[(b2, index[b1 & b2]) for b2 in constraints] for b1 in constraints]
    for e in profiles:
        table = answers[e]
        hits = found.get(table)
        if hits is None:
            hits = found[table] = []
            for b1, out, row in zip(constraints, table, conjoined):
                for b2, k in row:
                    lhs = out & b2
                    if lhs and lhs != table[k] and violated(lhs, table[k]):
                        hits.append(((b1, b2), (lhs, table[k])))
        for cs, hit in hits:
            yield (e,), cs, hit


def _constraint_pairs_values(answers, profiles, constraints):
    (b1, b2), index = constraints, answers.index
    table = answers[profiles[0]]
    return table[index[b1]] & b2, table[index[b1 & b2]]


class _Shape:
    """(profiles, constraints) of one instance, the scan and values above,
    the count from (bases, profiles, base bits, interpretations), and what
    is wrong with an instance checked on its own."""

    def __init__(self, sizes, scan, values, count, problem=None):
        self.sizes, self.scan, self.values, self.count, self.problem = sizes, scan, values, count, problem


_EACH = _Shape((1, 1), _each_scan, _each_values, lambda k, p, bits, width: p * k)
_FLIPPED = _Shape(
    (2, 2), _flipped_scan, _flipped_values, lambda k, p, bits, width: (p - k) * k,
    lambda ps, cs: (sorted(ps[0]) != sorted(ps[1]) or cs[0] != cs[1])
    and "ic3 needs equivalent profiles and constraints",
)
_TWO_BASES = _Shape((1, 1), _two_bases_scan, _two_bases_values, _two_bases_count, _two_bases_problem)
_PAIRS = _Shape((2, 1), _pairs_scan, _pairs_values, lambda k, p, bits, width: p * (p + 1) // 2 * k)
_CONSTRAINT_PAIRS = _Shape(
    (1, 2), _constraint_pairs_scan, _constraint_pairs_values, lambda k, p, bits, width: p * k * k
)


class Row:
    """One postulate: its shape, a test over the shape's values that is true
    on a violation, and the witness message with a detail name per value
    (None leaves the value out)."""

    def __init__(self, shape, violated, message, details):
        self.shape, self.violated, self.message, self.details = shape, violated, message, details

    def count(self, space) -> int:
        """Instances `search` checks for this postulate, without enumerating them."""
        bits = [s.bits for s in space.base_sets()]
        return self.shape.count(len(bits), space.profile_count, bits, 1 << space.atoms)


ROWS = {
    PostulateId.IC0: Row(_EACH, lambda out, mu, joint: out & ~mu,
                         "output does not entail the constraint", ("output", "constraint", None)),
    PostulateId.IC1: Row(_EACH, lambda out, mu, joint: mu and not out,
                         "consistent constraint but inconsistent output", (None, "constraint", None)),
    PostulateId.IC2: Row(_EACH, lambda out, mu, joint: joint and out != joint,
                         "profile agrees with the constraint but output differs",
                         ("output", None, "profile-and-constraint")),
    PostulateId.IC3: Row(_FLIPPED, lambda first, second: first != second,
                         "equivalent presentations give different outputs", ("first", "second")),
    PostulateId.IC4: Row(_TWO_BASES, lambda out, with1, with2: with1 != with2,
                         "output is consistent with exactly one of the two bases",
                         ("output", "meets-first", "meets-second")),
    PostulateId.IC5: Row(_PAIRS, lambda lhs, rhs: lhs & ~rhs,
                         "joint outputs do not entail the union output", ("joint", "union-output")),
    PostulateId.IC6: Row(_PAIRS, lambda lhs, rhs: lhs and rhs & ~lhs,
                         "union output does not entail the consistent joint outputs",
                         ("joint", "union-output")),
    PostulateId.IC7: Row(_CONSTRAINT_PAIRS, lambda lhs, rhs: lhs & ~rhs,
                         "restricted output does not entail the conjoined-constraint output",
                         ("restricted", "conjoined")),
    PostulateId.IC8: Row(_CONSTRAINT_PAIRS, lambda lhs, rhs: lhs and rhs & ~lhs,
                         "conjoined-constraint output does not entail the restricted output",
                         ("restricted", "conjoined")),
}


def _witness(pid, op, instance, values):
    universe = instance.profiles[0].universe
    details = tuple(
        (name, str(v) if isinstance(v, bool) else ModelSet.from_bits(universe, v).compact() or "none")
        for name, v in zip(ROWS[pid].details, values)
        if name
    )
    return Witness(pid, instance, getattr(op, "label", repr(op)), ROWS[pid].message, details)


def _instance(universe, profiles, constraints) -> Instance:
    """The instance of profiles and constraints given as bitsets."""
    return Instance(tuple(Profile.from_bits(universe, e) for e in profiles),
                    tuple(ModelSet.from_bits(universe, b) for b in constraints))


def check_postulate(pid: PostulateId, op, instance: Instance):
    """Evaluate one postulate on one instance; None on pass, else a Witness."""
    if pid not in ROWS:
        raise ShapeMismatchError(f"unknown postulate {pid!r}")
    shape, profiles, constraints = ROWS[pid].shape, instance.profiles, instance.constraints
    if (len(profiles), len(constraints)) != shape.sizes:
        n_profiles, n_constraints = shape.sizes
        raise ShapeMismatchError(f"need {n_profiles} profile(s) and {n_constraints} constraint(s), "
                                 f"got {len(profiles)} and {len(constraints)}")
    universe = profiles[0].universe
    if any(x.universe != universe for x in (*profiles, *constraints)):
        raise UniverseMismatchError("instance over different universes")
    ps = [tuple(b.models.bits for b in p.bases) for p in profiles]
    cs = [mu.bits for mu in constraints]
    problem = shape.problem and shape.problem(ps, cs)
    if problem:
        raise ShapeMismatchError(problem)
    values = shape.values(_Answers(op, universe, cs, shape is _CONSTRAINT_PAIRS), ps, cs)
    return _witness(pid, op, instance, values) if ROWS[pid].violated(*values) else None


class SearchSpace(record_type("SearchSpace", "atoms fragment max_profile_size max_bases postulates",
                              (None, 2, None, ALL_POSTULATES))):
    """Bounded instance enumeration: universe size, fragment shaping the
    base/constraint pool, profile size cap, and the postulates to run.
    Built only within the exhaustive caps: 1 to 4 atoms, profiles of at
    least 1 base and a base cap of at least 0 (or None, for no cap).
    Not slotted: `_base_sets` is a cached property."""

    def __new__(cls, *args, **kwargs):
        space = super().__new__(cls, *args, **kwargs)
        if space.atoms < 1:
            raise SpaceTooLargeError(f"the universe needs at least 1 atom, got {space.atoms}")
        if space.atoms > 4:
            raise SpaceTooLargeError(f"exhaustive mode caps the universe at 4 atoms, got {space.atoms}")
        if space.max_profile_size < 1:
            raise SpaceTooLargeError("profile size cap must be at least 1")
        if space.max_bases is not None and space.max_bases < 0:
            raise SpaceTooLargeError(f"base cap must be at least 0, got {space.max_bases}")
        return space

    @classmethod
    def _make(cls, iterable):
        # namedtuple's `_make`, and `_replace` through it, skip `__new__`.
        return cls(*iterable)

    @property
    def universe(self) -> Universe:
        return Universe(string.ascii_lowercase[: self.atoms])

    def base_sets(self) -> tuple:
        """The non-empty closed sets of the fragment (all non-empty sets when
        there is none), cut to max_bases: the pool of bases and constraints."""
        return self._base_sets

    @cached_property
    def _base_sets(self) -> tuple:
        # Built once per space: counting, profiles and search all read it.
        if self.fragment is not None:
            sets = closed_model_sets(self.fragment.beta, self.universe)
        else:
            sets = tuple(model_sets(self.universe, include_empty=False))
        return sets[: self.max_bases]

    @property
    def profile_count(self) -> int:
        """Number of profiles: multisets of 1 to max_profile_size bases."""
        k = len(self.base_sets())
        return comb(k + self.max_profile_size, k) - 1

    def profiles(self) -> tuple:
        universe = self.universe
        return tuple(Profile.from_bits(universe, e) for e in self._profile_bits())

    def _profile_bits(self) -> list:
        # Each profile as the sorted tuple of its base bitsets, in search order.
        bits = [s.bits for s in self.base_sets()]
        return [e for size in range(1, self.max_profile_size + 1)
                for e in itertools.combinations_with_replacement(bits, size)]

    def instances(self):
        """Plain (profile, constraint) pairs over the space."""
        return itertools.product(self.profiles(), self.base_sets())


def search(space: SearchSpace, op, limit: int = None):
    """Enumerate all instances of the selected postulates over the space, in
    deterministic order, and return the witnesses found (all, or the first
    `limit`).  A profile is a tuple of base bitsets.  Each profile, profile
    union (ic5/ic6) and flipped presentation (ic3) gets one whole answer
    table, from the operator's table function (`merge.answer_table`); each
    shape's `scan` then walks its instances as loops over ints and yields
    only the violations, and only those become `Instance`s.  Before any
    table is built, raises ValueError for a `limit` below 1,
    SpaceTooLargeError over MAX_INSTANCES instances and EmptySpaceError for
    none: finding no witness there shows nothing."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    pids = [pid for pid in ALL_POSTULATES if pid in space.postulates]
    total = sum(ROWS[pid].count(space) for pid in pids)
    if total > MAX_INSTANCES:
        raise SpaceTooLargeError(f"the selected postulates have {_count_text(total)} instances "
                                 f"in this space, over the budget of {MAX_INSTANCES:,}")
    if not total:
        raise EmptySpaceError("the selected postulates have no instances in this space")
    universe, constraints = space.universe, tuple(s.bits for s in space.base_sets())
    pairs = any(ROWS[pid].shape is _CONSTRAINT_PAIRS for pid in pids)
    profiles, answers = space._profile_bits(), _Answers(op, universe, constraints, pairs)
    witnesses = []
    for pid in pids:
        row = ROWS[pid]
        for ps, cs, values in row.shape.scan(answers, profiles, constraints, row.violated):
            witnesses.append(_witness(pid, op, _instance(universe, ps, cs), values))
            if limit is not None and len(witnesses) >= limit:
                return witnesses
    return witnesses


# ---------------------------------------------------------------------------
# Fixture catalog.  FIXTURES maps each id to (title, builder, spec), and
# `reproduce` runs builder(rows, **spec), which appends the fixture's cells
# in order.  A spec writes each model as the string of its true atoms.


class CheckRow(record_type("CheckRow", "label expected actual")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


class FixtureReport(record_type("FixtureReport", "fixture title rows")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def render_text(self) -> str:
        width = max((len(r.label) for r in self.rows), default=0)
        lines = [f"fixture {self.fixture}: {self.title}"]
        for r in self.rows:
            mark = "ok  " if r.ok else "FAIL"
            lines.append(f"  {mark} {r.label.ljust(width)}  expected {r.expected!r}")
            if not r.ok:
                lines.append(f"       {' ' * width}  actual   {r.actual!r}")
        lines.append(f"result: {'all cells match' if self.ok else 'MISMATCH'}")
        return "\n".join(lines)

    def records(self):
        return [("check", self.fixture, r.label, r.expected, r.actual, "pass" if r.ok else "fail")
                for r in self.rows]


class _Rows(list):
    """The cells of one fixture, in order."""

    def add(self, label, expected, actual):
        self.append(CheckRow(label, str(expected), str(actual)))

    def verdict(self, label, violated: bool):
        """A postulate or fairness result that the fixture expects violated."""
        self.add(label, "violated", "violated" if violated else "satisfied")

    def scores(self, e, mu, op, table, note=""):
        """The score table of `op` on (e, mu) against `table`, whose rows are
        (interpretation, distances, score), or (interpretation, score) to
        leave the per-base distances out."""
        for got, (w, *dists, score) in zip(score_table(e, mu, op.distance, op.aggregator), table):
            if dists:
                self.add(f"row {w} distances", dists[0], ",".join(map(str, got.per_base)))
            value = got.value if op.aggregator is Aggregator.SIGMA else f"({','.join(map(str, got.value))})"
            self.add(f"row {w} {op.aggregator.value}{note}", score, value)

    def pair(self, pid, ref, e1, e2, mu, expected, note=""):
        """`ref` on e1, e2 and their union against `expected`, then the
        verdict of ic5 or ic6 (`pid`) on the pair."""
        parts = {"first profile": e1, "second profile": e2, "union": e1.union(e2)}
        for (part, e), want in zip(parts.items(), expected):
            self.add(f"{ref.label} {part}", want, ref(e, mu))
        self.verdict(f"{pid.value} for {ref.label}{note}", _violated(pid, ref, (e1, e2), (mu,)))


def _violated(pid, op, profiles, constraints) -> bool:
    return check_postulate(pid, op, Instance(profiles, constraints)) is not None


def _problem(atoms, bases, mu):
    """A spec's profile and constraint, and the sum and gmax operators under
    the hamming distance."""
    u = Universe(atoms)
    e = Profile.from_model_sets(*(ModelSet.from_sets(u, *b) for b in bases))
    sig, gmax = (MergeOperator(CountingDistance.hamming(len(atoms)), agg) for agg in Aggregator)
    return e, ModelSet.from_sets(u, *mu), sig, gmax


def _fx_ex1(rows, atoms, bases, mu):
    e, mu, sig, gmax = _problem(atoms, bases, mu)
    rows.scores(e, mu, sig, (("{}", "1,1", "2"), ("{a}", "0,1", "1"), ("{b}", "1,0", "1")))
    rows.scores(e, mu, gmax, (("{}", "(1,1)"), ("{a}", "(1,0)"), ("{b}", "(1,0)")))
    rows.add("merge sigma", "{a}, {b}", sig(e, mu))
    rows.add("merge gmax", "{a}, {b}", gmax(e, mu))


def _fx_ex3(rows, atoms, bases, mu):
    e, mu, sig, _ = _problem(atoms, bases, mu)
    merged = sig(e, mu)
    rows.add("merge sigma", "{a}, {b}", merged)
    for name, kind, expected in (("lex", LexRefinement, "{a}"),
                                 ("closure", ClosureRefinement, "{}, {a}, {b}"),
                                 ("lex-closure", LexClosureRefinement, "{}, {a}, {b}")):
        rows.add(f"{name} refinement", expected, RefinedOperator(sig, kind(AND2))(e, mu))
    rows.add("bases met by merge", 2, cardintersection(merged, e))


def _fx_prop3(rows, atoms, bases, mu, beta, table, merged, lex):
    e, mu, sig, gmax = _problem(atoms, bases, mu)
    rows.scores(e, mu, sig, table)
    rows.add("merge sigma", merged, sig(e, mu))
    rows.add("merge gmax", merged, gmax(e, mu))
    for base_op in (sig, gmax):
        ref = RefinedOperator(base_op, LexRefinement(beta))
        out = ref(e, mu)
        rows.add(f"lex of {base_op.label}", lex, out)
        rows.add(f"bases met ({base_op.label})", 1, cardintersection(out, e))
        rows.verdict(f"ic4 for lex of {base_op.label}", _violated(PostulateId.IC4, ref, (e,), (mu,)))


def _fx_prop4(rows, atoms, bases, mu, beta, table, merged, closed):
    e, mu, _, gmax = _problem(atoms, bases, mu)
    rows.scores(e, mu, gmax, table)
    rows.add("merge gmax", merged, gmax(e, mu))
    ref = RefinedOperator(gmax, ClosureRefinement(beta))
    out = ref(e, mu)
    rows.add("closure refinement", closed, out)
    rows.add("bases met", 1, cardintersection(out, e))
    rows.verdict("ic4", _violated(PostulateId.IC4, ref, (e,), (mu,)))


def _fx_prop6_fairness(rows):
    for fragment in (HORN, KROM):
        instances = list(SearchSpace(atoms=2, fragment=fragment).instances())
        for agg in Aggregator:
            hamming = MergeOperator(CountingDistance.hamming(2), agg)
            drastic = MergeOperator(CountingDistance.drastic(2), agg)
            for base_op, kind in ((drastic, ClosureRefinement), (hamming, LexClosureRefinement),
                                  (drastic, LexClosureRefinement)):
                ref = RefinedOperator(base_op, kind(fragment.beta))
                found = is_fair(base_op, ref, instances).violations.get("fairness", [])
                rows.add(f"fairness of {ref.label} on {fragment.name} space", "0 violations",
                         f"{len(found)} violations")


def _fx_prop8_ic5(rows, atoms, bases, mu):
    union, mu, sig, gmax = _problem(atoms, bases, mu)
    e1, e2 = Profile(union.bases[:3]), Profile(union.bases[3:])
    rows.scores(union, mu, sig, (("{}", "1,1,1,0", "3"), ("{a}", "0,1,1,1", "3"), ("{b}", "1,0,1,0", "2"),
                                 ("{c}", "1,1,0,1", "3")))
    rows.scores(e1, mu, sig, (("{}", "3"), ("{a}", "2"), ("{b}", "2"), ("{c}", "2")), " (first profile)")
    for beta in (AND2, MAJ3):
        for base_op in (sig, gmax):
            for kind in (ClosureRefinement(beta), LexClosureRefinement(beta)):
                rows.pair(PostulateId.IC5, RefinedOperator(base_op, kind), e1, e2, mu,
                          ("{}, {a}, {b}, {c}", "{}, {b}", "{b}"), f" ({beta})")


def _fx_prop8_ic7(rows, atoms, bases, mu, beta, table, merged, first):
    e, mu1, sig, gmax = _problem(atoms, bases, mu)
    mu2 = ModelSet.from_sets(e.universe, "", "a")
    rows.scores(e, mu1, sig, table)
    if merged:
        rows.add("merge sigma", merged, sig(e, mu1))
    for base_op in (sig, gmax):
        for kind in (ClosureRefinement(beta), LexClosureRefinement(beta)):
            ref = RefinedOperator(base_op, kind)
            rows.add(f"{ref.label} under first constraint", first, ref(e, mu1))
            rows.add(f"{ref.label} restricted to second constraint", "{}, {a}", ref(e, mu1) & mu2)
            rows.add(f"{ref.label} under conjoined constraint", "{a}", ref(e, mu1 & mu2))
            rows.verdict(f"ic7 for {ref.label}", _violated(PostulateId.IC7, ref, (e,), (mu1, mu2)))


def _fx_prop9_ic4(rows):
    for fragment in (HORN, KROM):
        sig = MergeOperator(CountingDistance.hamming(2), Aggregator.SIGMA)
        ref = RefinedOperator(sig, ClosureRefinement(fragment.beta))
        found = search(SearchSpace(atoms=2, fragment=fragment, postulates=(PostulateId.IC4,)), ref)
        rows.add(f"ic4 witnesses for {ref.label} on {fragment.name} space", "0", len(found))


def _fx_prop10_nonfair(rows, atoms, bases, mu):
    e, mu, sig, _ = _problem(atoms, bases, mu)
    rows.scores(e, mu, sig, (("{a}", "0,6", "6"), ("{a,b,c}", "1,4", "5"), ("{a,d,e}", "1,4", "5"),
                             ("{a,f,g}", "1,4", "5")))
    merged = sig(e, mu)
    rows.add("merge sigma", "{a,b,c}, {a,d,e}, {a,f,g}", merged)
    rows.add("bases met by merge", 0, cardintersection(merged, e))
    for kind in (ClosureRefinement(AND2), ClosureRefinement(MAJ3)):
        ref = RefinedOperator(sig, kind)
        out = ref(e, mu)
        rows.add(f"{kind.label} refinement", "{a}, {a,b,c}, {a,d,e}, {a,f,g}", out)
        rows.add(f"bases met by {kind.label}", 1, cardintersection(out, e))
        rows.verdict(f"fairness of {kind.label}", not is_fair(sig, ref, [(e, mu)]).ok)


def _fx_prop11_ic6(rows, atoms, bases, mu):
    e1, mu, _, gmax = _problem(atoms, bases, mu)
    rows.scores(e1, mu, gmax, (("{}", "1,1,0", "(1,1,0)"), ("{a}", "0,1,0", "(1,0,0)"),
                               ("{b}", "1,0,0", "(1,0,0)"), ("{a,b}", "0,0,1", "(1,0,0)")))
    rows.add("merge gmax", "{a}, {b}, {a,b}", gmax(e1, mu))
    at_empty = Profile.from_model_sets(ModelSet.from_sets(mu.universe, ""))
    first_base = Profile(e1.bases[:1])
    for kind, e2, expected in (
        (ClosureRefinement(AND2), at_empty, ("{}, {a}, {b}, {a,b}", "{}", "{}, {a}, {b}")),
        (LexRefinement(AND2), first_base, ("{a}", "{a}, {a,b}", "{a}, {a,b}")),
        (LexClosureRefinement(AND2), at_empty, ("{}, {a}, {b}, {a,b}", "{}", "{}, {a}, {b}")),
    ):
        rows.pair(PostulateId.IC6, RefinedOperator(gmax, kind), e1, e2, mu, expected)


_EX = dict(atoms="ab", bases=(("a", "ab"), ("b", "ab")), mu=("", "a", "b"))
_HORN_ALL = ("", "a", "b", "ab")
_KROM_MU = ("", "a", "b", "c", "d", "ab", "cd")

FIXTURES = {
    "ex1": ("hamming distances with sum and gmax on a two-base profile", _fx_ex1, _EX),
    "ex3": ("the three refinements on a non-closed merge result", _fx_ex3, _EX),
    "prop3-horn": (
        "lex refinement breaks base symmetry (ic4), and-fragment", _fx_prop3,
        dict(atoms="ab", bases=(("", "a", "b"), ("ab",)), mu=_HORN_ALL, beta=AND2, table=(),
             merged="{a}, {b}, {a,b}", lex="{a}"),
    ),
    "prop3-krom": (
        "lex refinement breaks base symmetry (ic4), maj3-fragment", _fx_prop3,
        dict(atoms="abcd", bases=(("", "a", "b", "c", "d"), ("ab", "cd")), mu=_KROM_MU, beta=MAJ3,
             table=(("{}", "0,2", "2"), ("{a}", "0,1", "1"), ("{b}", "0,1", "1"), ("{a,b}", "1,0", "1"),
                    ("{c}", "0,1", "1"), ("{d}", "0,1", "1"), ("{c,d}", "1,0", "1")),
             merged="{a}, {b}, {a,b}, {c}, {d}, {c,d}", lex="{a}"),
    ),
    "prop4-horn": (
        "closure of a gmax merge breaks base symmetry (ic4), and-fragment", _fx_prop4,
        dict(atoms="ab", bases=(("",), ("ab",)), mu=_HORN_ALL, beta=AND2,
             table=(("{}", "0,2", "(2,0)"), ("{a}", "1,1", "(1,1)"), ("{b}", "1,1", "(1,1)"),
                    ("{a,b}", "2,0", "(2,0)")),
             merged="{a}, {b}", closed="{}, {a}, {b}"),
    ),
    "prop4-krom": (
        "closure of a gmax merge breaks base symmetry (ic4), maj3-fragment", _fx_prop4,
        dict(atoms="abcd", bases=(("",), ("ab", "cd")), mu=_KROM_MU, beta=MAJ3,
             table=(("{}", "0,2", "(2,0)"), ("{a}", "1,1", "(1,1)"), ("{b}", "1,1", "(1,1)"),
                    ("{a,b}", "2,0", "(2,0)"), ("{c}", "1,1", "(1,1)"), ("{d}", "1,1", "(1,1)"),
                    ("{c,d}", "2,0", "(2,0)")),
             merged="{a}, {b}, {c}, {d}", closed="{}, {a}, {b}, {c}, {d}"),
    ),
    "prop6-fairness": (
        "drastic-closure and lex-closure refinements are fair on exhaustive 2-atom spaces",
        _fx_prop6_fairness, {},
    ),
    "prop8-ic5": (
        "closure-style refinements break conjunction splitting (ic5)", _fx_prop8_ic5,
        # The first three bases are the first profile, the fourth the second.
        dict(atoms="abc", bases=(("a", "ab", "ac"), ("b", "ab", "bc"), ("c", "ac", "bc"), ("", "b")),
             mu=("", "a", "b", "c")),
    ),
    "prop8-ic7-horn": (
        "closure-style refinements break constraint conjunction (ic7), and-fragment", _fx_prop8_ic7,
        dict(atoms="ab", bases=(("a",), ("b",), ("ab",)), mu=("", "a", "b"), beta=AND2,
             table=(("{}", "1,1,2", "4"), ("{a}", "0,2,1", "3"), ("{b}", "2,0,1", "3")),
             merged="{a}, {b}", first="{}, {a}, {b}"),
    ),
    "prop8-ic7-krom": (
        "closure-style refinements break constraint conjunction (ic7), maj3-fragment", _fx_prop8_ic7,
        dict(atoms="abc", bases=(("a",), ("b",), ("c",), ("ab", "ac"), ("ab", "bc")),
             mu=("", "a", "b", "c"), beta=MAJ3, table=(("{}", "1,1,1,2,2", "7"), ("{a}", "0,2,2,1,1", "6"),
                               ("{b}", "2,0,2,1,1", "6"), ("{c}", "2,2,0,1,1", "6")),
             merged=None, first="{}, {a}, {b}, {c}"),
    ),
    "prop9-ic4": (
        "closure of a sum/hamming merge keeps base symmetry (ic4): exhaustive search", _fx_prop9_ic4, {},
    ),
    "prop10-nonfair": (
        "closure of a sum/hamming merge is not fair: seven-atom witness", _fx_prop10_nonfair,
        dict(atoms="abcdefg", bases=(("a", "ab", "ad", "af"), ("abcdefg",)),
             mu=("a", "abc", "ade", "afg")),
    ),
    "prop11-ic6": (
        "every refinement style of a gmax merge breaks conjunction covering (ic6)", _fx_prop11_ic6,
        dict(atoms="ab", bases=(("a", "ab"), ("b", "ab"), ("", "a", "b")), mu=_HORN_ALL),
    ),
}


def fixture_ids() -> tuple:
    return tuple(FIXTURES)


def reproduce(fixture_id: str) -> FixtureReport:
    """Recompute a shipped fixture and compare every cell against its
    hard-coded expected value."""
    try:
        title, builder, spec = FIXTURES[fixture_id]
    except KeyError:
        raise UnknownFixtureError(
            f"unknown fixture {fixture_id!r}; known: {', '.join(FIXTURES)}"
        ) from None
    rows = _Rows()
    builder(rows, **spec)
    return FixtureReport(fixture_id, title, tuple(rows))
