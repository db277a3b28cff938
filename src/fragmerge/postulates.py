"""Rationality postulates ic0..ic8 for merge operators, exhaustive
counterexample search over small fragment spaces, and a catalog of
reproducible fixtures with hard-coded expected tables.

All postulate checks run at the model level: entailment is set inclusion,
conjunction is intersection, consistency is non-emptiness.
"""

import itertools
import string
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .formula import HORN, KROM
from .interp import AND2, MAJ3, Fragment, ModelSet, Universe, closed_model_sets, model_sets
from .merge import (
    Aggregator,
    Base,
    CountingDistance,
    MergeOperator,
    Profile,
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


@dataclass(frozen=True)
class Instance:
    """Profiles and constraints feeding one postulate check."""

    profiles: tuple
    constraints: tuple

    def encode(self) -> str:
        ps = ",".join(f"[{p.render()}]" for p in self.profiles)
        cs = ",".join(c.compact() or "{}" for c in self.constraints)
        return f"profiles={ps} constraints={cs}"


@dataclass(frozen=True)
class Witness:
    """A reproduced postulate violation; re-checking the instance against the
    same operator yields the same details."""

    postulate: PostulateId
    instance: Instance
    operator: str
    message: str
    details: tuple

    def render(self) -> str:
        lines = [
            f"{self.postulate.value} violated by {self.operator}: {self.message}",
            f"  {self.instance.encode()}",
        ]
        lines.extend(f"  {name} = {value}" for name, value in self.details)
        return "\n".join(lines)

    def recheck(self, op) -> bool:
        again = check_postulate(self.postulate, op, self.instance)
        return again is not None and again.details == self.details


def _want(instance, n_profiles, n_constraints):
    if len(instance.profiles) != n_profiles or len(instance.constraints) != n_constraints:
        raise ShapeMismatchError(
            f"need {n_profiles} profile(s) and {n_constraints} constraint(s), "
            f"got {len(instance.profiles)} and {len(instance.constraints)}"
        )


@lru_cache(maxsize=None)
def _union(e1: Profile, e2: Profile) -> Profile:
    return e1.union(e2)


def _set(ms: ModelSet) -> str:
    return ms.compact() or "none"


def check_postulate(pid: PostulateId, op, instance: Instance):
    """Evaluate one postulate on one instance; None on pass, else a Witness."""
    label = getattr(op, "label", repr(op))

    def witness(message, details):
        return Witness(pid, instance, label, message, tuple(details))

    if pid in (PostulateId.IC0, PostulateId.IC1, PostulateId.IC2):
        _want(instance, 1, 1)
        (e,), (mu,) = instance.profiles, instance.constraints
        out = op(e, mu)
        if pid is PostulateId.IC0:
            if not out.issubset(mu):
                return witness(
                    "output does not entail the constraint",
                    [("output", _set(out)), ("constraint", _set(mu))],
                )
        elif pid is PostulateId.IC1:
            if mu and not out:
                return witness(
                    "consistent constraint but inconsistent output",
                    [("constraint", _set(mu))],
                )
        else:
            joint = e.common_models() & mu
            if joint and out != joint:
                return witness(
                    "profile agrees with the constraint but output differs",
                    [("output", _set(out)), ("profile-and-constraint", _set(joint))],
                )
        return None

    if pid is PostulateId.IC3:
        _want(instance, 2, 2)
        e1, e2 = instance.profiles
        mu1, mu2 = instance.constraints
        if e1 != e2 or mu1 != mu2:
            raise ShapeMismatchError("ic3 needs equivalent profiles and constraints")
        out1, out2 = op(e1, mu1), op(e2, mu2)
        if out1 != out2:
            return witness(
                "equivalent presentations give different outputs",
                [("first", _set(out1)), ("second", _set(out2))],
            )
        return None

    if pid is PostulateId.IC4:
        _want(instance, 1, 1)
        (e,), (mu,) = instance.profiles, instance.constraints
        if len(e.bases) != 2:
            raise ShapeMismatchError("ic4 needs a two-base profile")
        k1, k2 = e.bases
        if not (k1.models.issubset(mu) and k2.models.issubset(mu)):
            raise ShapeMismatchError("ic4 needs both bases to entail the constraint")
        out = op(e, mu)
        with1 = out.intersects(k1.models)
        with2 = out.intersects(k2.models)
        if with1 != with2:
            return witness(
                "output is consistent with exactly one of the two bases",
                [
                    ("output", _set(out)),
                    ("meets-first", str(with1)),
                    ("meets-second", str(with2)),
                ],
            )
        return None

    if pid in (PostulateId.IC5, PostulateId.IC6):
        _want(instance, 2, 1)
        e1, e2 = instance.profiles
        (mu,) = instance.constraints
        lhs = op(e1, mu) & op(e2, mu)
        rhs = op(_union(e1, e2), mu)
        if pid is PostulateId.IC5:
            if not lhs.issubset(rhs):
                return witness(
                    "joint outputs do not entail the union output",
                    [("joint", _set(lhs)), ("union-output", _set(rhs))],
                )
        else:
            if lhs and not rhs.issubset(lhs):
                return witness(
                    "union output does not entail the consistent joint outputs",
                    [("joint", _set(lhs)), ("union-output", _set(rhs))],
                )
        return None

    if pid in (PostulateId.IC7, PostulateId.IC8):
        _want(instance, 1, 2)
        (e,) = instance.profiles
        mu1, mu2 = instance.constraints
        lhs = op(e, mu1) & mu2
        rhs = op(e, mu1 & mu2)
        if pid is PostulateId.IC7:
            if not lhs.issubset(rhs):
                return witness(
                    "restricted output does not entail the conjoined-constraint output",
                    [("restricted", _set(lhs)), ("conjoined", _set(rhs))],
                )
        else:
            if lhs and not rhs.issubset(lhs):
                return witness(
                    "conjoined-constraint output does not entail the restricted output",
                    [("restricted", _set(lhs)), ("conjoined", _set(rhs))],
                )
        return None

    raise ShapeMismatchError(f"unknown postulate {pid!r}")


@dataclass(frozen=True)
class SearchSpace:
    """Bounded instance enumeration: universe size, fragment shaping the
    base/constraint pool, profile size cap, and the postulates to run."""

    atoms: int
    fragment: Fragment = None
    max_profile_size: int = 2
    max_bases: int = None
    postulates: tuple = ALL_POSTULATES

    @property
    def universe(self) -> Universe:
        return Universe(string.ascii_lowercase[: self.atoms])

    def base_sets(self) -> tuple:
        if self.fragment is not None:
            sets = closed_model_sets(self.fragment.beta, self.universe)
        else:
            sets = tuple(model_sets(self.universe, include_empty=False))
        if self.max_bases is not None:
            sets = sets[: self.max_bases]
        return sets

    def profiles(self) -> tuple:
        bases = tuple(Base(s) for s in self.base_sets())
        out = []
        for size in range(1, self.max_profile_size + 1):
            for combo in itertools.combinations_with_replacement(bases, size):
                out.append(Profile(combo))
        return tuple(out)

    def instances(self):
        """Plain (profile, constraint) pairs over the space."""
        profiles = self.profiles()
        constraints = self.base_sets()
        for e in profiles:
            for mu in constraints:
                yield e, mu


def _guard(space: SearchSpace):
    if space.atoms < 1:
        raise SpaceTooLargeError(f"the universe needs at least 1 atom, got {space.atoms}")
    if space.atoms > 4:
        raise SpaceTooLargeError(
            f"exhaustive mode caps the universe at 4 atoms, got {space.atoms}"
        )
    if space.max_profile_size < 1:
        raise SpaceTooLargeError("profile size cap must be at least 1")


def search(space: SearchSpace, op, limit: int = None):
    """Enumerate all instances of the selected postulates over the space, in
    deterministic order, and return the witnesses found (all, or the first
    `limit`).  Raises EmptySpaceError when no instance was checked, since
    finding no witness in an empty space shows nothing."""
    _guard(space)
    profiles = space.profiles()
    constraints = space.base_sets()
    witnesses = []
    checked = 0

    def run(pid, instances):
        nonlocal checked
        for instance in instances:
            checked += 1
            hit = check_postulate(pid, op, instance)
            if hit is not None:
                witnesses.append(hit)
                if limit is not None and len(witnesses) >= limit:
                    return True
        return False

    def simple_instances():
        for e in profiles:
            for mu in constraints:
                yield Instance((e,), (mu,))

    def ic3_instances():
        for e in profiles:
            if len(e.bases) < 2:
                continue
            flipped = Profile(tuple(reversed(e.bases)))
            for mu in constraints:
                yield Instance((e, flipped), (mu, mu))

    def ic4_instances():
        bases = tuple(Base(s) for s in constraints)
        for mu in constraints:
            inside = [b for b in bases if b.models.issubset(mu)]
            for i, k1 in enumerate(inside):
                for k2 in inside[i:]:
                    yield Instance((Profile((k1, k2)),), (mu,))

    def pair_instances():
        # Symmetric in the two profiles, so unordered pairs suffice.
        for i, e1 in enumerate(profiles):
            for e2 in profiles[i:]:
                for mu in constraints:
                    yield Instance((e1, e2), (mu,))

    def constraint_pair_instances():
        for e in profiles:
            for mu1 in constraints:
                for mu2 in constraints:
                    yield Instance((e,), (mu1, mu2))

    shapes = {
        PostulateId.IC0: simple_instances,
        PostulateId.IC1: simple_instances,
        PostulateId.IC2: simple_instances,
        PostulateId.IC3: ic3_instances,
        PostulateId.IC4: ic4_instances,
        PostulateId.IC5: pair_instances,
        PostulateId.IC6: pair_instances,
        PostulateId.IC7: constraint_pair_instances,
        PostulateId.IC8: constraint_pair_instances,
    }
    for pid in ALL_POSTULATES:
        if pid not in space.postulates:
            continue
        if run(pid, shapes[pid]()):
            break
    if not checked:
        raise EmptySpaceError("the selected postulates have no instances in this space")
    return witnesses


# ---------------------------------------------------------------------------
# Fixture catalog


@dataclass(frozen=True)
class CheckRow:
    label: str
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class FixtureReport:
    fixture: str
    title: str
    rows: tuple

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
        out = []
        for r in self.rows:
            out.append(
                (
                    "check",
                    self.fixture,
                    r.label,
                    r.expected,
                    r.actual,
                    "pass" if r.ok else "fail",
                )
            )
        return out


class _Rows:
    def __init__(self):
        self.rows = []

    def add(self, label, expected, actual):
        self.rows.append(CheckRow(label, str(expected), str(actual)))

    def verdict(self, label, witness_or_report, expect_violation=True):
        if isinstance(witness_or_report, bool):
            violated = witness_or_report
        elif witness_or_report is None:
            violated = False
        elif hasattr(witness_or_report, "ok"):
            violated = not witness_or_report.ok
        else:
            violated = True
        self.add(label, "violated" if expect_violation else "satisfied",
                 "violated" if violated else "satisfied")

    def done(self, fixture, title):
        return FixtureReport(fixture, title, tuple(self.rows))


def _table_rows(rows, tag, profile, mu, distance, aggregator, expected):
    """expected: list of (interp-label, per-base dists tuple, agg string)."""
    table = score_table(profile, mu, distance, aggregator)
    for score_row, (label, dists, agg) in zip(table, expected):
        rows.add(f"{tag} {label} distances", ",".join(map(str, dists)),
                 ",".join(map(str, score_row.per_base)))
        rows.add(f"{tag} {label} {aggregator.value}", agg, score_row.value)


def _ops(universe_size, distance_name="hamming"):
    dist = (
        CountingDistance.hamming(universe_size)
        if distance_name == "hamming"
        else CountingDistance.drastic(universe_size)
    )
    sig = MergeOperator(dist, Aggregator.SIGMA)
    gmax = MergeOperator(dist, Aggregator.GMAX)
    return sig, gmax


def _fx_ex1():
    u = Universe("ab")
    e = Profile.from_model_sets(
        ModelSet.from_sets(u, "a", "ab"), ModelSet.from_sets(u, "b", "ab")
    )
    mu = ModelSet.from_sets(u, "", "a", "b")
    sig, gmax = _ops(2)
    rows = _Rows()
    _table_rows(rows, "row", e, mu, sig.distance, Aggregator.SIGMA, [
        ("{}", (1, 1), "2"),
        ("{a}", (0, 1), "1"),
        ("{b}", (1, 0), "1"),
    ])
    gm = score_table(e, mu, gmax.distance, Aggregator.GMAX)
    for score_row, agg in zip(gm, ("(1,1)", "(1,0)", "(1,0)")):
        rows.add(f"row {score_row.interpretation} gmax", agg, score_row.value)
    rows.add("merge sigma", "{a}, {b}", sig(e, mu))
    rows.add("merge gmax", "{a}, {b}", gmax(e, mu))
    return rows.done("ex1", "hamming distances with sum and gmax on a two-base profile")


def _fx_ex3():
    u = Universe("ab")
    e = Profile.from_model_sets(
        ModelSet.from_sets(u, "a", "ab"), ModelSet.from_sets(u, "b", "ab")
    )
    mu = ModelSet.from_sets(u, "", "a", "b")
    sig, _ = _ops(2)
    rows = _Rows()
    merged = sig(e, mu)
    rows.add("merge sigma", "{a}, {b}", merged)
    lex = RefinedOperator(sig, LexRefinement(AND2))
    clo = RefinedOperator(sig, ClosureRefinement(AND2))
    both = RefinedOperator(sig, LexClosureRefinement(AND2))
    rows.add("lex refinement", "{a}", lex(e, mu))
    rows.add("closure refinement", "{}, {a}, {b}", clo(e, mu))
    rows.add("lex-closure refinement", "{}, {a}, {b}", both(e, mu))
    rows.add("bases met by merge", 2, cardintersection(merged, e))
    return rows.done("ex3", "the three refinements on a non-closed merge result")


def _fx_prop3_horn():
    u = Universe("ab")
    e = Profile.from_model_sets(
        ModelSet.from_sets(u, "", "a", "b"), ModelSet.from_sets(u, "ab")
    )
    mu = ModelSet.full(u)
    sig, gmax = _ops(2)
    rows = _Rows()
    rows.add("merge sigma", "{a}, {b}, {a,b}", sig(e, mu))
    rows.add("merge gmax", "{a}, {b}, {a,b}", gmax(e, mu))
    for base_op in (sig, gmax):
        ref = RefinedOperator(base_op, LexRefinement(AND2))
        out = ref(e, mu)
        rows.add(f"lex of {base_op.label}", "{a}", out)
        rows.add(f"bases met ({base_op.label})", 1, cardintersection(out, e))
        rows.verdict(
            f"ic4 for lex of {base_op.label}",
            check_postulate(PostulateId.IC4, ref, Instance((e,), (mu,))),
        )
    return rows.done("prop3-horn", "lex refinement breaks base symmetry (ic4), and-fragment")


def _fx_prop3_krom():
    u = Universe("abcd")
    k1 = ModelSet.from_sets(u, "", "a", "b", "c", "d")
    k2 = ModelSet.from_sets(u, "ab", "cd")
    e = Profile.from_model_sets(k1, k2)
    mu = ModelSet.from_sets(u, "", "a", "b", "c", "d", "ab", "cd")
    sig, gmax = _ops(4)
    rows = _Rows()
    _table_rows(rows, "row", e, mu, sig.distance, Aggregator.SIGMA, [
        ("{}", (0, 2), "2"),
        ("{a}", (0, 1), "1"),
        ("{b}", (0, 1), "1"),
        ("{a,b}", (1, 0), "1"),
        ("{c}", (0, 1), "1"),
        ("{d}", (0, 1), "1"),
        ("{c,d}", (1, 0), "1"),
    ])
    expected_merge = "{a}, {b}, {a,b}, {c}, {d}, {c,d}"
    rows.add("merge sigma", expected_merge, sig(e, mu))
    rows.add("merge gmax", expected_merge, gmax(e, mu))
    for base_op in (sig, gmax):
        ref = RefinedOperator(base_op, LexRefinement(MAJ3))
        out = ref(e, mu)
        rows.add(f"lex of {base_op.label}", "{a}", out)
        rows.add(f"bases met ({base_op.label})", 1, cardintersection(out, e))
        rows.verdict(
            f"ic4 for lex of {base_op.label}",
            check_postulate(PostulateId.IC4, ref, Instance((e,), (mu,))),
        )
    return rows.done("prop3-krom", "lex refinement breaks base symmetry (ic4), maj3-fragment")


def _fx_prop4_horn():
    u = Universe("ab")
    e = Profile.from_model_sets(ModelSet.from_sets(u, ""), ModelSet.from_sets(u, "ab"))
    mu = ModelSet.full(u)
    _, gmax = _ops(2)
    rows = _Rows()
    _table_rows(rows, "row", e, mu, gmax.distance, Aggregator.GMAX, [
        ("{}", (0, 2), "(2,0)"),
        ("{a}", (1, 1), "(1,1)"),
        ("{b}", (1, 1), "(1,1)"),
        ("{a,b}", (2, 0), "(2,0)"),
    ])
    rows.add("merge gmax", "{a}, {b}", gmax(e, mu))
    ref = RefinedOperator(gmax, ClosureRefinement(AND2))
    out = ref(e, mu)
    rows.add("closure refinement", "{}, {a}, {b}", out)
    rows.add("bases met", 1, cardintersection(out, e))
    rows.verdict("ic4", check_postulate(PostulateId.IC4, ref, Instance((e,), (mu,))))
    return rows.done("prop4-horn", "closure of a gmax merge breaks base symmetry (ic4), and-fragment")


def _fx_prop4_krom():
    u = Universe("abcd")
    e = Profile.from_model_sets(
        ModelSet.from_sets(u, ""), ModelSet.from_sets(u, "ab", "cd")
    )
    mu = ModelSet.from_sets(u, "", "a", "b", "c", "d", "ab", "cd")
    _, gmax = _ops(4)
    rows = _Rows()
    _table_rows(rows, "row", e, mu, gmax.distance, Aggregator.GMAX, [
        ("{}", (0, 2), "(2,0)"),
        ("{a}", (1, 1), "(1,1)"),
        ("{b}", (1, 1), "(1,1)"),
        ("{a,b}", (2, 0), "(2,0)"),
        ("{c}", (1, 1), "(1,1)"),
        ("{d}", (1, 1), "(1,1)"),
        ("{c,d}", (2, 0), "(2,0)"),
    ])
    rows.add("merge gmax", "{a}, {b}, {c}, {d}", gmax(e, mu))
    ref = RefinedOperator(gmax, ClosureRefinement(MAJ3))
    out = ref(e, mu)
    rows.add("closure refinement", "{}, {a}, {b}, {c}, {d}", out)
    rows.add("bases met", 1, cardintersection(out, e))
    rows.verdict("ic4", check_postulate(PostulateId.IC4, ref, Instance((e,), (mu,))))
    return rows.done("prop4-krom", "closure of a gmax merge breaks base symmetry (ic4), maj3-fragment")


def _fairness_suite():
    """(label, base op, refinement, fragment) for the fairness fixture."""
    jobs = []
    for fragment in (HORN, KROM):
        beta = fragment.beta
        for agg in (Aggregator.SIGMA, Aggregator.GMAX):
            drastic = MergeOperator(CountingDistance.drastic(2), agg)
            jobs.append((fragment, RefinedOperator(drastic, ClosureRefinement(beta))))
            for dist in (CountingDistance.hamming(2), CountingDistance.drastic(2)):
                base = MergeOperator(dist, agg)
                jobs.append((fragment, RefinedOperator(base, LexClosureRefinement(beta))))
    return jobs


def _fx_prop6_fairness():
    rows = _Rows()
    for fragment, refined in _fairness_suite():
        space = SearchSpace(atoms=2, fragment=fragment)
        report = is_fair(refined.base, refined, space.instances())
        rows.add(
            f"fairness of {refined.label} on {fragment.name} space",
            "0 violations",
            f"{len(report.witnesses)} violations",
        )
    return rows.done(
        "prop6-fairness",
        "drastic-closure and lex-closure refinements are fair on exhaustive 2-atom spaces",
    )


def _fx_prop8_ic5():
    u = Universe("abc")
    k1 = ModelSet.from_sets(u, "a", "ab", "ac")
    k2 = ModelSet.from_sets(u, "b", "ab", "bc")
    k3 = ModelSet.from_sets(u, "c", "ac", "bc")
    k4 = ModelSet.from_sets(u, "", "b")
    e1 = Profile.from_model_sets(k1, k2, k3)
    e2 = Profile.from_model_sets(k4)
    mu = ModelSet.from_sets(u, "", "a", "b", "c")
    sig, gmax = _ops(3)
    rows = _Rows()
    _table_rows(rows, "row", e1.union(e2), mu, sig.distance, Aggregator.SIGMA, [
        ("{}", (1, 1, 1, 0), "3"),
        ("{a}", (0, 1, 1, 1), "3"),
        ("{b}", (1, 0, 1, 0), "2"),
        ("{c}", (1, 1, 0, 1), "3"),
    ])
    sig_e1 = score_table(e1, mu, sig.distance, Aggregator.SIGMA)
    for score_row, agg in zip(sig_e1, ("3", "2", "2", "2")):
        rows.add(f"row {score_row.interpretation} sigma (first profile)", agg, score_row.value)
    instance = Instance((e1, e2), (mu,))
    for beta, tag in ((AND2, "and"), (MAJ3, "maj3")):
        for base_op in (sig, gmax):
            for kind in (ClosureRefinement(beta), LexClosureRefinement(beta)):
                ref = RefinedOperator(base_op, kind)
                rows.add(f"{ref.label} first profile", "{}, {a}, {b}, {c}", ref(e1, mu))
                rows.add(f"{ref.label} second profile", "{}, {b}", ref(e2, mu))
                rows.add(f"{ref.label} union", "{b}", ref(e1.union(e2), mu))
                rows.verdict(
                    f"ic5 for {ref.label} ({tag})",
                    check_postulate(PostulateId.IC5, ref, instance),
                )
    return rows.done("prop8-ic5", "closure-style refinements break conjunction splitting (ic5)")


def _fx_prop8_ic7_horn():
    u = Universe("ab")
    e = Profile.from_model_sets(
        ModelSet.from_sets(u, "a"), ModelSet.from_sets(u, "b"), ModelSet.from_sets(u, "ab")
    )
    mu1 = ModelSet.from_sets(u, "", "a", "b")
    mu2 = ModelSet.from_sets(u, "", "a")
    sig, gmax = _ops(2)
    rows = _Rows()
    _table_rows(rows, "row", e, mu1, sig.distance, Aggregator.SIGMA, [
        ("{}", (1, 1, 2), "4"),
        ("{a}", (0, 2, 1), "3"),
        ("{b}", (2, 0, 1), "3"),
    ])
    rows.add("merge sigma", "{a}, {b}", sig(e, mu1))
    instance = Instance((e,), (mu1, mu2))
    for base_op in (sig, gmax):
        for kind in (ClosureRefinement(AND2), LexClosureRefinement(AND2)):
            ref = RefinedOperator(base_op, kind)
            rows.add(f"{ref.label} under first constraint", "{}, {a}, {b}", ref(e, mu1))
            rows.add(
                f"{ref.label} restricted to second constraint",
                "{}, {a}",
                ref(e, mu1) & mu2,
            )
            rows.add(f"{ref.label} under conjoined constraint", "{a}", ref(e, mu1 & mu2))
            rows.verdict(
                f"ic7 for {ref.label}", check_postulate(PostulateId.IC7, ref, instance)
            )
    return rows.done(
        "prop8-ic7-horn", "closure-style refinements break constraint conjunction (ic7), and-fragment"
    )


def _fx_prop8_ic7_krom():
    u = Universe("abc")
    e = Profile.from_model_sets(
        ModelSet.from_sets(u, "a"),
        ModelSet.from_sets(u, "b"),
        ModelSet.from_sets(u, "c"),
        ModelSet.from_sets(u, "ab", "ac"),
        ModelSet.from_sets(u, "ab", "bc"),
    )
    mu1 = ModelSet.from_sets(u, "", "a", "b", "c")
    mu2 = ModelSet.from_sets(u, "", "a")
    sig, gmax = _ops(3)
    rows = _Rows()
    _table_rows(rows, "row", e, mu1, sig.distance, Aggregator.SIGMA, [
        ("{}", (1, 1, 1, 2, 2), "7"),
        ("{a}", (0, 2, 2, 1, 1), "6"),
        ("{b}", (2, 0, 2, 1, 1), "6"),
        ("{c}", (2, 2, 0, 1, 1), "6"),
    ])
    instance = Instance((e,), (mu1, mu2))
    for base_op in (sig, gmax):
        for kind in (ClosureRefinement(MAJ3), LexClosureRefinement(MAJ3)):
            ref = RefinedOperator(base_op, kind)
            rows.add(f"{ref.label} under first constraint", "{}, {a}, {b}, {c}", ref(e, mu1))
            rows.add(
                f"{ref.label} restricted to second constraint",
                "{}, {a}",
                ref(e, mu1) & mu2,
            )
            rows.add(f"{ref.label} under conjoined constraint", "{a}", ref(e, mu1 & mu2))
            rows.verdict(
                f"ic7 for {ref.label}", check_postulate(PostulateId.IC7, ref, instance)
            )
    return rows.done(
        "prop8-ic7-krom", "closure-style refinements break constraint conjunction (ic7), maj3-fragment"
    )


def _fx_prop9_ic4():
    rows = _Rows()
    for fragment, beta in ((HORN, AND2), (KROM, MAJ3)):
        sig = MergeOperator(CountingDistance.hamming(2), Aggregator.SIGMA)
        ref = RefinedOperator(sig, ClosureRefinement(beta))
        space = SearchSpace(atoms=2, fragment=fragment, postulates=(PostulateId.IC4,))
        found = search(space, ref)
        rows.add(
            f"ic4 witnesses for {ref.label} on {fragment.name} space",
            "0",
            len(found),
        )
    return rows.done(
        "prop9-ic4", "closure of a sum/hamming merge keeps base symmetry (ic4): exhaustive search"
    )


def _fx_prop10_nonfair():
    u = Universe("abcdefg")
    k1 = ModelSet.from_sets(u, "a", "ab", "ad", "af")
    k2 = ModelSet.from_sets(u, "abcdefg")
    e = Profile.from_model_sets(k1, k2)
    mu = ModelSet.from_sets(u, "a", "abc", "ade", "afg")
    sig = MergeOperator(CountingDistance.hamming(7), Aggregator.SIGMA)
    rows = _Rows()
    _table_rows(rows, "row", e, mu, sig.distance, Aggregator.SIGMA, [
        ("{a}", (0, 6), "6"),
        ("{a,b,c}", (1, 4), "5"),
        ("{a,d,e}", (1, 4), "5"),
        ("{a,f,g}", (1, 4), "5"),
    ])
    merged = sig(e, mu)
    rows.add("merge sigma", "{a,b,c}, {a,d,e}, {a,f,g}", merged)
    rows.add("bases met by merge", 0, cardintersection(merged, e))
    for beta, tag in ((AND2, "and"), (MAJ3, "maj3")):
        ref = RefinedOperator(sig, ClosureRefinement(beta))
        out = ref(e, mu)
        rows.add(f"closure({tag}) refinement", "{a}, {a,b,c}, {a,d,e}, {a,f,g}", out)
        rows.add(f"bases met by closure({tag})", 1, cardintersection(out, e))
        report = is_fair(sig, ref, [(e, mu)])
        rows.verdict(f"fairness of closure({tag})", report)
    return rows.done(
        "prop10-nonfair", "closure of a sum/hamming merge is not fair: seven-atom witness"
    )


def _fx_prop11_ic6():
    u = Universe("ab")
    k1 = ModelSet.from_sets(u, "a", "ab")
    k2 = ModelSet.from_sets(u, "b", "ab")
    k3 = ModelSet.from_sets(u, "", "a", "b")
    k4 = ModelSet.from_sets(u, "")
    e1 = Profile.from_model_sets(k1, k2, k3)
    mu = ModelSet.full(u)
    _, gmax = _ops(2)
    rows = _Rows()
    _table_rows(rows, "row", e1, mu, gmax.distance, Aggregator.GMAX, [
        ("{}", (1, 1, 0), "(1,1,0)"),
        ("{a}", (0, 1, 0), "(1,0,0)"),
        ("{b}", (1, 0, 0), "(1,0,0)"),
        ("{a,b}", (0, 0, 1), "(1,0,0)"),
    ])
    rows.add("merge gmax", "{a}, {b}, {a,b}", gmax(e1, mu))
    branches = (
        (ClosureRefinement(AND2), Profile.from_model_sets(k4),
         "{}, {a}, {b}, {a,b}", "{}", "{}, {a}, {b}"),
        (LexRefinement(AND2), Profile.from_model_sets(k1),
         "{a}", "{a}, {a,b}", "{a}, {a,b}"),
        (LexClosureRefinement(AND2), Profile.from_model_sets(k4),
         "{}, {a}, {b}, {a,b}", "{}", "{}, {a}, {b}"),
    )
    for kind, e2, first, second, union_out in branches:
        ref = RefinedOperator(gmax, kind)
        rows.add(f"{ref.label} first profile", first, ref(e1, mu))
        rows.add(f"{ref.label} second profile", second, ref(e2, mu))
        rows.add(f"{ref.label} union", union_out, ref(e1.union(e2), mu))
        rows.verdict(
            f"ic6 for {ref.label}",
            check_postulate(PostulateId.IC6, ref, Instance((e1, e2), (mu,))),
        )
    return rows.done(
        "prop11-ic6", "every refinement style of a gmax merge breaks conjunction covering (ic6)"
    )


FIXTURES = {
    "ex1": _fx_ex1,
    "ex3": _fx_ex3,
    "prop3-horn": _fx_prop3_horn,
    "prop3-krom": _fx_prop3_krom,
    "prop4-horn": _fx_prop4_horn,
    "prop4-krom": _fx_prop4_krom,
    "prop6-fairness": _fx_prop6_fairness,
    "prop8-ic5": _fx_prop8_ic5,
    "prop8-ic7-horn": _fx_prop8_ic7_horn,
    "prop8-ic7-krom": _fx_prop8_ic7_krom,
    "prop9-ic4": _fx_prop9_ic4,
    "prop10-nonfair": _fx_prop10_nonfair,
    "prop11-ic6": _fx_prop11_ic6,
}


def fixture_ids() -> tuple:
    return tuple(FIXTURES)


def reproduce(fixture_id: str) -> FixtureReport:
    """Recompute a shipped fixture and compare every cell against its
    hard-coded expected value."""
    try:
        builder = FIXTURES[fixture_id]
    except KeyError:
        raise UnknownFixtureError(
            f"unknown fixture {fixture_id!r}; known: {', '.join(FIXTURES)}"
        ) from None
    return builder()
