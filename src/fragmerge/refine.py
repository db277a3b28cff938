"""Refinements: turning a merge result into one that fits a fragment.

Every refinement is a mapping f(M, X), as in the paper's definition: a
callable from the merged model set M and the profile's model sets X to a
model set closed under the refinement's Boolean function `beta`.  Three are
shipped.  Closure-based replaces M by its closure; lex-based keeps a closed
M and otherwise collapses to the minimal model under a fixed total order;
lex/closure-based takes the lex branch exactly when M misses every base of
X, which keeps the refinement fair.  A user mapping, `BetaMapping`, must
satisfy four properties (closed output, output within the closure of M,
identity on closed M, non-emptiness); they are checked on every call and,
for any refinement, by exhaustive enumeration on small universes.
"""

import itertools
from dataclasses import dataclass, field

from .interp import (
    BooleanFn,
    Interpretation,
    ModelSet,
    Universe,
    UniverseMismatchError,
    closure,
    is_closed,
    model_sets,
)
from .merge import Profile, answer_fn


class MappingViolationError(ValueError):
    def __init__(self, message, prop, models, profile_models):
        super().__init__(message)
        self.prop = prop
        self.models = models
        self.profile_models = profile_models


class LexOrder:
    """Total order on interpretations of one universe.

    Default is ascending integer value of the bit-vector.  An explicit list
    of interpretations may be given; listed ones come first in that order,
    the rest follow by ascending value.
    """

    __slots__ = ("universe", "first")

    def __init__(self, universe: Universe, first=()):
        self.universe = universe
        self.first = tuple(first)
        seen = set()
        for w in self.first:
            if w.universe != universe:
                raise ValueError("order entries must share the universe")
            if w.mask in seen:
                raise ValueError(f"duplicate entry {w} in order")
            seen.add(w.mask)

    @classmethod
    def default(cls, universe: Universe) -> "LexOrder":
        return cls(universe)

    def minimum(self, mset: ModelSet) -> Interpretation:
        if mset.universe != self.universe:
            raise UniverseMismatchError("model set and order over different universes")
        bits = mset.bits
        if not bits:
            raise ValueError("empty model set has no minimum")
        for w in self.first:
            if bits >> w.mask & 1:
                return w
        return Interpretation(self.universe, (bits & -bits).bit_length() - 1)

    def __repr__(self):
        if not self.first:
            return "LexOrder(ascending)"
        return f"LexOrder({', '.join(str(w) for w in self.first)}, then ascending)"


@dataclass(frozen=True)
class ClosureRefinement:
    beta: BooleanFn

    @property
    def label(self):
        return f"closure({self.beta})"

    def __call__(self, mset: ModelSet, profile_models) -> ModelSet:
        return closure(self.beta, mset)


@dataclass(frozen=True)
class LexRefinement:
    beta: BooleanFn
    order: LexOrder = None

    @property
    def label(self):
        return f"lex({self.beta})"

    def __call__(self, mset: ModelSet, profile_models) -> ModelSet:
        if is_closed(self.beta, mset):
            return mset
        order = self.order or LexOrder.default(mset.universe)
        return ModelSet.from_bits(mset.universe, 1 << order.minimum(mset).mask)


@dataclass(frozen=True)
class LexClosureRefinement(LexRefinement):
    @property
    def label(self):
        return f"lex-closure({self.beta})"

    def __call__(self, mset: ModelSet, profile_models) -> ModelSet:
        if any(mset.intersects(models) for models in profile_models):
            return closure(self.beta, mset)
        return super().__call__(mset, profile_models)


@dataclass(frozen=True)
class BetaMapping:
    """User refinement f(M, X) for a fixed Boolean function, checked against
    the four mapping properties on every call."""

    beta: BooleanFn
    fn: object = field(compare=False)
    name: str = ""

    @property
    def label(self):
        return f"mapping({self.name or self.beta})"

    def __call__(self, mset: ModelSet, profile_models) -> ModelSet:
        out = self.fn(mset, profile_models)
        hit = _mapping_violation(self.beta, mset, out)
        if hit:
            prop, msg = hit
            raise MappingViolationError(
                f"mapping {self.name or self.beta} violates {prop}: {msg}",
                prop,
                mset,
                profile_models,
            )
        return out


def cardintersection(mset: ModelSet, profile: Profile) -> int:
    """Number of profile bases whose models meet `mset`."""
    if mset.universe != profile.universe:
        raise UniverseMismatchError("model set and profile over different universes")
    bits = mset.bits
    return sum(1 for b in profile.bases if bits & b.models.bits)


_OUTSIDE = "merge output must be contained in the constraint"


def refine(kind, delta_out: ModelSet, profile: Profile, mu: ModelSet) -> ModelSet:
    """Apply a refinement f(M, X) to an unrefined merge output.

    `delta_out` must be contained in the constraint it was computed under;
    the output is always closed under the refinement's function and is empty
    exactly when `delta_out` is.
    """
    if not delta_out.issubset(mu):
        raise ValueError(_OUTSIDE)
    return kind(delta_out, profile.mmod())


# The four mapping properties, by name.
MAPPING_PROPERTIES = (
    "closed_output",
    "within_closure",
    "fixes_closed",
    "preserves_nonempty",
)


def _mapping_violation(beta, mset, out):
    if not is_closed(beta, out):
        return "closed_output", f"output {out!r} is not closed under {beta}"
    if not out.issubset(closure(beta, mset)):
        return "within_closure", f"output {out!r} escapes the closure of {mset!r}"
    if is_closed(beta, mset) and out != mset:
        return "fixes_closed", f"closed input {mset!r} was changed to {out!r}"
    if mset and not out:
        return "preserves_nonempty", f"non-empty input {mset!r} mapped to the empty set"
    return None


@dataclass
class MappingReport:
    """Outcome of exhaustive mapping validation: first witness per property."""

    checked: int = 0
    violations: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [f"checked {self.checked} (models, profile-models) pairs"]
        for prop in MAPPING_PROPERTIES:
            if prop in self.violations:
                mset, x, msg = self.violations[prop]
                lines.append(f"VIOLATED {prop}: {msg} [models={mset!r}]")
            else:
                lines.append(f"ok {prop}")
        return "\n".join(lines)


def _multisets(items, max_size):
    for size in range(1, max_size + 1):
        yield from itertools.combinations_with_replacement(items, size)


def validate_mapping(mapping, universe: Universe, max_profile_size: int = 2) -> MappingReport:
    """Check the four mapping properties of a refinement f(M, X) on every
    (M, X) pair of the bounded space: all model sets M over `universe`, all
    multisets X of at most `max_profile_size` non-empty model sets.
    Intended for small universes.
    """
    report = MappingReport()
    all_sets = tuple(model_sets(universe))
    nonempty = tuple(s for s in all_sets if s)
    for mset in all_sets:
        for x in _multisets(nonempty, max_profile_size):
            report.checked += 1
            try:
                hit = _mapping_violation(mapping.beta, mset, mapping(mset, x))
            except MappingViolationError as exc:
                hit = exc.prop, str(exc)
            if hit:
                prop, msg = hit
                report.violations.setdefault(prop, (mset, x, msg))
    return report


@dataclass
class PropertyWitness:
    profile: Profile
    mu: ModelSet
    base_out: ModelSet
    refined_out: ModelSet
    note: str = ""

    def render(self) -> str:
        return (
            f"E=[{self.profile.render()}] mu={self.mu.compact() or '{}'} "
            f"base={self.base_out.compact() or 'none'} refined={self.refined_out.compact() or 'none'}"
            + (f" ({self.note})" if self.note else "")
        )


@dataclass
class RefinementReport:
    """The four refinement properties checked over enumerated instances."""

    checked: int = 0
    consistency: PropertyWitness = None
    containment: PropertyWitness = None
    invariance: PropertyWitness = None
    equivalence: tuple = None  # pair of PropertyWitness

    @property
    def ok(self) -> bool:
        return not (self.consistency or self.containment or self.invariance or self.equivalence)

    def render(self) -> str:
        lines = [f"checked {self.checked} instances"]
        for prop in ("consistency", "containment", "invariance"):
            wit = getattr(self, prop)
            lines.append(f"{'VIOLATED' if wit else 'ok'} {prop}" + (f": {wit.render()}" if wit else ""))
        if self.equivalence:
            a, b = self.equivalence
            lines.append(f"VIOLATED equivalence: {a.render()} vs {b.render()}")
        else:
            lines.append("ok equivalence")
        return "\n".join(lines)


def check_refinement_properties(base_op, refined_op, beta: BooleanFn, instances) -> RefinementReport:
    """Consistency, equivalence, containment, and invariance of `refined_op`
    against `base_op` over the given (profile, constraint) instances.

    Equivalence groups instances with equal profiles (as multisets) and equal
    base outputs: all such instances must get one refined output.
    """
    report = RefinementReport()
    groups = {}
    for profile, mu in instances:
        base_out = base_op(profile, mu)
        refined_out = refined_op(profile, mu)
        report.checked += 1
        if report.consistency is None and bool(base_out) != bool(refined_out):
            report.consistency = PropertyWitness(profile, mu, base_out, refined_out)
        if report.containment is None and not refined_out.issubset(closure(beta, base_out)):
            report.containment = PropertyWitness(profile, mu, base_out, refined_out)
        if report.invariance is None and is_closed(beta, base_out) and not base_out.issubset(refined_out):
            report.invariance = PropertyWitness(profile, mu, base_out, refined_out)
        key = (profile, base_out)
        seen = groups.get(key)
        if seen is None:
            groups[key] = (mu, refined_out)
        elif report.equivalence is None and seen[1] != refined_out:
            report.equivalence = (
                PropertyWitness(profile, seen[0], base_out, seen[1]),
                PropertyWitness(profile, mu, base_out, refined_out),
            )
    return report


@dataclass
class FairnessWitness:
    profile: Profile
    mu: ModelSet
    base_out: ModelSet
    refined_out: ModelSet
    base_count: int
    refined_count: int

    def render(self) -> str:
        return (
            f"E=[{self.profile.render()}] mu={self.mu.compact() or '{}'}: "
            f"base output {self.base_out.compact() or 'none'} meets {self.base_count} bases, "
            f"refined output {self.refined_out.compact() or 'none'} meets {self.refined_count}"
        )


@dataclass
class FairnessReport:
    checked: int = 0
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.witnesses

    def render(self) -> str:
        lines = [f"checked {self.checked} instances: " + ("fair" if self.ok else "NOT fair")]
        lines.extend(w.render() for w in self.witnesses)
        return "\n".join(lines)


def is_fair(base_op, refined_op, instances, limit: int = None) -> FairnessReport:
    """Find instances where the base output meets a number of bases other
    than one but the refined output meets exactly one."""
    report = FairnessReport()
    for profile, mu in instances:
        base_out = base_op(profile, mu)
        refined_out = refined_op(profile, mu)
        report.checked += 1
        n_base = cardintersection(base_out, profile)
        n_refined = cardintersection(refined_out, profile)
        if n_base != 1 and n_refined == 1:
            report.witnesses.append(
                FairnessWitness(profile, mu, base_out, refined_out, n_base, n_refined)
            )
            if limit is not None and len(report.witnesses) >= limit:
                break
    return report


class RefinedOperator:
    """Composition of a merge operator with a refinement, not cached."""

    def __init__(self, base, kind):
        self.base = base
        self.kind = kind

    @property
    def label(self) -> str:
        return f"{self.base.label}+{self.kind.label}"

    def __call__(self, profile: Profile, mu: ModelSet) -> ModelSet:
        return refine(self.kind, self.base(profile, mu), profile, mu)

    def answers(self, profile: Profile, within: ModelSet):
        """mu.bits -> self(profile, mu).bits for every mu inside `within`, on
        this presentation of `profile`.  A refinement f(M, X) sees only the
        base output M and the profile X, so it runs once per distinct M; the
        containment check of `refine` runs for every mu."""
        base = answer_fn(self.base, profile, within)
        kind, universe, models = self.kind, profile.universe, profile.mmod()
        refined = {}

        def answer(bits):
            out = base(bits)
            if out & ~bits:
                raise ValueError(_OUTSIDE)
            if out not in refined:
                refined[out] = kind(ModelSet.from_bits(universe, out), models).bits
            return refined[out]

        return answer

    def __repr__(self):
        return f"<{self.label}>"
