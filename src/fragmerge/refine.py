"""Refinements: turning a merge result into one that fits a fragment.

Every refinement is a mapping f(M, X), as in the paper's definition: a
callable from the merged model set M and the profile's model sets X to a
model set closed under the refinement's Boolean function `beta`.  Three are
shipped.  Closure-based replaces M by its closure; lex-based keeps a closed
M and otherwise collapses to the minimal model under a fixed total order;
lex/closure-based takes the lex branch exactly when M misses every base of
X, which keeps the refinement fair.  A user mapping, `BetaMapping`, must
satisfy four properties (closed output, output within the closure of M,
identity on closed M, non-emptiness); they are checked on every call.

Three checkers judge refinements case by case through one case loop and one
`CheckReport`: `validate_mapping` (the four mapping properties, on every
(M, X) of a small universe), `check_refinement_properties` (consistency,
containment, invariance, equivalence) and `is_fair`, on given instances.
"""

import itertools
from functools import reduce
from operator import or_

from .interp import (
    MAX_INSTANCES,
    BooleanFn,
    Interpretation,
    ModelSet,
    Universe,
    UniverseMismatchError,
    UniverseTooLargeError,
    _closure_bits,
    _count_text,
    _is_closed,
    closure,
    is_closed,
    model_sets,
    record_type,
)
from .merge import Memo, Profile, answer_table


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


class ClosureRefinement(record_type("ClosureRefinement", "beta")):
    __slots__ = ()

    @property
    def label(self):
        return f"closure({self.beta})"

    def __call__(self, mset: ModelSet, profile_models) -> ModelSet:
        return closure(self.beta, mset)

    # No M meets 0, so this reads nothing of X.
    reads = staticmethod(lambda profile_bits: 0)


class LexRefinement(record_type("LexRefinement", "beta order", (None,))):
    __slots__ = ()

    @property
    def label(self):
        return f"lex({self.beta})"

    def __call__(self, mset: ModelSet, profile_models) -> ModelSet:
        if is_closed(self.beta, mset):
            return mset
        order = self.order or LexOrder(mset.universe)
        return ModelSet.from_bits(mset.universe, 1 << order.minimum(mset).mask)

    reads = staticmethod(lambda profile_bits: 0)


class LexClosureRefinement(LexRefinement):
    __slots__ = ()

    @property
    def label(self):
        return f"lex-closure({self.beta})"

    def __call__(self, mset: ModelSet, profile_models) -> ModelSet:
        if any(mset.intersects(models) for models in profile_models):
            return closure(self.beta, mset)
        return super().__call__(mset, profile_models)

    @staticmethod
    def reads(profile_bits: tuple) -> int:
        # Whether M meets a base, all this reads of X, is whether it meets the union.
        return reduce(or_, profile_bits)


class BetaMapping(record_type("BetaMapping", "beta fn name", ("",), slice(None, None, 2))):
    """User refinement f(M, X) for a fixed Boolean function, checked against
    the four mapping properties on every call.  `fn` is not compared: the
    slice keeps `beta` and `name`."""

    __slots__ = ()

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


# The properties of each checker below, in the order a case is tested; a
# mapping case counts against the first one it violates.
MAPPING_PROPERTIES = (
    "closed_output",
    "within_closure",
    "fixes_closed",
    "preserves_nonempty",
)
REFINEMENT_PROPERTIES = ("consistency", "containment", "invariance", "equivalence")


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


class CheckReport:
    """What a checker below found: how many cases it `checked`, and
    `violations`, which maps each violated property to its witnesses (plain
    tuples, laid out as the checker's docstring says) in the order found."""

    __slots__ = ("properties", "checked", "violations")

    def __init__(self, properties):
        self.properties = properties
        self.checked = 0
        self.violations = {}

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [f"checked {self.checked} cases"]
        for prop in self.properties:
            found = self.violations.get(prop, ())
            lines += [f"VIOLATED {prop}: {witness}" for witness in found] or [f"ok {prop}"]
        return "\n".join(lines)


def _check(properties, cases, violated, keep=1):
    """The one case loop of the checkers below.  `violated(case)` yields a
    (property, witness) pair for each property that `case` violates, the
    witness as a function that builds it.  Each property keeps its first
    `keep` witnesses (all when `keep` is None), built only then."""
    report = CheckReport(properties)
    for case in cases:
        report.checked += 1
        for prop, witness in violated(case):
            found = report.violations.setdefault(prop, [])
            if keep is None or len(found) < keep:
                found.append(witness())
    return report


def validate_mapping(mapping, universe: Universe) -> CheckReport:
    """Check the four mapping properties of a refinement f(M, X) on every
    (M, X) pair of the bounded space: all model sets M over `universe`, all
    multisets X of one or two non-empty model sets.  Each property keeps its
    first witness (M, X, message).  Before any set is listed, raises
    UniverseTooLargeError over MAX_INSTANCES cases, as from 3 atoms on.
    """
    sets = 1 << (1 << len(universe))
    count = sets * (sets - 1 + (sets - 1) * sets // 2)  # M, then X of one or two sets
    if count > MAX_INSTANCES:
        raise UniverseTooLargeError(f"validate_mapping has {_count_text(count)} cases over "
                                    f"{len(universe)} atoms, over the budget of {MAX_INSTANCES:,}")
    all_sets = tuple(model_sets(universe))
    nonempty = tuple(s for s in all_sets if s)
    profiles = [x for size in (1, 2)
                for x in itertools.combinations_with_replacement(nonempty, size)]

    # A BetaMapping checks its own output, and raises.
    check = (lambda *_: None) if isinstance(mapping, BetaMapping) else _mapping_violation

    def violated(case):
        try:
            hit = check(mapping.beta, case[0], mapping(*case))
        except MappingViolationError as exc:
            hit = exc.prop, str(exc)
        if hit:
            yield hit[0], lambda: (*case, hit[1])

    return _check(MAPPING_PROPERTIES, itertools.product(all_sets, profiles), violated)


def _outputs(base_op, refined_op, instances):
    """Each instance (profile, mu) as (profile, mu, multiset, base output,
    refined output): the multiset is (universe, sorted base bitsets), and the
    outputs are bitsets read off one table of each operator (one memo for
    both, per universe) for each run of instances of one profile object, over
    the run's constraints.  Listed, the instances keep each profile, and so
    its `id`, alive."""
    instances, memos = list(instances), {}
    for _, run in itertools.groupby(instances, lambda instance: id(instance[0])):
        run = list(run)
        universe, bases = run[0][0].universe, tuple([b.models.bits for b in run[0][0].bases])
        if any(mu.universe != universe for _, mu in run):
            raise UniverseMismatchError("constraint and profile over different universes")
        keys = tuple(dict.fromkeys([mu.bits for _, mu in run]))
        memo = memos.get(universe) or memos.setdefault(universe, Memo(universe))
        base, refined = (dict(zip(keys, answer_table(op, keys, memo)(bases))) for op in (base_op, refined_op))
        multiset = universe, tuple(sorted(bases))
        for profile, mu in run:
            yield profile, mu, multiset, base[mu.bits], refined[mu.bits]


def _case(case):
    """A checker's witness case: (profile, mu, base output, refined output)."""
    profile, mu, _, base_out, refined_out = case
    return profile, mu, *(ModelSet.from_bits(mu.universe, bits) for bits in (base_out, refined_out))


def check_refinement_properties(base_op, refined_op, beta: BooleanFn, instances) -> CheckReport:
    """Consistency, containment, invariance and equivalence of `refined_op`
    against `base_op` over the given (profile, constraint) instances.  Each
    property keeps its first witness, the case (profile, mu, base output,
    refined output).  Equivalence groups the instances with equal profiles
    (as multisets) and base outputs, which must all get one refined output;
    its witness is a pair of cases."""
    groups = {}

    def violated(case):
        _, mu, multiset, base_out, refined_out = case
        width, witness = len(mu.universe), lambda: _case(case)
        if bool(base_out) != bool(refined_out):
            yield "consistency", witness
        if refined_out & ~_closure_bits(beta, base_out, width):
            yield "containment", witness
        if base_out & ~refined_out and _is_closed(beta, base_out, width):
            yield "invariance", witness
        first = groups.setdefault((multiset, base_out), case)
        if first[4] != refined_out:
            yield "equivalence", lambda: (_case(first), _case(case))

    return _check(REFINEMENT_PROPERTIES, _outputs(base_op, refined_op, instances), violated)


def is_fair(base_op, refined_op, instances) -> CheckReport:
    """Find instances where the base output meets a number of bases other
    than one but the refined output meets exactly one.  Every witness, the
    case and the number of bases each output meets, is kept."""

    def violated(case):
        (_, bases), base_out, refined_out = case[2:]
        if sum(1 for b in bases if refined_out & b) == 1:
            n_base = sum(1 for b in bases if base_out & b)
            if n_base != 1:
                yield "fairness", lambda: _case(case) + (n_base, 1)

    cases = _outputs(base_op, refined_op, instances)
    return _check(("fairness",), cases, violated, keep=None)


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

    def answers(self, keys: tuple, memo: Memo):
        """The table function over `keys`: bases -> (self(profile, mu).bits
        for each mu.bits in `keys`), on the presentation `bases` of the
        profile.  Of its model sets X, the refinement reads whether the base
        output M meets the bitset `kind.reads(bases)` when the kind has
        `reads`, else all of X in order.  It runs once per (M, what it reads)
        in a memo, and a table is made once per (base table, what it reads)."""
        base_table, kind, universe = answer_table(self.base, keys, memo), self.kind, memo.universe
        reads = getattr(kind, "reads", None)
        outs, tables = memo.get(self) or memo.setdefault(self, {}), {}

        def table(bases):
            base = base_table(bases)
            x = bases if reads is None else reads(bases)
            found = tables.get((base, x))
            if found is None:
                models, found = None, []
                for bits, out in zip(keys, base):
                    if out & ~bits:
                        raise ValueError(_OUTSIDE)
                    seen = x if reads is None else out & x != 0
                    refined = outs.get((out, seen))
                    if refined is None:
                        models = models or tuple([ModelSet.from_bits(universe, b) for b in bases])
                        refined = outs[out, seen] = kind(ModelSet.from_bits(universe, out), models).bits
                    found.append(refined)
                found = tables[base, x] = tuple(found)
            return found

        return table

    def __repr__(self):
        return f"<{self.label}>"
