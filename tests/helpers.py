"""Shared builders for the test suite."""

import functools
import itertools
import operator
import re

from fragmerge import Aggregator, Base, Interpretation, ModelSet, Profile, Universe
from fragmerge.formula import (
    BOTTOM,
    HORN,
    KROM,
    MAX_NESTING,
    And,
    Atom,
    Cnf,
    Const,
    Iff,
    Implies,
    NoSyntacticFragmentError,
    NotClosedError,
    Not,
    Or,
    ParseError,
    TOP,
    UnknownAtomError,
    _clause_pool,
    models,
)
from fragmerge.interp import _atom_patterns, closure_witness
from fragmerge.postulates import Instance, PostulateId, ShapeMismatchError, Witness, check_postulate
from fragmerge.refine import MappingViolationError

U2 = Universe("ab")
U3 = Universe("abc")


def ms(universe, *atom_sets) -> ModelSet:
    """Model set from strings of single-letter atoms: ms(u, "", "a", "ab")."""
    return ModelSet.from_sets(universe, *atom_sets)


def slow_render(mset, sep) -> str:
    """Reference for `ModelSet.render`: each member's own text, joined."""
    return sep.join(str(w) for w in mset.members)


def prof(universe, *base_specs) -> Profile:
    """Profile from tuples of atom-strings: prof(u, ("a", "ab"), ("b",))."""
    return Profile(tuple(Base(ms(universe, *entry)) for entry in base_specs))


def common_models(profile) -> ModelSet:
    """Intersection of all base model sets (models of the whole profile)."""
    return functools.reduce(operator.and_, (b.models for b in profile.bases))


def is_tautological(clause) -> bool:
    """Whether the literal tuple holds some atom in both polarities."""
    names = [n for n, _ in clause]
    return len(set(names)) != len(names)


def recheck(witness, op) -> bool:
    """Whether checking the witness's instance against `op` again gives the
    same details."""
    again = check_postulate(witness.postulate, op, witness.instance)
    return again is not None and again.details == witness.details


class EchoConstraintOperator:
    """Deliberately broken 'refinement': always returns the constraint."""

    label = "echo-constraint"

    def __call__(self, profile, mu):
        return mu


class PresentationCache:
    """An operator whose answers are cached by presentation: the ordered
    base bits and the constraint bits.  The flipped side of an ic3 instance
    is another key, so the operator is still asked for it."""

    def __init__(self, op):
        self.op = op
        self.label = op.label
        self._answers = {}

    def __call__(self, profile, mu):
        key = (tuple(b.models.bits for b in profile.bases), mu.bits)
        out = self._answers.get(key)
        if out is None:
            out = self._answers[key] = self.op(profile, mu)
        return out


_SLOW_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:(?P<atom>[a-z][a-z0-9_]*)|(?P<const>[TF])|(?P<op><->|->|[!&|()]))"
)


def _slow_tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _SLOW_TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip(" \t\r\n")
            if not rest.strip():
                break
            raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _SlowParser:
    """Recursive descent, one method per precedence level."""

    def __init__(self, tokens, universe, length):
        self.tokens = tokens
        self.universe = universe
        self.length = length
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.length)

    def take_op(self, symbol):
        kind, text, _ = self.peek()
        if kind == "op" and text == symbol:
            self.i += 1
            return True
        return False

    def iff(self):
        return self.right_chain(Iff, "<->", self.implies)

    def implies(self):
        return self.right_chain(Implies, "->", self.disjunction)

    def right_chain(self, kind, symbol, operand):
        operands = [operand()]
        while self.take_op(symbol):
            operands.append(operand())
        node = operands.pop()
        for left in reversed(operands):
            node = kind(left, node)
        return node

    def disjunction(self):
        node = self.conjunction()
        while self.take_op("|"):
            node = Or(node, self.conjunction())
        return node

    def conjunction(self):
        node = self.unary()
        while self.take_op("&"):
            node = And(node, self.unary())
        return node

    def unary(self):
        negations = 0
        while self.take_op("!"):
            negations += 1
        node = self.primary()
        for _ in range(negations):
            node = Not(node)
        return node

    def primary(self):
        kind, text, pos = self.peek()
        if kind == "atom":
            self.i += 1
            if text not in self.universe:
                raise UnknownAtomError(text, pos)
            return Atom(text)
        if kind == "const":
            self.i += 1
            return TOP if text == "T" else BOTTOM
        if kind == "op" and text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested more than {MAX_NESTING} deep", pos)
            self.i += 1
            self.depth += 1
            node = self.iff()
            if not self.take_op(")"):
                raise ParseError("expected ')'", self.peek()[2])
            self.depth -= 1
            return node
        raise ParseError(f"expected a formula, found {text!r}" if kind else "unexpected end of input", pos)


def slow_parse(text, universe):
    """Oracle for `parse`: a token list with positions, then recursive
    descent over it."""
    parser = _SlowParser(_slow_tokenize(text), universe, len(text))
    node = parser.iff()
    kind, text_, pos = parser.peek()
    if kind is not None:
        raise ParseError(f"trailing input {text_!r}", pos)
    return node


_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Atom: 6, Const: 6}
_SYMBOL = {Iff: "<->", Implies: "->", Or: "|", And: "&"}


def _chain(phi):
    # Operands of the chain of phi's connective, left to right: left-deep
    # for & and |, right-deep for -> and <->.  Collected with a loop so long
    # chains print without recursion.
    kind = type(phi)
    if kind in (Iff, Implies):
        lefts = []
        while type(phi) is kind:
            lefts.append(phi.left)
            phi = phi.right
        return lefts + [phi]
    rights = []
    while type(phi) is kind:
        rights.append(phi.right)
        phi = phi.left
    rights.append(phi)
    return rights[::-1]


def to_text(phi) -> str:
    """Reference printer of a formula tree, with minimal parentheses: the
    oracle for `str(Cnf)`, and text that `parse` reads back to `phi`."""
    if isinstance(phi, Atom):
        return phi.name
    if isinstance(phi, Const):
        return "T" if phi.value else "F"
    if isinstance(phi, Not):
        negations = 0
        while isinstance(phi, Not):
            negations += 1
            phi = phi.operand
        inner = to_text(phi)
        if _PREC[type(phi)] < _PREC[Not]:
            inner = f"({inner})"
        return "!" * negations + inner
    # Each connective has its own precedence, so an operand of equal
    # precedence is one the chain did not absorb: it needs parentheses.
    prec = _PREC[type(phi)]
    parts = []
    for operand in _chain(phi):
        text = to_text(operand)
        parts.append(f"({text})" if _PREC[type(operand)] <= prec else text)
    return f" {_SYMBOL[type(phi)]} ".join(parts)


def conjoin(clauses):
    """The formula tree of a CNF given as literal tuples: each clause's
    literals joined by Or and the clauses by And, both left-deep; T for no
    clauses and F for the empty clause."""
    node = TOP
    for clause in clauses:
        literals = [Atom(name) if pos else Not(Atom(name)) for name, pos in clause]
        disjunction = functools.reduce(Or, literals) if literals else BOTTOM
        node = disjunction if node is TOP else And(node, disjunction)
    return node


def slow_verdict(clauses) -> str:
    """Reference for `Cnf.verdict`: the clauses counted against the Horn
    and Krom bounds here, not by `Fragment.admits`."""
    horn = all(within_bounds(HORN, clause) for clause in clauses)
    krom = all(within_bounds(KROM, clause) for clause in clauses)
    kinds = {(True, True): "both", (True, False): "horn", (False, True): "krom", (False, False): "general"}
    return kinds[horn, krom]


def slow_truth_bits(phi, universe):
    """Oracle for `models(phi, universe).bits`: recursion over the tree,
    with loops only along chains of one connective and runs of `!`."""
    return _slow_truth_bits(phi, universe, (1 << (1 << len(universe))) - 1)


def _slow_truth_bits(phi, universe, full):
    if isinstance(phi, Atom):
        try:
            i = universe.index(phi.name)
        except KeyError:
            raise UnknownAtomError(phi.name) from None
        return _atom_patterns(len(universe))[i]
    if isinstance(phi, Const):
        return full if phi.value else 0
    if isinstance(phi, Not):
        flip = 0
        while isinstance(phi, Not):
            flip ^= full
            phi = phi.operand
        return flip ^ _slow_truth_bits(phi, universe, full)
    kind = type(phi)
    if kind in (And, Or):
        # Down the left spine of the chain, then its right operands upward.
        rights = []
        while type(phi) is kind:
            rights.append(phi.right)
            phi = phi.left
        bits = _slow_truth_bits(phi, universe, full)
        for right in reversed(rights):
            right = _slow_truth_bits(right, universe, full)
            bits = bits & right if kind is And else bits | right
        return bits
    if kind not in (Implies, Iff):
        raise TypeError(f"not a formula node: {phi!r}")
    # Down the right spine of the chain, then its left operands upward.
    lefts = []
    while type(phi) is kind:
        lefts.append(phi.left)
        phi = phi.right
    bits = _slow_truth_bits(phi, universe, full)
    for left in reversed(lefts):
        left = _slow_truth_bits(left, universe, full)
        bits = (full ^ left) | bits if kind is Implies else full ^ (left ^ bits)
    return bits


def brute_force_closure(beta, mset):
    """Oracle: saturate by applying beta to every argument tuple, restarting
    from scratch each round (independent of the library's worklist)."""
    current = set(mset.masks)
    width = len(mset.universe)
    changed = True
    while changed:
        changed = False
        for tup in itertools.product(tuple(current), repeat=beta.arity):
            bits = 0
            for i in range(width):
                ones = sum(m >> i & 1 for m in tup)
                if beta.table[_index_of_weight(beta.arity, ones)]:
                    bits |= 1 << i
            if bits not in current:
                current.add(bits)
                changed = True
    return ModelSet(mset.universe, current)


def _index_of_weight(arity, ones):
    # Table index whose bit pattern has the requested number of ones.
    return (1 << ones) - 1


def slow_image(beta, tup, width):
    """Oracle: beta coordinate-wise on the masks `tup`, one bit at a time."""
    img = 0
    for i in range(width):
        if beta.by_weight[sum(m >> i & 1 for m in tup)]:
            img |= 1 << i
    return img


def slow_closure(beta, mset):
    """Oracle: the plain worklist fixpoint; every round applies beta to every
    multiset of the elements found so far."""
    width = len(mset.universe)
    current = set(mset.masks)
    while True:
        fresh = set()
        for tup in itertools.combinations_with_replacement(sorted(current), beta.arity):
            img = slow_image(beta, tup, width)
            if img not in current:
                fresh.add(img)
        if not fresh:
            return ModelSet(mset.universe, current)
        current |= fresh


def slow_closed_witness(beta, mset):
    """Oracle for `closure_witness`: the first argument multiset, in
    combinations_with_replacement order of the ascending members, whose
    image escapes `mset`, as (args, image) interpretations; None if closed."""
    width = len(mset.universe)
    members = set(mset.masks)
    for tup in itertools.combinations_with_replacement(mset.masks, beta.arity):
        img = slow_image(beta, tup, width)
        if img not in members:
            u = mset.universe
            return tuple(Interpretation(u, m) for m in tup), Interpretation(u, img)
    return None


def within_bounds(fragment, literals):
    """Whether (atom name, positive?) literals fit the fragment's clause
    bounds, counted here and not by `Fragment.admits`."""
    positives = [name for name, pos in literals if pos]
    return ((fragment.max_literals is None or len(literals) <= fragment.max_literals)
            and (fragment.max_positive is None or len(positives) <= fragment.max_positive))


def slow_clause_pool(universe, fragment, target, full):
    """Oracle for `formula._clause_pool`: every one of the 3^n clause shapes
    (each atom absent, positive or negative) within the fragment's bounds,
    its truth table built from per-interpretation literal tables."""
    n = len(universe)
    choices = []
    for i, name in enumerate(universe.atoms):
        pos = sum(1 << m for m in range(1 << n) if m >> i & 1)
        choices.append((((), 0), ((name, True), pos), ((name, False), full ^ pos)))
    for shape in itertools.product(*choices):
        bits = 0
        for _, lit_bits in shape:
            bits |= lit_bits
        if target & ~bits:
            continue
        lits = tuple(lit for lit, _ in shape if lit)
        if within_bounds(fragment, lits):
            yield (len(lits), clause_text(lits)), bits, lits


def slow_score_rows(profile, mu, d, f):
    """(mask, per-base distances, aggregate) for each constraint model in
    ascending mask order; each distance is a minimum over every
    (interpretation, model) pair, and the aggregate is their sum (sigma) or
    their descending tuple (gmax)."""
    rows = []
    for w in sorted(mu.masks):
        dists = tuple(
            min(d.gauge[(w ^ m).bit_count()] for m in b.models.masks) for b in profile.bases
        )
        rows.append((w, dists, sum(dists) if f is Aggregator.SIGMA else tuple(sorted(dists, reverse=True))))
    return rows


def slow_merge(profile, mu, d, f):
    """Oracle for `merge`: the pair loop that the ring kernel replaced."""
    rows = slow_score_rows(profile, mu, d, f)
    if not rows:
        return ModelSet(profile.universe)
    best = min(value for _, _, value in rows)
    return ModelSet(profile.universe, [w for w, _, value in rows if value == best])


def all_model_sets(universe, include_empty=True):
    n = 1 << len(universe)
    start = 0 if include_empty else 1
    for code in range(start, 1 << n):
        yield ModelSet(universe, (m for m in range(n) if code >> m & 1))


def fragment_clauses(universe, fragment):
    """Every non-empty, non-tautological clause within the fragment's
    bounds, each a tuple of (atom name, positive?) literals in universe
    order."""
    for shape in itertools.product((0, 1, 2), repeat=len(universe)):
        if not any(shape):
            continue
        lits = tuple((name, shape[i] == 1) for i, name in enumerate(universe.atoms) if shape[i])
        if within_bounds(fragment, lits):
            yield lits


def clause_text(clause) -> str:
    """A non-tautological clause printed with its literals in atom-name
    order: the text part of the pool's (size, text) order."""
    return " | ".join(name if pos else f"!{name}" for name, pos in sorted(clause))


def slow_synthesize(mset, fragment):
    """Oracle for `synthesize`: tests each clause model by model, builds the
    formula tree of every trial conjunction and enumerates its models."""
    universe = mset.universe
    if fragment.max_literals is None and fragment.max_positive is None:
        raise NoSyntacticFragmentError(f"fragment {fragment.name!r} has no clause language")
    witness = closure_witness(fragment.beta, mset)
    if witness is not None:
        raise NotClosedError("model set is not closed", witness=witness)
    if not mset.masks:
        first = universe.atoms[0]
        if not within_bounds(fragment, [(first, True)]):
            return Cnf(((),))
        return Cnf((((first, True),), ((first, False),)))
    pool = [
        clause
        for clause in fragment_clauses(universe, fragment)
        if all(
            any((m >> universe.index(n) & 1) == pos for n, pos in clause)
            for m in mset.masks
        )
    ]
    pool.sort(key=lambda c: (len(c), clause_text(c)))
    kept = list(pool)
    for clause in pool:
        trial = [c for c in kept if c is not clause]
        if models(conjoin(trial), universe) == mset:
            kept = trial
    if models(conjoin(kept), universe) != mset:
        raise NoSyntacticFragmentError(f"fragment {fragment.name!r} cannot express the set")
    return Cnf(tuple(kept))


def holding_pool(universe, fragment, target):
    """The keys of `formula._clause_pool` whose clauses hold in `target`, in
    key order, and the literals by rank; each clause's truth table built
    here from its literals' falsifiers."""
    full = (1 << (1 << len(universe))) - 1
    keys, literals = _clause_pool(universe, fragment.max_literals, fragment.max_positive)
    falsifiers = [functools.reduce(operator.and_, (literals[r][2] for r in key[1:]), full) for key in keys]
    return [key for key, falsifier in zip(keys, falsifiers) if not target & falsifier], literals


def greedy_synthesize(mset, fragment):
    """Reference for the scan of `synthesize` on a closed, non-empty `mset`:
    every pool clause's truth table and the suffix ANDs of the pool, held
    at once, and the greedy pass that tests each clause against them."""
    universe, target = mset.universe, mset.bits
    full = (1 << (1 << len(universe))) - 1
    keys, literals = holding_pool(universe, fragment, target)
    tables = [full ^ functools.reduce(operator.and_, (literals[r][2] for r in key[1:]), full)
              for key in keys]
    suffix = list(itertools.accumulate(reversed(tables), operator.and_, initial=full))[::-1]
    kept, prefix = [], full
    for k, key in enumerate(keys):
        if prefix & suffix[k + 1] != target:
            lits = sorted((literals[r][:2] for r in key[1:]), key=lambda lit: universe.index(lit[0]))
            kept.append(tuple(lits))
            prefix &= tables[k]
    if prefix != target:
        raise NoSyntacticFragmentError(f"fragment {fragment.name!r} cannot express the set")
    return Cnf(tuple(kept))


def _set(mset):
    return mset.compact() or "none"


def slow_check_postulate(pid, op, instance):
    """Oracle for `check_postulate`: the per-postulate if-chain on ModelSets
    that the postulate table replaced."""
    label = getattr(op, "label", repr(op))

    def witness(message, details):
        return Witness(pid, instance, label, message, tuple(details))

    def want(n_profiles, n_constraints):
        if len(instance.profiles) != n_profiles or len(instance.constraints) != n_constraints:
            raise ShapeMismatchError(
                f"need {n_profiles} profile(s) and {n_constraints} constraint(s), "
                f"got {len(instance.profiles)} and {len(instance.constraints)}"
            )

    if pid in (PostulateId.IC0, PostulateId.IC1, PostulateId.IC2):
        want(1, 1)
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
            joint = common_models(e) & mu
            if joint and out != joint:
                return witness(
                    "profile agrees with the constraint but output differs",
                    [("output", _set(out)), ("profile-and-constraint", _set(joint))],
                )
        return None

    if pid is PostulateId.IC3:
        want(2, 2)
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
        want(1, 1)
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
                [("output", _set(out)), ("meets-first", str(with1)), ("meets-second", str(with2))],
            )
        return None

    if pid in (PostulateId.IC5, PostulateId.IC6):
        want(2, 1)
        e1, e2 = instance.profiles
        (mu,) = instance.constraints
        lhs = op(e1, mu) & op(e2, mu)
        rhs = op(e1.union(e2), mu)
        if pid is PostulateId.IC5:
            if not lhs.issubset(rhs):
                return witness(
                    "joint outputs do not entail the union output",
                    [("joint", _set(lhs)), ("union-output", _set(rhs))],
                )
        elif lhs and not rhs.issubset(lhs):
            return witness(
                "union output does not entail the consistent joint outputs",
                [("joint", _set(lhs)), ("union-output", _set(rhs))],
            )
        return None

    if pid in (PostulateId.IC7, PostulateId.IC8):
        want(1, 2)
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
        elif lhs and not rhs.issubset(lhs):
            return witness(
                "conjoined-constraint output does not entail the restricted output",
                [("restricted", _set(lhs)), ("conjoined", _set(rhs))],
            )
        return None

    raise ShapeMismatchError(f"unknown postulate {pid!r}")


def slow_instances(pid, space):
    """The instances of one postulate over `space`, in search order, built
    one `Instance` at a time as the search did before the postulate table."""
    profiles = space.profiles()
    constraints = space.base_sets()
    if pid in (PostulateId.IC0, PostulateId.IC1, PostulateId.IC2):
        for e in profiles:
            for mu in constraints:
                yield Instance((e,), (mu,))
    elif pid is PostulateId.IC3:
        for e in profiles:
            if len(e.bases) < 2:
                continue
            flipped = Profile(tuple(reversed(e.bases)))
            for mu in constraints:
                yield Instance((e, flipped), (mu, mu))
    elif pid is PostulateId.IC4:
        bases = tuple(Base(s) for s in constraints)
        for mu in constraints:
            inside = [b for b in bases if b.models.issubset(mu)]
            for i, k1 in enumerate(inside):
                for k2 in inside[i:]:
                    yield Instance((Profile((k1, k2)),), (mu,))
    elif pid in (PostulateId.IC5, PostulateId.IC6):
        for i, e1 in enumerate(profiles):
            for e2 in profiles[i:]:
                for mu in constraints:
                    yield Instance((e1, e2), (mu,))
    else:
        for e in profiles:
            for mu1 in constraints:
                for mu2 in constraints:
                    yield Instance((e,), (mu1, mu2))


def slow_search(space, op, limit=None):
    """Oracle for `search`: every instance through `slow_check_postulate`,
    postulates in declaration order, stopping after `limit` witnesses."""
    witnesses = []
    for pid in PostulateId:
        if pid not in space.postulates:
            continue
        for instance in slow_instances(pid, space):
            hit = slow_check_postulate(pid, op, instance)
            if hit is not None:
                witnesses.append(hit)
                if limit is not None and len(witnesses) >= limit:
                    return witnesses
    return witnesses


_cached_slow_closure = functools.lru_cache(maxsize=None)(slow_closure)


def _slow_closed(beta, mset):
    return _cached_slow_closure(beta, mset) == mset


def slow_validate_mapping(mapping, universe):
    """Oracle for `validate_mapping`: the nested loop it replaced, closedness
    read off `slow_closure`.  Returns (checked, {property: (M, X, message)}),
    the first witness of each property; a pair counts against the first
    property it violates."""
    beta = mapping.beta
    all_sets = list(all_model_sets(universe))
    nonempty = [s for s in all_sets if s]
    checked, first = 0, {}
    for mset in all_sets:
        for size in (1, 2):
            for x in itertools.combinations_with_replacement(nonempty, size):
                checked += 1
                try:
                    out = mapping(mset, x)
                except MappingViolationError as exc:
                    hit = exc.prop, str(exc)
                else:
                    if not _slow_closed(beta, out):
                        hit = "closed_output", f"output {out!r} is not closed under {beta}"
                    elif not out.issubset(_cached_slow_closure(beta, mset)):
                        hit = "within_closure", f"output {out!r} escapes the closure of {mset!r}"
                    elif _slow_closed(beta, mset) and out != mset:
                        hit = "fixes_closed", f"closed input {mset!r} was changed to {out!r}"
                    elif mset and not out:
                        hit = "preserves_nonempty", f"non-empty input {mset!r} mapped to the empty set"
                    else:
                        continue
                first.setdefault(hit[0], (mset, x, hit[1]))
    return checked, first


def slow_check_refinement_properties(base_op, refined_op, beta, instances):
    """Oracle for `check_refinement_properties`: one hand-written test per
    property.  Returns (checked, {property: witness}), the first witness of
    each: the case (profile, mu, base output, refined output), or for
    equivalence the pair of cases with one profile and base output."""
    checked, first, groups = 0, {}, {}
    for profile, mu in instances:
        base_out = base_op(profile, mu)
        refined_out = refined_op(profile, mu)
        case = (profile, mu, base_out, refined_out)
        checked += 1
        if bool(base_out) != bool(refined_out):
            first.setdefault("consistency", case)
        if not refined_out.issubset(_cached_slow_closure(beta, base_out)):
            first.setdefault("containment", case)
        if _slow_closed(beta, base_out) and not base_out.issubset(refined_out):
            first.setdefault("invariance", case)
        seen = groups.get((profile, base_out))
        if seen is None:
            groups[(profile, base_out)] = case
        elif seen[3] != refined_out:
            first.setdefault("equivalence", (seen, case))
    return checked, first


def slow_is_fair(base_op, refined_op, instances, limit=None):
    """Oracle for `is_fair`: (checked, witnesses), each witness the case
    (profile, mu, base output, refined output) and the number of bases each
    output meets, stopping after `limit` witnesses."""
    checked, witnesses = 0, []
    for profile, mu in instances:
        base_out = base_op(profile, mu)
        refined_out = refined_op(profile, mu)
        checked += 1
        n_base = sum(1 for b in profile.bases if b.models.intersects(base_out))
        n_refined = sum(1 for b in profile.bases if b.models.intersects(refined_out))
        if n_base != 1 and n_refined == 1:
            witnesses.append((profile, mu, base_out, refined_out, n_base, n_refined))
            if limit is not None and len(witnesses) >= limit:
                break
    return checked, witnesses
