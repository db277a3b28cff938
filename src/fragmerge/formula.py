"""Propositional formulas: parsing, printing, models, clause classification,
and synthesis of a fragment formula from a closed model set.

Grammar (ASCII, whitespace-insensitive):

    atoms       [a-z][a-z0-9_]*
    constants   T  F
    operators   !  &  |  ->  <->     (precedence high to low: ! & | -> <->)
    grouping    ( ... )

`&` and `|` associate to the left, `->` and `<->` to the right.  The printer
emits minimal parentheses with single spaces around binary operators, and
printing then re-parsing yields an equal tree.  Chains of one connective and
runs of `!` are read, printed and evaluated with loops, so their length is
not limited by the recursion limit; parentheses may nest MAX_NESTING deep.
"""

import functools
import itertools
import operator
import re
from dataclasses import dataclass
from enum import Enum

from .interp import (
    AND2,
    MAJ3,
    Fragment,
    ModelSet,
    Universe,
    _atom_patterns,
    _check_enum_size,
    _literal_falsifiers,
    closure_witness,
)


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownAtomError(ValueError):
    def __init__(self, name, position=None):
        at = f" (at position {position})" if position is not None else ""
        super().__init__(f"unknown atom {name!r}{at}")
        self.name = name
        self.position = position


class NotClosedError(ValueError):
    """Model set is not closed under the fragment's Boolean function."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class NoSyntacticFragmentError(ValueError):
    """Fragment has no clause language, or it cannot express the given set."""


class Formula:
    __slots__ = ()

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Const(Formula):
    value: bool


TOP = Const(True)
BOTTOM = Const(False)


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")
_TOKEN_RE = re.compile(
    rf"[ \t\r\n]*(?:(?P<atom>{_ATOM_RE.pattern})|(?P<const>[TF])|(?P<op><->|->|[!&|()]))"
)


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
        if m.lastgroup == "atom":
            tokens.append(("atom", m.group("atom"), m.start("atom")))
        elif m.lastgroup == "const":
            tokens.append(("const", m.group("const"), m.start("const")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


MAX_NESTING = 64


class _Parser:
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


def parse(text: str, universe: Universe) -> Formula:
    """Parse `text` into an AST; atom names must belong to `universe`."""
    parser = _Parser(_tokenize(text), universe, len(text))
    node = parser.iff()
    kind, text_, pos = parser.peek()
    if kind is not None:
        raise ParseError(f"trailing input {text_!r}", pos)
    return node


_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Atom: 6, Const: 6}
_SYMBOL = {Iff: "<->", Implies: "->", Or: "|", And: "&"}
_RIGHT_ASSOC = (Iff, Implies)


def _operands(phi) -> list:
    # Operands of the chain of phi's connective, left to right: left-deep
    # for & and |, right-deep for -> and <->.  Collected with a loop so long
    # chains print and evaluate without recursion.
    kind = type(phi)
    if kind in _RIGHT_ASSOC:
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


def _flatten(phi, kind):
    # Operands of nested `kind` nodes, left to right, without recursion.
    out, stack = [], [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            stack += (node.right, node.left)
        else:
            out.append(node)
    return out


def to_text(phi: Formula) -> str:
    """Print with minimal parentheses; inverse of `parse`."""
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
    for operand in _operands(phi):
        text = to_text(operand)
        parts.append(f"({text})" if _PREC[type(operand)] <= prec else text)
    return f" {_SYMBOL[type(phi)]} ".join(parts)


def _truth_bits(phi: Formula, universe: Universe, full: int) -> int:
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
        return flip ^ _truth_bits(phi, universe, full)
    if isinstance(phi, (And, Or)):
        combine = operator.and_ if isinstance(phi, And) else operator.or_
        operands = _flatten(phi, type(phi))
        return functools.reduce(combine, (_truth_bits(op, universe, full) for op in operands))
    if not isinstance(phi, _RIGHT_ASSOC):
        raise TypeError(f"not a formula node: {phi!r}")
    *lefts, bits = (_truth_bits(op, universe, full) for op in _operands(phi))
    for left in reversed(lefts):
        bits = (full ^ left) | bits if isinstance(phi, Implies) else full ^ (left ^ bits)
    return bits


def models(phi: Formula, universe: Universe) -> ModelSet:
    """Exact model set by enumerating all 2^|U| interpretations."""
    _check_enum_size(universe)
    full = (1 << (1 << len(universe))) - 1
    return ModelSet.from_bits(universe, _truth_bits(phi, universe, full))


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals, each a (atom name, positive?) pair.

    Tautological clauses (an atom in both polarities) can be represented so
    classification can report on arbitrary CNF input, but they are never
    generated for synthesis.
    """

    literals: frozenset

    @property
    def is_tautological(self) -> bool:
        names = [n for n, _ in self.literals]
        return len(set(names)) != len(names)

    @property
    def positive_count(self) -> int:
        return sum(1 for _, pos in self.literals if pos)

    def to_formula(self, universe: Universe = None) -> Formula:
        if not self.literals:
            return BOTTOM
        key = universe.index if universe is not None else (lambda n: n)
        lits = sorted(self.literals, key=lambda lit: (key(lit[0]), not lit[1]))
        parts = [Atom(n) if pos else Not(Atom(n)) for n, pos in lits]
        node = parts[0]
        for part in parts[1:]:
            node = Or(node, part)
        return node

    def __str__(self):
        return to_text(self.to_formula())


class ClauseKind(Enum):
    HORN = "horn"
    KROM = "krom"
    BOTH = "both"
    GENERAL = "general"


def _clause_kind(clause: Clause) -> ClauseKind:
    horn, krom = is_horn_clause(clause), is_krom_clause(clause)
    if horn and krom:
        return ClauseKind.BOTH
    if horn:
        return ClauseKind.HORN
    if krom:
        return ClauseKind.KROM
    return ClauseKind.GENERAL


@dataclass(frozen=True)
class Classification:
    is_cnf: bool
    clauses: tuple

    @property
    def horn(self) -> bool:
        return self.is_cnf and all(k in (ClauseKind.HORN, ClauseKind.BOTH) for _, k in self.clauses)

    @property
    def krom(self) -> bool:
        return self.is_cnf and all(k in (ClauseKind.KROM, ClauseKind.BOTH) for _, k in self.clauses)

    @property
    def verdict(self) -> str:
        if not self.is_cnf:
            return "non-cnf"
        if self.horn and self.krom:
            return "both"
        if self.horn:
            return "horn"
        if self.krom:
            return "krom"
        return "general"


def _literals(phi):
    lits = []
    for leaf in _flatten(phi, Or):
        if isinstance(leaf, Atom):
            lits.append((leaf.name, True))
        elif isinstance(leaf, Not) and isinstance(leaf.operand, Atom):
            lits.append((leaf.operand.name, False))
        else:
            return None
    return lits


def classify(phi: Formula) -> Classification:
    """Syntactic clause classification; no equivalence search.

    Accepts conjunctions of clauses; the constants T (empty conjunction) and
    F (single empty clause) are allowed at top level only.
    """
    if phi == TOP:
        return Classification(True, ())
    if phi == BOTTOM:
        empty = Clause(frozenset())
        return Classification(True, ((empty, _clause_kind(empty)),))
    kinds = []
    for conj in _flatten(phi, And):
        lits = _literals(conj)
        if lits is None:
            return Classification(False, ())
        clause = Clause(frozenset(lits))
        kinds.append((clause, _clause_kind(clause)))
    return Classification(True, tuple(kinds))


def is_horn_clause(clause: Clause) -> bool:
    return clause.positive_count <= 1


def is_krom_clause(clause: Clause) -> bool:
    return len(clause.literals) <= 2


HORN = Fragment("horn", AND2, is_horn_clause)
KROM = Fragment("krom", MAJ3, is_krom_clause)


def _clause_shapes(n: int, full: int, max_positive: int):
    # (literals, falsifier) of every non-tautological clause over n atoms
    # with at most `max_positive` positive literals, the empty clause
    # included: each atom is absent, negative, or positive while positives
    # remain.  Walked depth first, so the stack holds O(n) partial clauses.
    literals = _literal_falsifiers(n)
    stack = [((), full, 0, max_positive)]
    while stack:
        lits, falsifier, i, positives = stack.pop()
        if i == n:
            yield lits, falsifier
            continue
        (pos, pos_falsifier), (neg, neg_falsifier) = literals[2 * i:2 * i + 2]
        stack.append((lits, falsifier, i + 1, positives))
        stack.append((lits + (neg,), falsifier & neg_falsifier, i + 1, positives))
        if positives:
            stack.append((lits + (pos,), falsifier & pos_falsifier, i + 1, positives - 1))


def _krom_clauses(n: int, full: int):
    # (literals, falsifier) of every clause of at most two literals over n
    # atoms, the empty clause included; a clause's falsifier is the AND of
    # its literals' falsifiers.
    yield (), full
    literals = _literal_falsifiers(n)
    for k, (lit, falsifier) in enumerate(literals):
        yield (lit,), falsifier
        for other, other_falsifier in literals[k + 1:]:
            if other[0] != lit[0]:
                yield (lit, other), falsifier & other_falsifier


def _clause_pool(universe: Universe, predicate, target: int, full: int):
    # Yields ((size, text), truth table, clause) for every fragment clause
    # that all models in `target` satisfy; `text` equals str(clause), so the
    # sort keys are unique.  A clause holds in `target` when `target` misses
    # its falsifier.  Krom candidates are the 2n^2+1 clauses of at most two
    # literals, Horn candidates the (n+2)*2^(n-1) shapes with at most one
    # positive literal; any other predicate sees all 3^n shapes.  The empty
    # clause (falsifier `full`) fails for non-empty targets.
    n = len(universe)
    if predicate is is_krom_clause:
        shapes = _krom_clauses(n, full)
    elif predicate is is_horn_clause:
        shapes = _clause_shapes(n, full, 1)
    else:
        shapes = _clause_shapes(n, full, n)
    atoms = universe.atoms
    for lits, falsifier in shapes:
        if target & falsifier:
            continue
        named = sorted((atoms[i], pos) for i, pos in lits)
        clause = Clause(frozenset(named))
        if predicate(clause):
            text = " | ".join(name if pos else f"!{name}" for name, pos in named)
            yield (len(named), text), full ^ falsifier, clause


def synthesize(mset: ModelSet, fragment: Fragment, minimize: bool = False) -> Formula:
    """Formula of the fragment whose models are exactly `mset`.

    Conjoins every fragment clause satisfied by all members of `mset`, in
    (size, text) order; for the builtin Horn and Krom fragments this pins the
    model set exactly whenever it is closed under the fragment's function.
    Clauses and `mset` are compared as truth tables (ints, bit m for
    interpretation m).  With `minimize`, one pass in that order drops each
    clause entailed by the clauses kept before it and all clauses after it.
    """
    universe = mset.universe
    if fragment.clause_predicate is None:
        raise NoSyntacticFragmentError(
            f"fragment {fragment.name!r} has no clause predicate"
        )
    witness = closure_witness(fragment.beta, mset)
    if witness is not None:
        args, img = witness
        raise NotClosedError(
            f"model set is not closed under {fragment.beta}: "
            f"({', '.join(map(str, args))}) maps to {img}",
            witness=witness,
        )
    if not mset:
        first = Atom(universe.atoms[0])
        return And(first, Not(first))
    _check_enum_size(universe)
    full = (1 << (1 << len(universe))) - 1
    target = mset.bits
    pool = sorted(_clause_pool(universe, fragment.clause_predicate, target, full))
    # suffix[k] is the truth table of the conjunction of pool[k:].
    tables = reversed([bits for _, bits, _ in pool])
    suffix = list(itertools.accumulate(tables, operator.and_, initial=full))[::-1]
    if suffix[0] != target:
        raise NoSyntacticFragmentError(
            f"fragment {fragment.name!r} cannot express the given model set"
        )
    kept, prefix = [], full
    for k, (_, bits, clause) in enumerate(pool):
        if not minimize or prefix & suffix[k + 1] != target:
            kept.append(clause)
            prefix &= bits
    return _conjoin(kept, universe)


def _conjoin(clauses, universe) -> Formula:
    if not clauses:
        return TOP
    node = clauses[0].to_formula(universe)
    for clause in clauses[1:]:
        node = And(node, clause.to_formula(universe))
    return node
