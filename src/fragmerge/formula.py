"""Propositional formulas: parsing, printing, models, clause classification,
and synthesis of a fragment formula from a closed model set.

Grammar (ASCII; spaces, tabs and line breaks may separate tokens, and any
whitespace may follow the last one):

    atoms       [a-z][a-z0-9_]*
    constants   T  F
    operators   !  &  |  ->  <->     (precedence high to low: ! & | -> <->)
    grouping    ( ... )

`&` and `|` associate to the left, `->` and `<->` to the right.  The printer
emits minimal parentheses with single spaces around binary operators, and
printing then re-parsing yields an equal tree.  `parse` checks the text with
one regular expression and builds the tree in one operator-precedence loop
on explicit stacks; `models` evaluates it with an explicit post-order stack.
Neither recurses, so only MAX_NESTING bounds how deep parentheses nest, and
chains of one connective and runs of `!` may be any length.  The printer
loops along chains and runs and recurses once per pair of parentheses.
"""

import functools
import operator
import re
from collections import namedtuple
from enum import Enum

from .interp import (
    AND2,
    MAJ3,
    Fragment,
    ModelSet,
    Universe,
    _atom_patterns,
    _from_bits,
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


class Formula(tuple):
    """Immutable formula node: a tuple of its class and its fields, so nodes
    compare and hash by (type, fields) without Python-level methods."""

    __slots__ = ()
    _fields = ()

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self[1:]))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self):
        return self[1:]


class Atom(Formula):
    __slots__ = ()
    _fields = ("name",)
    name = property(operator.itemgetter(1))

    def __new__(cls, name):
        return tuple.__new__(cls, (cls, name))


class Const(Formula):
    __slots__ = ()
    _fields = ("value",)
    value = property(operator.itemgetter(1))

    def __new__(cls, value):
        return tuple.__new__(cls, (cls, value))


TOP = Const(True)
BOTTOM = Const(False)


class Not(Formula):
    __slots__ = ()
    _fields = ("operand",)
    operand = property(operator.itemgetter(1))

    def __new__(cls, operand):
        return tuple.__new__(cls, (cls, operand))


class _Binary(Formula):
    __slots__ = ()
    _fields = ("left", "right")
    left = property(operator.itemgetter(1))
    right = property(operator.itemgetter(2))

    def __new__(cls, left, right):
        return tuple.__new__(cls, (cls, left, right))


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


MAX_NESTING = 64

# Each character can be matched in one way only: an atom must end where no
# atom character follows, and the whitespace before a token is not also
# whitespace after the last one.  So a text that does not match fails in
# linear time, without trying other splits.
_TOKEN = r"[a-z][a-z0-9_]*(?![a-z0-9_])|[TF]|<->|->|[!&|()]"
_TOKEN_RE = re.compile(_TOKEN)
_TOKENS = rf"(?:[ \t\r\n]*(?:{_TOKEN}))*"
_PREFIX_RE = re.compile(rf"{_TOKENS}[ \t\r\n]*")
_TEXT_RE = re.compile(rf"{_TOKENS}\s*")

# Connective -> (class, rank, threshold).  Before a connective is pushed,
# pending connectives of rank >= its threshold are applied, so & and | group
# to the left and -> and <-> to the right.  An open parenthesis, and the
# bottom of the stack, have rank 0 and are never applied.
_CONNECTIVES = {"&": (And, 4, 4), "|": (Or, 3, 3), "->": (Implies, 2, 3), "<->": (Iff, 1, 2)}
_OPEN = (None, 0, 0)
# What the node constructors do, without their Python-level frame.
_new = tuple.__new__


@functools.lru_cache(maxsize=64)
def _leaves(universe):
    # Token -> node for the constants and the universe's atoms.
    leaves = {name: Atom(name) for name in universe.atoms}
    return {**leaves, "T": TOP, "F": BOTTOM}


def _position(text, k):
    # Start of token k, or the end of the text for the token after the last;
    # only errors need positions.
    return ([m.start() for m in _TOKEN_RE.finditer(text)] + [len(text)])[k]


def parse(text: str, universe: Universe) -> Formula:
    """Parse `text` into an AST; atom names must belong to `universe`."""
    if _TEXT_RE.fullmatch(text) is None:
        pos = _PREFIX_RE.match(text).end()
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    leaves = _leaves(universe)
    operands, pending, groups = [], [_OPEN], []  # groups: '!' count before each open '('
    negations = 0
    want_operand = True
    for k, tok in enumerate(tokens):
        if want_operand:
            node = leaves.get(tok)
            if node is None:
                if tok == "!":
                    negations += 1
                    continue
                if tok == "(":
                    if len(groups) == MAX_NESTING:
                        raise ParseError(f"parentheses nested more than {MAX_NESTING} deep",
                                         _position(text, k))
                    groups.append(negations)
                    pending.append(_OPEN)
                    negations = 0
                    continue
                if "a" <= tok[:1] <= "z":
                    raise UnknownAtomError(tok, _position(text, k))
                raise ParseError(f"expected a formula, found {tok!r}" if tok
                                 else "unexpected end of input", _position(text, k))
            if negations:
                for _ in range(negations):
                    node = _new(Not, (Not, node))
                negations = 0
            operands.append(node)
            want_operand = False
            continue
        # A connective, ')' or the end: first apply the pending connectives
        # that bind at least as tightly.
        entry = _CONNECTIVES.get(tok)
        threshold = entry[2] if entry else 1
        while pending[-1][1] >= threshold:
            kind = pending.pop()[0]
            right = operands.pop()
            operands[-1] = _new(kind, (kind, operands[-1], right))
        if entry:
            pending.append(entry)
            want_operand = True
        elif tok == ")" and groups:
            pending.pop()
            node = operands[-1]
            for _ in range(groups.pop()):
                node = _new(Not, (Not, node))
            operands[-1] = node
        elif groups:
            raise ParseError("expected ')'", _position(text, k))
        elif tok:
            raise ParseError(f"trailing input {tok!r}", _position(text, k))
        else:
            return operands[0]


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


def models(phi: Formula, universe: Universe) -> ModelSet:
    """Exact model set by enumerating all 2^|U| interpretations."""
    full = (1 << (1 << len(universe))) - 1
    tables = dict(zip(universe.atoms, _atom_patterns(len(universe))))
    # Post-order on an explicit stack: a node pushes its class, to combine
    # its operands' truth tables, then its operands, right above left.
    values, stack = [], [phi]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Atom:
            bits = tables.get(node[1])
            if bits is None:
                raise UnknownAtomError(node[1])
            values.append(bits)
        elif kind is type:
            if node is Not:
                values[-1] ^= full
                continue
            right = values.pop()
            if node is And:
                values[-1] &= right
            elif node is Or:
                values[-1] |= right
            elif node is Implies:
                values[-1] = (full ^ values[-1]) | right
            else:
                values[-1] = full ^ (values[-1] ^ right)
        elif kind is Not:
            stack += (Not, node[1])
        elif kind in _SYMBOL:
            stack += (kind, node[2], node[1])
        elif kind is Const:
            values.append(full if node[1] else 0)
        else:
            raise TypeError(f"not a formula node: {node!r}")
    return ModelSet.from_bits(universe, values[0])


class Clause(namedtuple("Clause", "literals")):
    """Disjunction of literals, each a (atom name, positive?) pair.

    Tautological clauses (an atom in both polarities) can be represented so
    classification can report on arbitrary CNF input, but they are never
    generated for synthesis.
    """

    __slots__ = ()

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


HORN = Fragment("horn", AND2, max_positive=1)
KROM = Fragment("krom", MAJ3, max_literals=2)

# (Horn?, Krom?) -> kind, for a clause and for a whole CNF.
_KINDS = {(True, True): ClauseKind.BOTH, (True, False): ClauseKind.HORN,
          (False, True): ClauseKind.KROM, (False, False): ClauseKind.GENERAL}


class Classification(namedtuple("Classification", "is_cnf clauses")):
    __slots__ = ()

    @property
    def horn(self) -> bool:
        return self.is_cnf and all(k in (ClauseKind.HORN, ClauseKind.BOTH) for _, k in self.clauses)

    @property
    def krom(self) -> bool:
        return self.is_cnf and all(k in (ClauseKind.KROM, ClauseKind.BOTH) for _, k in self.clauses)

    @property
    def verdict(self) -> str:
        return _KINDS[self.horn, self.krom].value if self.is_cnf else "non-cnf"


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
    conjuncts = [[]] if phi == BOTTOM else [_literals(conj) for conj in _flatten(phi, And)]
    if None in conjuncts:
        return Classification(False, ())
    clauses = [Clause(frozenset(lits)) for lits in conjuncts]
    return Classification(True, tuple((c, _KINDS[HORN.admits(c), KROM.admits(c)]) for c in clauses))


def _literal_ranks(universe: Universe):
    # The literals by rank as (atom name, positive?, falsifier), and the
    # atoms in name order as (atom index, rank of !a, rank of a).  Ranks
    # order the tokens `a`, `!a`, ... as strings.  A literal's falsifier is
    # the truth table of where it is false.
    atoms = universe.atoms
    tokens = sorted((atoms[i] if pos else "!" + atoms[i], i, pos, falsifier)
                    for (i, pos), falsifier in _literal_falsifiers(len(atoms)))
    literals = [(atoms[i], pos, falsifier) for _, i, pos, falsifier in tokens]
    rank = {(i, pos): r for r, (_, i, pos, _) in enumerate(tokens)}
    return literals, [(i, rank[i, False], rank[i, True])
                      for i in sorted(range(len(atoms)), key=atoms.__getitem__)]


def _clause_pool(universe: Universe, fragment: Fragment, target: int):
    # Sorted keys bytes((size, rank, ...)) of the fragment clauses that hold
    # in `target`, and the literals by rank.  A key lists the ranks in
    # atom-name order, so keys sort as (size, str(clause)) do.  A child in
    # the walk adds a literal on an atom later in name order, and only within
    # the fragment's bounds.  A clause's falsifier, the AND of its
    # literals', is the truth table of where it is false; the clause holds
    # when `target` misses it.
    n = len(universe)
    size = n if fragment.max_literals is None else fragment.max_literals
    positives = n if fragment.max_positive is None else fragment.max_positive
    literals, by_name = _literal_ranks(universe)
    steps = [((bytes((neg,)), literals[neg][2]), (bytes((pos,)), literals[pos][2]))
             for _, neg, pos in by_name]
    keys, stack = [], [(b"", (1 << (1 << n)) - 1, 0, positives)]
    while stack:
        ranks, falsifier, start, positives = stack.pop()
        if not target & falsifier:
            keys.append(bytes((len(ranks),)) + ranks)
        if len(ranks) < size:
            for j in range(start, n):
                (neg, neg_falsifier), (pos, pos_falsifier) = steps[j]
                stack.append((ranks + neg, falsifier & neg_falsifier, j + 1, positives))
                if positives:
                    stack.append((ranks + pos, falsifier & pos_falsifier, j + 1, positives - 1))
    keys.sort()
    return keys, literals


def _pool_listed(universe: Universe, fragment: Fragment, target: int):
    # Each non-model under the last pool clause that it falsifies, as
    # (key, lowest bit, bits >> lowest bit) in key order.
    keys, literals = _clause_pool(universe, fragment, target)
    unseen, listed = ((1 << (1 << len(universe))) - 1) ^ target, []
    for key in reversed(keys):
        hit = unseen & _falsifier(key, literals)
        if hit:
            low = (hit & -hit).bit_length() - 1
            listed.append((key, low, hit >> low))
            unseen ^= hit
            if not unseen:
                break
    if unseen:  # no pool clause falsifies these non-models
        raise NoSyntacticFragmentError(
            f"fragment {fragment.name!r} cannot express the given model set")
    return listed[::-1], literals


def _horn_listed(mset: ModelSet):
    # `_pool_listed` for Horn clauses on an AND-closed `mset`.  The last
    # Horn clause that a non-model w falsifies is !w when w is every atom,
    # else !w | b for an atom b of cl(w) \ w, where cl(w) is the AND of the
    # models that contain w (every atom if none does).  Keys rank every `!x`
    # below every `y` and list literals in name order, so b is the last of
    # the first name-order run of atoms outside w that holds one.
    n = len(mset.universe)
    literals, by_name = _literal_ranks(mset.universe)
    place = {i: j for j, (i, _, _) in enumerate(by_name)}  # atom index -> name-order bit
    renamed, negs = [0], [b""]  # mask -> the same set in name order; that -> ranks of its !x
    for i in range(n):
        renamed += [v | 1 << place[i] for v in renamed]
    for _, neg, _ in by_name:
        negs += [ranks + bytes((neg,)) for ranks in negs]
    top, half = (1 << n) - 1, 1 << n - 1
    closed = [top] * (1 << n)
    for m in mset.masks:
        closed[renamed[m]] = renamed[m]
    # cl by one AND pass per atom, from the sets with it to those without.
    # A pass takes the top bit, then rotates the index bits up by one.
    for _ in range(n):
        high = closed[half:]
        closed[::2] = map(operator.and_, closed[:half], high)
        closed[1::2] = high
    listed = []
    for w in _from_bits(((1 << (1 << n)) - 1) ^ mset.bits):
        v = renamed[w]
        candidates = closed[v] & ~v
        if candidates:
            after = v & -(candidates & -candidates)  # atoms of w after the first candidate
            b = (candidates & (after & -after) - 1).bit_length() - 1
            key = b"".join((bytes((v.bit_count() + 1,)), negs[v & (1 << b) - 1],
                            bytes((by_name[b][2],)), negs[v >> b << b]))
        else:
            key = bytes((n,)) + negs[v]
        listed.append((key, w, 1))
    return sorted(listed), literals


def _falsifier(key, literals) -> int:
    return functools.reduce(operator.and_, [literals[r][2] for r in key[1:]])


def synthesize(mset: ModelSet, fragment: Fragment) -> Formula:
    """Formula of the fragment whose models are exactly `mset`.

    The pool is every fragment clause satisfied by all members of `mset`, in
    (size, text) order: fewer literals first, then by the clause printed
    with its literals in atom-name order (`!a | b` before `a | !b`).  For the
    builtin Horn and Krom fragments the pool pins the model set exactly
    whenever it is closed under the fragment's function.  One pass in that
    order drops each clause entailed by the clauses kept before it and all
    clauses after it, and the formula conjoins the clauses kept.

    Clauses are compared as truth tables (ints, bit m for interpretation
    m).  The clauses kept before a step and the pool from it on pin `mset`,
    so a clause is kept exactly when a non-model falsifies it and satisfies
    the later pool and the clauses kept.  So each non-model is listed under
    the last pool clause that it falsifies, and a walk forward keeps each
    clause with a listed non-model that the clauses kept so far allow.

    For the Horn row (AND2, at most one positive literal, no size bound),
    each non-model w's last clause is read off the AND of the models that
    contain w, without the pool.  Every other row, such as Krom or a Horn
    row with a size bound, walks back through the sorted pool.
    """
    universe = mset.universe
    if fragment.max_literals is None and fragment.max_positive is None:
        raise NoSyntacticFragmentError(
            f"fragment {fragment.name!r} has no clause language"
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
    if fragment.beta == AND2 and fragment.max_positive == 1 and fragment.max_literals is None:
        listed, literals = _horn_listed(mset)
    else:
        listed, literals = _pool_listed(universe, fragment, mset.bits)
    # Each literal's node by rank, and its atom's position: a kept clause
    # joins its literals by `|` in universe order, and the formula joins the
    # clauses by `&` in the order kept, both left-deep.
    nodes = [Atom(name) if pos else Not(Atom(name)) for name, pos, _ in literals]
    place = [universe.index(name) for name, _, _ in literals]
    formula, alive = TOP, ((1 << (1 << len(universe))) - 1) ^ mset.bits  # non-models still allowed
    for key, low, hit in listed:
        if alive >> low & hit:
            ranks = sorted(key[1:], key=place.__getitem__)
            clause = nodes[ranks[0]]
            for r in ranks[1:]:
                clause = _new(Or, (Or, clause, nodes[r]))
            formula = clause if formula is TOP else _new(And, (And, formula, clause))
            alive &= ~_falsifier(key, literals)
    return formula
