"""Propositional formulas: parsing, models, and synthesis of a fragment
formula from a closed model set.  Formula text is read to a tree (`parse`)
or straight to a truth table (`truth_table`); synthesis gives a `Cnf`, the
list of its clauses, which prints as formula text and names its class.
Formula nodes and a `Cnf` are records (`interp.record_type`): each equals
only a record of its own class with equal fields, and none is ordered.

Grammar (ASCII; spaces, tabs and line breaks may separate tokens, and any
whitespace may follow the last one):

    atoms       [a-z][a-z0-9_]*
    constants   T  F
    operators   !  &  |  ->  <->     (precedence high to low: ! & | -> <->)
    grouping    ( ... )

`&` and `|` associate to the left, `->` and `<->` to the right.  `parse` and
`truth_table` split the text into tokens in one scan and read them in one
operator-precedence loop on explicit stacks: `parse` builds the tree, and
`truth_table` combines the atoms' truth tables as it goes, with no tree.
Nodes compare and hash on a pre-order walk with an explicit stack, and
`models` reads a tree's truth table off that walk backwards.  None of them
recurses, so only MAX_NESTING bounds how deep parentheses nest, and chains
of one connective and runs of `!` may be any length.

A row's clause pool is walked once per universe and kept, each clause with
its truth table, in a small cache.
"""

import functools
import math
import operator
import re

from .interp import (
    AND2,
    MAJ3,
    Fragment,
    ModelSet,
    Universe,
    WitnessError,
    _atom_patterns,
    _from_bits,
    _literal_falsifiers,
    closure_witness,
    record_type,
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


class NotClosedError(WitnessError):
    """Model set is not closed under the fragment's Boolean function."""


class NoSyntacticFragmentError(ValueError):
    """Fragment has no clause language, or it cannot express the given set."""


class Formula:
    """Mixin of the formula nodes, each a record: equal only to a node of
    its own class with equal fields, hashed by its fields, and unordered."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and _preorder(self) == _preorder(other)

    def __hash__(self):
        return hash(_preorder(self))


def _preorder(phi) -> tuple:
    # The tree's node classes and leaf fields in pre-order, on an explicit
    # stack: equal trees, and only they, give equal tuples, at any depth.
    items, stack = [], [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, Formula):
            items.append(type(node))
            stack += node
        else:
            items.append(node)
    return tuple(items)


class Atom(Formula, record_type("Atom", "name")):
    __slots__ = ()

    def __new__(cls, name: str):
        if not isinstance(name, str):
            raise TypeError(f"an atom name is a str, got {name!r}")
        return super().__new__(cls, name)


class Const(Formula, record_type("Const", "value")):
    __slots__ = ()

    def __new__(cls, value: bool):
        if not isinstance(value, bool):
            raise TypeError(f"a constant's value is a bool, got {value!r}")
        return super().__new__(cls, value)


TOP = Const(True)
BOTTOM = Const(False)


class Not(Formula, record_type("Not", "operand")):
    __slots__ = ()


class _Binary(Formula, record_type("_Binary", "left right")):
    __slots__ = ()


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
# `_read`'s one scan: the tokens, and as a token of its own each other
# character that does not separate them, which no state of the loop accepts.
_SCAN_RE = re.compile(rf"{_TOKEN}|[^ \t\r\n]")

# Connective -> (class, rank, threshold).  Before a connective is pushed,
# pending connectives of rank >= its threshold are applied, so & and | group
# to the left and -> and <-> to the right.  An open parenthesis, and the
# bottom of the stack, have rank 0 and are never applied.
_CONNECTIVES = {"&": (And, 4, 4), "|": (Or, 3, 3), "->": (Implies, 2, 3), "<->": (Iff, 1, 2)}
_OPEN = (None, 0, 0)
# Each connective's truth table from its operands', on two's-complement ints:
# T is -1 (every bit set) and ! is ~, so no step needs the table's width and
# the low 2^|U| bits of the result are the formula's truth table.
_TABLE_JOINS = {And: operator.and_, Or: operator.or_,
                Implies: lambda left, right: ~left | right, Iff: lambda left, right: ~left ^ right}
_NODE_JOINS = {kind: kind for kind in _TABLE_JOINS}


def _negate_node(node, count):
    for _ in range(count):
        node = Not(node)
    return node


@functools.lru_cache(maxsize=64)
def _leaves(universe):
    # Token -> node for the constants and the universe's atoms.
    leaves = {name: Atom(name) for name in universe.atoms}
    return {**leaves, "T": TOP, "F": BOTTOM}


@functools.lru_cache(maxsize=64)
def _tables(universe):
    # Token -> truth table for the constants and the universe's atoms.
    return {**dict(zip(universe.atoms, _atom_patterns(len(universe)))), "T": -1, "F": 0}


def _error(text, k, kind, message):
    # The error to raise at item k of `_read`'s scan, or at the end of the
    # text for the item after the last: an unexpected character, the first
    # scanned item that is not a token, comes before any other error.
    starts = []
    for m in _SCAN_RE.finditer(text.rstrip()):
        if _TOKEN_RE.fullmatch(m[0]) is None:
            return ParseError(f"unexpected character {m[0]!r}", m.start())
        starts.append(m.start())
    return kind(message, (starts + [len(text)])[k])


def parse(text: str, universe: Universe) -> Formula:
    """Parse `text` into an AST; atom names must belong to `universe`."""
    return _read(text, _leaves(universe), _NODE_JOINS, _negate_node)


def truth_table(text: str, universe: Universe) -> int:
    """The truth table of the formula `text` as a bitset, bit m for
    interpretation m: `models(parse(text, universe), universe).bits`, with
    the same errors, read in one scan without building the tree."""
    full = (1 << (1 << len(universe))) - 1
    return full & _read(text, _tables(universe), _TABLE_JOINS,
                        lambda bits, count: ~bits if count & 1 else bits)


def _read(text, leaves, joins, negate):
    # The one operator-precedence loop of `parse` and `truth_table`: an
    # operand's value is `leaves[token]`, `negate(value, count)` gives it
    # under a run of `count` `!`, and `joins[kind](left, right)` applies a
    # connective.  A text is read in one scan, and `_error` scans it again
    # only once the loop meets an item it cannot take.
    tokens = _SCAN_RE.findall(text.rstrip())
    tokens.append("")
    operands, pending, groups = [], [_OPEN], []  # groups: '!' count before each open '('
    negations = 0
    want_operand = True
    for k, tok in enumerate(tokens):
        if want_operand:
            value = leaves.get(tok)
            if value is None:
                if tok == "!":
                    negations += 1
                    continue
                if tok == "(":
                    if len(groups) == MAX_NESTING:
                        raise _error(text, k, ParseError,
                                     f"parentheses nested more than {MAX_NESTING} deep")
                    groups.append(negations)
                    pending.append(_OPEN)
                    negations = 0
                    continue
                if "a" <= tok[:1] <= "z":
                    raise _error(text, k, UnknownAtomError, tok)
                raise _error(text, k, ParseError, f"expected a formula, found {tok!r}" if tok
                             else "unexpected end of input")
            if negations:
                value = negate(value, negations)
                negations = 0
            operands.append(value)
            want_operand = False
            continue
        # A connective, ')' or the end: first apply the pending connectives
        # that bind at least as tightly.
        entry = _CONNECTIVES.get(tok)
        threshold = entry[2] if entry else 1
        while pending[-1][1] >= threshold:
            join = joins[pending.pop()[0]]
            right = operands.pop()
            operands[-1] = join(operands[-1], right)
        if entry:
            pending.append(entry)
            want_operand = True
        elif tok == ")" and groups:
            pending.pop()
            operands[-1] = negate(operands[-1], groups.pop())
        elif groups:
            raise _error(text, k, ParseError, "expected ')'")
        elif tok:
            raise _error(text, k, ParseError, f"trailing input {tok!r}")
        else:
            return operands[0]


def models(phi: Formula, universe: Universe) -> ModelSet:
    """Exact model set: the atoms' truth tables (bit m for interpretation m)
    combined up the tree by `_TABLE_JOINS`, one int operation per node, on
    the walk that nodes compare and hash on, `_preorder`, read backwards."""
    full = (1 << (1 << len(universe))) - 1
    tables = dict(zip(universe.atoms, _atom_patterns(len(universe))))
    # Backwards, each node comes after its operands, the right one on top of
    # the stack, and each leaf's class after its field.
    values, items = [], iter(reversed(_preorder(phi)))
    for item in items:
        if item is Not:
            values[-1] = ~values[-1]
        elif item in _TABLE_JOINS:
            right = values.pop()
            values[-1] = _TABLE_JOINS[item](values[-1], right)
        else:
            kind = next(items, None)
            if kind is Atom:
                bits = tables.get(item)
                if bits is None:
                    raise UnknownAtomError(item)
                values.append(bits)
            elif kind is Const:
                values.append(-1 if item else 0)
            else:
                raise TypeError(f"not a formula node: {item!r}")
    return ModelSet.from_bits(universe, full & values[0])


HORN = Fragment("horn", AND2, max_positive=1)
KROM = Fragment("krom", MAJ3, max_literals=2)

# (every clause Horn?, every clause Krom?) -> a CNF's verdict.
_KINDS = {(True, True): "both", (True, False): "horn", (False, True): "krom", (False, False): "general"}


class Cnf(record_type("Cnf", "clauses")):
    """A conjunction of clauses, each a tuple of (atom name, positive?)
    literals: no clauses is T, and the empty clause () is F.

    `str` joins each clause's literals with `|` and the clauses with `&`,
    a clause of two or more literals in parentheses when there are several
    clauses; `parse` reads the text back.  `verdict` names the builtin rows
    that admit every clause: "both", "horn", "krom" or "general".
    """

    __slots__ = ()

    def __str__(self):
        clauses = self.clauses
        texts = [" | ".join(name if pos else "!" + name for name, pos in clause) or "F"
                 for clause in clauses]
        if len(clauses) > 1:
            texts = [f"({text})" if len(clause) > 1 else text for text, clause in zip(texts, clauses)]
        return " & ".join(texts) or "T"

    @property
    def verdict(self) -> str:
        return _KINDS[all(map(HORN.admits, self.clauses)), all(map(KROM.admits, self.clauses))]


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


def _clause_pool(universe: Universe, max_literals, max_positive):
    # Sorted keys bytes((size, rank, ...)) of every clause within the bounds
    # (None is no bound), the empty clause first, and the literals by rank.
    # A key lists the ranks in atom-name order, so keys sort as (size,
    # str(clause)) do.  A child in the walk adds a literal on an atom later
    # in name order, and only within the bounds.
    n = len(universe)
    size = n if max_literals is None else max_literals
    positives = n if max_positive is None else max_positive
    literals, by_name = _literal_ranks(universe)
    steps = [(bytes((neg,)), bytes((pos,))) for _, neg, pos in by_name]
    keys, stack = [], [(b"", 0, positives)]
    while stack:
        ranks, start, positives = stack.pop()
        keys.append(bytes((len(ranks),)) + ranks)
        if len(ranks) < size:
            for j in range(start, n):
                neg, pos = steps[j]
                stack.append((ranks + neg, j + 1, positives))
                if positives:
                    stack.append((ranks + pos, j + 1, positives - 1))
    keys.sort()
    return keys, literals


# The falsifier bits that one kept pool may hold: 8 MiB.  A 16-atom Krom pool
# (513 clauses of 2^16 bits) fits; a 16-atom pool of the clauses with at most
# one positive literal (589,824 of them) does not.
_POOL_BITS = 1 << 26


def _pool_size(n: int, max_literals, max_positive) -> int:
    # How many keys `_clause_pool` gives over n atoms: k literals on k
    # atoms, at most `max_positive` of them positive.
    size = n if max_literals is None else min(n, max_literals)
    positives = n if max_positive is None else max_positive
    return sum(math.comb(n, k) * sum(math.comb(k, p) for p in range(min(k, positives) + 1))
               for k in range(size + 1))


@functools.lru_cache(maxsize=4)
def _row_pool(universe: Universe, max_literals, max_positive):
    # `_clause_pool` as (key, falsifier) in descending key order, and the
    # literals by rank.  Keyed on the bounds, since rows compare by name and
    # function only.
    keys, literals = _clause_pool(universe, max_literals, max_positive)
    return tuple((key, _falsifier(key, literals)) for key in reversed(keys)), literals


def _pool_listed(universe: Universe, fragment: Fragment, target: int):
    # Each non-model under the last pool clause that it falsifies, as
    # (key, lowest bit, bits >> lowest bit) in key order: one pass down the
    # row's pool that skips the clauses `target` meets.  The pool is kept per
    # universe when its falsifiers fit in _POOL_BITS, else walked on every
    # call with each falsifier made as it is reached.
    n, bounds = len(universe), (fragment.max_literals, fragment.max_positive)
    if _pool_size(n, *bounds) << n <= _POOL_BITS:
        pool, literals = _row_pool(universe, *bounds)
    else:
        keys, literals = _clause_pool(universe, *bounds)
        pool = ((key, _falsifier(key, literals)) for key in reversed(keys))
    unseen, listed = ((1 << (1 << n)) - 1) ^ target, []
    for key, falsifier in pool:
        if target & falsifier:
            continue
        hit = unseen & falsifier
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


# Kept for the last 4 universes, as `_row_pool` is: ~6 MiB each at 16 atoms.
@functools.lru_cache(maxsize=4)
def _horn_tables(universe: Universe):
    # `_literal_ranks`, and two tables by mask: the same set in name order
    # (renamed), and by a name-order set the ranks of its !x (negs).
    literals, by_name = _literal_ranks(universe)
    place = {i: j for j, (i, _, _) in enumerate(by_name)}  # atom index -> name-order bit
    renamed, negs = [0], [b""]
    for i in range(len(universe)):
        renamed += [v | 1 << place[i] for v in renamed]
    for _, neg, _ in by_name:
        negs += [ranks + bytes((neg,)) for ranks in negs]
    return tuple(literals), tuple(by_name), tuple(renamed), tuple(negs)


def _horn_listed(mset: ModelSet):
    # `_pool_listed` for Horn clauses on an AND-closed `mset`.  The last
    # Horn clause that a non-model w falsifies is !w when w is every atom,
    # else !w | b for an atom b of cl(w) \ w, where cl(w) is the AND of the
    # models that contain w (every atom if none does).  Keys rank every `!x`
    # below every `y` and list literals in name order, so b is the last of
    # the first name-order run of atoms outside w that holds one.
    n = len(mset.universe)
    literals, by_name, renamed, negs = _horn_tables(mset.universe)
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
    # The AND of the clause's literals' falsifiers: where it is false; -1,
    # every interpretation, for the empty clause.
    return functools.reduce(operator.and_, [literals[r][2] for r in key[1:]], -1)


def synthesize(mset: ModelSet, fragment: Fragment) -> Cnf:
    """The CNF of the fragment's clauses whose models are exactly `mset`.

    The pool is every fragment clause satisfied by all members of `mset`, in
    (size, text) order: fewer literals first, then by the clause printed
    with its literals in atom-name order (`!a | b` before `a | !b`).  For the
    builtin Horn and Krom fragments the pool pins the model set exactly
    whenever it is closed under the fragment's function.  One pass in that
    order drops each clause entailed by the clauses kept before it and all
    clauses after it.  The `Cnf` lists the clauses kept in that order, each
    with its literals in universe order.  The empty set gives `a & !a` over
    the first atom `a` when the fragment admits the unit clause `a`, else
    `F`, the empty clause; the full set gives `T`, no clauses.

    Clauses are compared as truth tables (ints, bit m for interpretation
    m).  The clauses kept before a step and the pool from it on pin `mset`,
    so a clause is kept exactly when a non-model falsifies it and satisfies
    the later pool and the clauses kept.  So each non-model is listed under
    the last pool clause that it falsifies, and a walk forward keeps each
    clause with a listed non-model that the clauses kept so far allow.

    For the Horn row (AND2, at most one positive literal, no size bound),
    each non-model w's last clause is read off the AND of the models that
    contain w, without the pool.  Every other row, such as Krom or a Horn
    row with a size bound, lists the non-models in one pass down its whole
    pool, built once per universe and kept with each clause's truth table
    when those fit in `_POOL_BITS`; it skips the clauses that `mset` meets.
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
        # `a & !a` where the row admits the unit clause `a`, and so `!a`;
        # else the empty clause, which every row admits.
        a = universe.atoms[0]
        unit = ((a, True),)
        return Cnf((unit, ((a, False),)) if fragment.admits(unit) else ((),))
    if fragment.beta == AND2 and fragment.max_positive == 1 and fragment.max_literals is None:
        listed, literals = _horn_listed(mset)
    else:
        listed, literals = _pool_listed(universe, fragment, mset.bits)
    pairs = [(name, pos) for name, pos, _ in literals]
    place = [universe.index(name) for name, _, _ in literals]
    kept, alive = [], ((1 << (1 << len(universe))) - 1) ^ mset.bits  # non-models still allowed
    for key, low, hit in listed:
        if alive >> low & hit:
            kept.append(tuple(map(pairs.__getitem__, sorted(key[1:], key=place.__getitem__))))
            alive &= ~_falsifier(key, literals)
    return Cnf(tuple(kept))
