"""Interpretations, model sets, and closure under Boolean functions.

An interpretation over an ordered atom universe is a fixed-width bit-vector,
stored as a Python int: bit i holds the truth value of atom i.  Earlier
declared atoms get lower weight, so over the universe (a, b) the ascending
integer order of interpretations is {} < {a} < {b} < {a,b}.

A model set can be closed under a symmetric, 0/1-reproducing Boolean function
(binary AND gives the Horn fragment, ternary majority gives Krom).  The
closure operators here are the semantic backbone for fragment membership
tests and for refining merge results into a fragment.  The closure under
majority is read off a clause theory: it is the set of models of every
clause of at most two literals that the model set satisfies (Selman and
Kautz's Krom LUB), found with O(|U|^2) truth-table operations.  The closure
under AND is built member by member; any other function runs a semi-naive
fixpoint.
"""

import itertools
import re
from collections import namedtuple
from functools import lru_cache

# A universe has at most ENUM_CAP atoms, so every enumeration of its 2^|U|
# interpretations is bounded where the universe is made.
ENUM_CAP = 16
# An atom name, as the formula grammar reads it.
_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")


class UniverseMismatchError(ValueError):
    """Operands were built over different atom universes."""


class ArityMismatchError(ValueError):
    """Number of arguments does not match the function arity."""


class UniverseTooLargeError(ValueError):
    """Universe exceeds the cap for exhaustive model enumeration."""


class NotSymmetricError(ValueError):
    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class NotReproducingError(ValueError):
    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class Universe:
    """Ordered alphabet of 1 to ENUM_CAP distinct atom names, each a string
    that the formula grammar reads as an atom; order fixes bit positions."""

    __slots__ = ("atoms", "_index", "_hash", "_name_tables")

    def __init__(self, atoms):
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("universe needs at least one atom")
        for name in atoms:
            if not isinstance(name, str):
                raise TypeError(f"atom names must be str, got {name!r} ({type(name).__name__})")
            if not _ATOM_RE.fullmatch(name):
                raise ValueError(f"atom name {name!r} does not match {_ATOM_RE.pattern}")
        if len(set(atoms)) != len(atoms):
            raise ValueError(f"duplicate atom names in {atoms!r}")
        if len(atoms) > ENUM_CAP:
            raise UniverseTooLargeError(
                f"universe has {len(atoms)} atoms, enumeration cap is {ENUM_CAP}"
            )
        self.atoms = atoms
        self._index = {name: i for i, name in enumerate(atoms)}
        self._hash = hash(atoms)
        self._name_tables = None

    def __len__(self):
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __contains__(self, name):
        return name in self._index

    def __eq__(self, other):
        return self is other or (isinstance(other, Universe) and self.atoms == other.atoms)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Universe({self.atoms!r})"

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"atom {name!r} not in universe {self.atoms}") from None

    def interpretation(self, true_atoms=()) -> "Interpretation":
        mask = 0
        for name in true_atoms:
            mask |= 1 << self.index(name)
        return Interpretation(self, mask)

    def _block_texts(self) -> tuple:
        """(half, closed, opened, tails) for `ModelSet.render`: a mask's low
        `half` bits index '{a,c}' in `closed` and '{a,c,' in `opened`, its
        high bits 'd,e}' in `tails` ('' for none).  Each doubles per atom."""
        if self._name_tables is None:
            half = len(self.atoms) // 2
            opened, high = ["{"], [""]
            for texts, names in ((opened, self.atoms[:half]), (high, self.atoms[half:])):
                for name in names:
                    texts += [t + name + "," for t in texts]
            self._name_tables = (half, ("{}",) + tuple(t[:-1] + "}" for t in opened[1:]),
                                 tuple(opened), ("",) + tuple(t[:-1] + "}" for t in high[1:]))
        return self._name_tables


def _to_bits(masks) -> int:
    """Truth-table bitset of a collection of masks: bit m set for each m."""
    bits = 0
    for m in masks:
        bits |= 1 << m
    return bits


_CHUNK_MASK = (1 << 256) - 1
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _from_bits(bits: int) -> list:
    """Masks whose bit is set in `bits`, ascending.  Set bits are peeled off
    256-bit chunks, so each step works on a small int, not on all 2^n bits."""
    masks, base = [], 0
    while bits:
        chunk = bits & _CHUNK_MASK
        while chunk:
            low = chunk & -chunk
            masks.append(base + low.bit_length() - 1)
            chunk ^= low
        bits >>= 256
        base += 256
    return masks


@lru_cache(maxsize=None)
def _atom_patterns(n: int) -> tuple:
    """Truth tables of the n atoms: bit m of entry i is bit i of mask m."""
    patterns = []
    for i in range(n):
        block = 1 << i
        pat = ((1 << block) - 1) << block
        period = block << 1
        while period < 1 << n:
            pat |= pat << period
            period <<= 1
        patterns.append(pat)
    return tuple(patterns)


@lru_cache(maxsize=None)
def _literal_falsifiers(n: int) -> tuple:
    """(literal, falsifier) of the 2n literals a, !a, b, !b, ... over n
    atoms.  A literal is (atom index, positive?); its falsifier is the truth
    table of the interpretations where it is false."""
    full = (1 << (1 << n)) - 1
    return tuple(
        lit for i, pat in enumerate(_atom_patterns(n))
        for lit in (((i, True), full ^ pat), ((i, False), pat))
    )


class Interpretation:
    """Truth assignment over a universe, held as a bitmask."""

    __slots__ = ("universe", "mask")

    def __init__(self, universe: Universe, mask: int):
        if not 0 <= mask < (1 << len(universe)):
            raise ValueError(f"mask {mask} out of range for {len(universe)} atoms")
        self.universe = universe
        self.mask = mask

    @property
    def true_atoms(self) -> tuple:
        return tuple(a for i, a in enumerate(self.universe.atoms) if self.mask >> i & 1)

    def __eq__(self, other):
        return (
            isinstance(other, Interpretation)
            and self.universe == other.universe
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.universe, self.mask))

    def __lt__(self, other):
        if not isinstance(other, Interpretation):
            return NotImplemented
        if self.universe != other.universe:
            raise UniverseMismatchError("cannot compare across universes")
        return self.mask < other.mask

    def __str__(self):
        return "{" + ",".join(self.true_atoms) + "}"

    def __repr__(self):
        return f"Interpretation({self})"


class ModelSet:
    """Set of interpretations sharing one universe, held as a truth-table
    bitset: bit m of `bits` is set iff the interpretation with mask m is a
    model.  Set operations are int operations on `bits`."""

    __slots__ = ("universe", "bits")

    def __init__(self, universe: Universe, masks=()):
        masks = tuple(masks)
        if masks:
            low, high = min(masks), max(masks)
            bad = low if low < 0 else high
            if not 0 <= bad < 1 << len(universe):
                raise ValueError(f"mask {bad} out of range for {len(universe)} atoms")
        self.universe = universe
        self.bits = _to_bits(masks)

    @classmethod
    def from_bits(cls, universe, bits: int) -> "ModelSet":
        if bits < 0 or bits.bit_length() > 1 << len(universe):
            raise ValueError(f"bitset has bits beyond the interpretations of {len(universe)} atoms")
        mset = cls.__new__(cls)
        mset.universe = universe
        mset.bits = bits
        return mset

    @classmethod
    def from_sets(cls, universe, *atom_sets) -> "ModelSet":
        """Build from iterables of atom names, e.g. from_sets(u, "", "a", "ab")."""
        return cls(universe, (universe.interpretation(s).mask for s in atom_sets))

    @classmethod
    def full(cls, universe) -> "ModelSet":
        return cls.from_bits(universe, (1 << (1 << len(universe))) - 1)

    @property
    def masks(self) -> tuple:
        """Masks of the models, ascending.  Public because the benchmark
        harness (`perfbench/spans.py`) and the tests read it."""
        return tuple(_from_bits(self.bits))

    @property
    def members(self) -> tuple:
        return tuple(Interpretation(self.universe, m) for m in _from_bits(self.bits))

    def __len__(self):
        return self.bits.bit_count()

    def __bool__(self):
        return self.bits != 0

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, w):
        if isinstance(w, Interpretation):
            return w.universe == self.universe and self.bits >> w.mask & 1 == 1
        return isinstance(w, int) and w >= 0 and self.bits >> w & 1 == 1

    def __eq__(self, other):
        return (
            isinstance(other, ModelSet)
            and self.universe == other.universe
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.universe, self.bits))

    def _other_bits(self, other) -> int:
        if not isinstance(other, ModelSet):
            raise TypeError(f"expected ModelSet, got {type(other).__name__}")
        if other.universe != self.universe:
            raise UniverseMismatchError("model sets over different universes")
        return other.bits

    def __and__(self, other):
        return ModelSet.from_bits(self.universe, self.bits & self._other_bits(other))

    def __or__(self, other):
        return ModelSet.from_bits(self.universe, self.bits | self._other_bits(other))

    def __sub__(self, other):
        return ModelSet.from_bits(self.universe, self.bits & ~self._other_bits(other))

    def issubset(self, other) -> bool:
        return self.bits & ~self._other_bits(other) == 0

    def intersects(self, other) -> bool:
        return self.bits & self._other_bits(other) != 0

    def render(self, sep=", ") -> str:
        """Members' texts joined by `sep`, one block of 2^half masks (one high
        half, one tail) at a time; block 0 has no tail and closed texts."""
        half, closed, opened, tails = self.universe._block_texts()
        width = 1 << half
        flags = bin(self.bits)[:1:-1].encode().translate(_BIT_FLAGS)  # byte m is bit m
        blocks, texts = [], closed
        for start, tail in zip(range(0, len(flags), width), tails):
            block = flags[start:start + width]
            if 1 in block:
                blocks.append((tail + sep).join(itertools.compress(texts, block)) + tail)
            texts = opened
        return sep.join(blocks)

    def compact(self) -> str:
        """Machine rendering: members joined by '|', e.g. '{}|{a}|{a,b}'."""
        return self.render("|")

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"ModelSet[{self.render()}]"


def model_sets(universe: Universe, include_empty: bool = True):
    """Every model set over `universe` in ascending subset-code order: the
    code is the set's bitset."""
    start = 0 if include_empty else 1
    for code in range(start, 1 << (1 << len(universe))):
        yield ModelSet.from_bits(universe, code)


def record_type(typename, field_names, defaults=(), compared=slice(None)):
    """A slotted namedtuple base for an immutable record that compares as a
    frozen dataclass does: equal only to a record of its own class whose
    `compared` fields (a slice of the field tuple) are equal, hashed as the
    tuple of those fields, and unordered."""

    class Record(namedtuple(typename, field_names, defaults=defaults)):
        __slots__ = ()

        def __eq__(self, other):
            return type(other) is type(self) and self[compared] == other[compared]

        def __ne__(self, other):
            return not self == other

        def __hash__(self):
            return hash(self[compared])

        def __lt__(self, other):
            return NotImplemented

        __le__ = __gt__ = __ge__ = __lt__

    return Record


class BooleanFn(record_type("BooleanFn", "arity table name by_weight", compared=slice(2))):
    """Symmetric, 0/1-reproducing Boolean function given by its truth table.

    table[i] is the output on the input whose bit j equals bit j of i.  By
    symmetry the output only depends on how many inputs are 1, which is what
    the validator checks (cheaper than iterating all permutations).  `name`
    and the derived `by_weight` (the output by input weight) are not compared.
    """

    __slots__ = ()

    def __new__(cls, arity: int, table: tuple, name: str = ""):
        if arity < 1:
            raise ValueError("arity must be positive")
        table = tuple(1 if v else 0 for v in table)
        if len(table) != 1 << arity:
            raise ValueError(
                f"table length {len(table)} does not match arity {arity}"
            )
        by_weight = [None] * (arity + 1)
        for idx, out in enumerate(table):
            w = idx.bit_count()
            if by_weight[w] is None:
                by_weight[w] = out
            elif by_weight[w] != out:
                first = next(i for i in range(len(table)) if i.bit_count() == w)
                raise NotSymmetricError(
                    f"not symmetric: inputs {_bits(first, arity)} and "
                    f"{_bits(idx, arity)} have equal weight but outputs "
                    f"{table[first]} and {out}",
                    witness=(_bits(first, arity), _bits(idx, arity)),
                )
        if by_weight[0] != 0:
            raise NotReproducingError(
                "not 0-reproducing: all-zero input maps to 1",
                witness=_bits(0, arity),
            )
        if by_weight[arity] != 1:
            raise NotReproducingError(
                "not 1-reproducing: all-one input maps to 0",
                witness=_bits((1 << arity) - 1, arity),
            )
        return super().__new__(cls, arity, table, name, tuple(by_weight))

    def __getnewargs__(self):
        return self[:3]

    def __call__(self, *bits) -> int:
        if len(bits) != self.arity:
            raise ArityMismatchError(f"expected {self.arity} arguments, got {len(bits)}")
        return self.by_weight[sum(1 for b in bits if b)]

    def __str__(self):
        return self.name or f"fn{self.arity}{''.join(map(str, self.table))}"

    def __repr__(self):
        return f"{type(self).__name__}(arity={self.arity!r}, table={self.table}, name={self.name!r})"


def _bits(idx, arity):
    return tuple(idx >> i & 1 for i in range(arity))


AND2 = BooleanFn(2, (0, 0, 0, 1), "and")
MAJ3 = BooleanFn(3, (0, 0, 0, 1, 0, 1, 1, 1), "maj3")


class Fragment(record_type("Fragment", "name beta max_literals max_positive", (None, None), slice(2))):
    """Sublanguage characterized by closure of model sets under `beta`.

    The syntactic side is Schaefer's two counts per clause: its clauses have
    at most `max_literals` literals, at most `max_positive` of them positive
    (None is no bound).  A fragment that sets neither bound has no clause
    language and no formula synthesis.  The bounds are not compared.
    """

    __slots__ = ()

    def admits(self, clause) -> bool:
        """Whether `clause` (a `formula.Clause`) is within both bounds."""
        return ((self.max_literals is None or len(clause.literals) <= self.max_literals)
                and (self.max_positive is None or clause.positive_count <= self.max_positive))


def _apply_masks(beta: BooleanFn, masks, width: int) -> int:
    by_weight = beta.by_weight
    out = 0
    for i in range(width):
        w = 0
        for m in masks:
            w += m >> i & 1
        if by_weight[w]:
            out |= 1 << i
    return out


def _and_closure(bits: int, width: int) -> int:
    # Intersection closure, one member at a time.  The set found so far is
    # closed after each step, so a member already in it adds nothing.  It
    # reads no `width`; it takes one to share the kernels' form.
    found = set()
    for m in _from_bits(bits):
        if m not in found:
            found |= {m & c for c in found}
            found.add(m)
    return _to_bits(found)


def _maj3_closure(bits: int, width: int) -> int:
    # Models of every clause of at most two literals that all of `bits`
    # satisfies (the Krom LUB): the interpretations no such clause excludes.
    # A clause holds when `bits` misses the AND of its literals'
    # falsifiers.  Once a unit clause holds, its two-literal clauses exclude
    # nothing more; a literal paired with its own negation excludes nothing.
    # For the empty set every unit clause holds and nothing is left.
    literals = _literal_falsifiers(width)
    excluded = 0
    for k, (_, falsifier) in enumerate(literals):
        rest = bits & falsifier
        if not rest:
            excluded |= falsifier
            continue
        for _, other in literals[k + 1:]:
            if not rest & other:
                excluded |= falsifier & other
    return ((1 << (1 << width)) - 1) ^ excluded


def _fixpoint(beta: BooleanFn, bits: int, width: int) -> int:
    # Semi-naive: each round applies beta only to argument multisets with at
    # least one element the previous round added; a multiset drawn from
    # older elements alone was tried in an earlier round.  Each multiset is
    # split into its new part (t >= 1 elements) and its old part.
    done, added = [], _from_bits(bits)
    known = set(added)
    while added:
        fresh = set()
        for t in range(1, beta.arity + 1):
            for new in itertools.combinations_with_replacement(added, t):
                for old in itertools.combinations_with_replacement(done, beta.arity - t):
                    img = _apply_masks(beta, new + old, width)
                    if img not in known:
                        fresh.add(img)
        done += added
        known |= fresh
        added = sorted(fresh)
    return _to_bits(known)


# (image, closure) of each builtin function: the image of an argument tuple
# as one int expression over whole masks, and the closure of a truth table
# over `width` atoms.  Keys compare by truth table.
_KERNELS = {
    AND2: (lambda a, b: a & b, _and_closure),
    MAJ3: (lambda a, b, c: a & b | c & (a | b), _maj3_closure),
}


def _closure_of(beta: BooleanFn, bits: int, width: int) -> int:
    kernel = _KERNELS.get(beta)
    if kernel is None:
        return _fixpoint(beta, bits, width)
    return kernel[1](bits, width)


# Closures asked for again (refinements, closedness checks) come from here;
# the walk of `closed_model_sets` tests each set once and bypasses it.
CLOSURE_CACHE_SIZE = 1024
_closure_bits = lru_cache(maxsize=CLOSURE_CACHE_SIZE)(_closure_of)


def _is_closed(beta: BooleanFn, bits: int, width: int, close=_closure_bits) -> bool:
    if beta in _KERNELS:
        return close(beta, bits, width) == bits
    return _closed_witness(beta, bits, width) is None


def _closed_witness(beta: BooleanFn, bits: int, width: int):
    # First argument tuple whose image escapes `bits`, scanning one ordering
    # per multiset (beta is symmetric) in combinations_with_replacement
    # order of the ascending members.  A builtin function's closure decides
    # closedness first, so the scan runs only when a witness exists.
    kernel = _KERNELS.get(beta)
    if kernel is not None and _closure_bits(beta, bits, width) == bits:
        return None
    image = kernel[0] if kernel is not None else lambda *tup: _apply_masks(beta, tup, width)
    masks = _from_bits(bits)
    members = set(masks)
    for tup in itertools.combinations_with_replacement(masks, beta.arity):
        img = image(*tup)
        if img not in members:
            return tup, img
    return None


def closure(beta: BooleanFn, mset: ModelSet) -> ModelSet:
    """Least superset of `mset` closed under coordinate-wise `beta`.

    For AND (Horn) the intersection closure, built member by member in
    O(|M| * |closure|); for ternary majority (Krom) the models of every
    clause of at most two literals that `mset` satisfies, O(|U|^2) bitset
    operations.  Any other function runs a semi-naive fixpoint over
    argument multisets.
    """
    return ModelSet.from_bits(mset.universe, _closure_bits(beta, mset.bits, len(mset.universe)))


def is_closed(beta: BooleanFn, mset: ModelSet) -> bool:
    """Whether `mset` is closed under `beta`: closure equality for the
    builtin functions, a witness scan for any other."""
    return _is_closed(beta, mset.bits, len(mset.universe))


def closure_witness(beta: BooleanFn, mset: ModelSet):
    """First argument tuple whose image escapes `mset`, or None if closed.

    Returns (args, image) as interpretations.
    """
    hit = _closed_witness(beta, mset.bits, len(mset.universe))
    if hit is None:
        return None
    tup, img = hit
    u = mset.universe
    return tuple(Interpretation(u, m) for m in tup), Interpretation(u, img)


@lru_cache(maxsize=None)
def closed_model_sets(beta: BooleanFn, universe: Universe):
    """All non-empty subsets of 2^U closed under `beta`, in ascending
    subset-code order.

    Cached per (beta, universe); the enumeration walks all 2^(2^|U|) subsets,
    so keep |U| small (the postulate search uses |U| <= 4).
    """
    width = len(universe)
    return tuple(
        mset for mset in model_sets(universe, include_empty=False)
        if _is_closed(beta, mset.bits, width, _closure_of)
    )
