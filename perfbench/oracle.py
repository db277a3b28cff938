"""Independent reference for `fragmerge merge --format machine` output.

Nothing here imports fragmerge.  Model sets are truth-table bitsets (bit m
is set when interpretation m is a model), which makes the reference fast
enough to check every job of a run:

- hamming distances to a base come from a breadth-first sweep of the cube;
- closure under AND2 (Horn) is the intersection closure, and closure under
  MAJ3 (Krom) is the model set of every 2-clause the set satisfies;
- synthesis replays the library's greedy clause-dropping loop, testing each
  drop with one AND of a running prefix and a precomputed suffix.

The expected text reproduces the output of the library as first
benchmarked byte for byte, so every merge job of a run is checked against
it.
"""

import re
from functools import lru_cache

EXIT_OK = 0
EXIT_NOT_EXPRESSIBLE = 4


@lru_cache(maxsize=None)
def atom_pattern(i, n):
    """Bitset of the interpretations over n atoms in which atom i is true."""
    block = 1 << i
    pat = ((1 << block) - 1) << block
    period = block << 1
    width = 1 << n
    while period < width:
        pat |= pat << period
        period <<= 1
    return pat


def full(n):
    return (1 << (1 << n)) - 1


def members(bits):
    """Interpretation masks of a bitset, ascending."""
    s = bin(bits)[:1:-1]
    return [i for i, c in enumerate(s) if c == "1"]


def bits_of(masks):
    out = 0
    for m in masks:
        out |= 1 << m
    return out


# --- formulas --------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:([a-z][a-z0-9_]*)|([TF])|(<->|->|[!&|()]))")


def formula_bits(text, atoms):
    """Truth table of a formula in the fragmerge grammar, as a bitset."""
    n = len(atoms)
    index = {a: i for i, a in enumerate(atoms)}
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if not text[pos:].strip():
                break
            raise ValueError(f"bad formula text at {pos}: {text!r}")
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    tokens.append(None)
    top = full(n)
    i = 0

    def take(sym):
        nonlocal i
        if tokens[i] == sym:
            i += 1
            return True
        return False

    def iff():
        left = implies()
        if take("<->"):
            return top ^ (left ^ iff())
        return left

    def implies():
        left = disj()
        if take("->"):
            return (top ^ left) | implies()
        return left

    def disj():
        v = conj()
        while take("|"):
            v |= conj()
        return v

    def conj():
        v = unary()
        while take("&"):
            v &= unary()
        return v

    def unary():
        if take("!"):
            return top ^ unary()
        return primary()

    def primary():
        nonlocal i
        tok = tokens[i]
        i += 1
        if tok == "(":
            v = iff()
            if not take(")"):
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return v
        if tok == "T":
            return top
        if tok == "F":
            return 0
        if tok in index:
            return atom_pattern(index[tok], n)
        raise ValueError(f"unexpected token {tok!r} in {text!r}")

    v = iff()
    if tokens[i] is not None:
        raise ValueError(f"trailing input in {text!r}")
    return v


# --- problem files ---------------------------------------------------------

_MODEL = re.compile(r"\{([^{}]*)\}")


def parse_problem(text):
    """(atoms, [(base name, bits)], constraint bits) of a generated file."""
    atoms = None
    bases = []
    constraint = None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, body = line.partition(":")
        body = body.strip()
        if key == "atoms":
            atoms = tuple(body.split())
            constraint = full(len(atoms))
        elif key.startswith("base "):
            if body.startswith("models"):
                index = {a: i for i, a in enumerate(atoms)}
                masks = []
                for chunk in _MODEL.findall(body):
                    names = [s.strip() for s in chunk.split(",") if s.strip()]
                    masks.append(sum(1 << index[a] for a in names))
                bits = bits_of(masks)
            else:
                bits = formula_bits(body, atoms)
            bases.append((key[len("base "):].strip(), bits))
        elif key == "constraint":
            constraint &= formula_bits(body, atoms)
        else:
            raise ValueError(f"unexpected line {line!r}")
    return atoms, bases, constraint


@lru_cache(maxsize=None)
def _labels(atoms):
    return tuple(
        "{" + ",".join(a for i, a in enumerate(atoms) if m >> i & 1) + "}"
        for m in range(1 << len(atoms))
    )


def compact(bits, atoms):
    labels = _labels(atoms)
    return "|".join(labels[m] for m in members(bits)) or "none"


# --- merge -----------------------------------------------------------------


def _flip(bits, i, n):
    pat = atom_pattern(i, n)
    shift = 1 << i
    return ((bits & pat) >> shift) | ((bits & ~pat) << shift)


def hamming_levels(base, n):
    """Bitsets of the points at hamming distance 0, 1, 2, ... from a base."""
    levels = [base]
    reached = base
    everything = full(n)
    frontier = base
    while reached != everything:
        grown = 0
        for i in range(n):
            grown |= _flip(frontier, i, n)
        frontier = grown & ~reached
        reached |= frontier
        levels.append(frontier)
    return levels


def merged_bits(bases, mu, n, distance, aggregator):
    if not mu:
        return 0
    points = members(mu)
    per_base = []
    for b in bases:
        if distance == "drastic":
            levels = [b, full(n) & ~b]
        else:
            levels = hamming_levels(b, n)
        d = {}
        for k, level in enumerate(levels):
            hit = level & mu
            if hit:
                for m in members(hit):
                    d[m] = k
        per_base.append(d)
    if aggregator == "sigma":
        scores = [sum(d[w] for d in per_base) for w in points]
    else:
        scores = [tuple(sorted((d[w] for d in per_base), reverse=True)) for w in points]
    best = min(scores)
    return bits_of(w for w, s in zip(points, scores) if s == best)


# --- closure and refinement -----------------------------------------------


def closure(fragment, bits, n):
    if fragment == "horn":
        found = set()
        for m in members(bits):
            found |= {m & c for c in found}
            found.add(m)
        return bits_of(found)
    out = full(n)
    for pat in _krom_clauses(n):
        if bits & ~pat == 0:
            out &= pat
    return out


@lru_cache(maxsize=None)
def _krom_clauses(n):
    """Truth tables of every clause of one or two literals over n atoms."""
    lits = []
    for i in range(n):
        lits += [atom_pattern(i, n), full(n) ^ atom_pattern(i, n)]
    return tuple(a | b for k, a in enumerate(lits) for b in lits[k:])


def is_closed(fragment, bits, n):
    return closure(fragment, bits, n) == bits


def meets(bits, bases):
    return sum(1 for _, b in bases if b & bits)


def refine(refinement, fragment, bits, bases, n):
    lex = refinement == "lex" or (refinement == "lex-closure" and meets(bits, bases) == 0)
    if lex:
        if is_closed(fragment, bits, n):
            return bits
        return bits & -bits  # the lowest member: the default lex order
    return closure(fragment, bits, n)


# --- synthesis -------------------------------------------------------------


@lru_cache(maxsize=None)
def _candidates(fragment, atoms):
    """Fragment clauses in the library's pool order: (size, text)."""
    n = len(atoms)
    out = []
    for shape in range(1, 3 ** n):
        lits = []
        code = shape
        for i in range(n):
            code, digit = divmod(code, 3)
            if digit:
                lits.append((i, digit == 1))
        positives = sum(1 for _, pos in lits if pos)
        if fragment == "horn" and positives > 1:
            continue
        if fragment == "krom" and len(lits) > 2:
            continue
        pattern = 0
        for i, pos in lits:
            p = atom_pattern(i, n)
            pattern |= p if pos else full(n) ^ p
        # Literals sorted by (atom, negative last); atom names are ordered
        # like their indices here, so one text serves as sort key and output.
        text = " | ".join(atoms[i] if pos else "!" + atoms[i] for i, pos in lits)
        out.append((len(lits), text, pattern, positives <= 1, len(lits) <= 2))
    out.sort(key=lambda c: (c[0], c[1]))
    return tuple(out)


def synthesize(fragment, bits, atoms):
    """(formula text, classification) the library prints for a closed set."""
    if not bits:
        return f"{atoms[0]} & !{atoms[0]}", "both"
    pool = [c for c in _candidates(fragment, atoms) if bits & ~c[2] == 0]
    suffix = [full(len(atoms))] * (len(pool) + 1)
    for k in range(len(pool) - 1, -1, -1):
        suffix[k] = suffix[k + 1] & pool[k][2]
    kept = []
    prefix = full(len(atoms))
    for k, clause in enumerate(pool):
        if prefix & suffix[k + 1] != bits:
            kept.append(clause)
            prefix &= clause[2]
    if not kept:
        return "T", "both"
    if len(kept) == 1:
        text = kept[0][1]
    else:
        text = " & ".join(f"({c[1]})" if c[0] > 1 else c[1] for c in kept)
    horn = all(c[3] for c in kept)
    krom = all(c[4] for c in kept)
    verdict = "both" if horn and krom else "horn" if horn else "krom" if krom else "general"
    return text, verdict


# --- expected output -------------------------------------------------------


def work_proxy(text, distance, aggregator, refinement, fragment):
    """The input property that sets a merge job's cost.

    Scored pairs |mu| x sum |Mod(K_b)| without a fragment, the synthesis
    pool (Horn clauses the result satisfies) for Horn, and the size of the
    refined set, which closure has to reach, for Krom.
    """
    atoms, bases, mu = parse_problem(text)
    n = len(atoms)
    if fragment == "none":
        return len(members(mu)) * sum(len(members(b)) for _, b in bases)
    final = refine(refinement, fragment, merged_bits([b for _, b in bases], mu, n, distance, aggregator), bases, n)
    if fragment == "horn":
        return sum(1 for c in _candidates(fragment, atoms) if final & ~c[2] == 0)
    return len(members(final))



def expected_merge(text, distance, aggregator, refinement, fragment):
    """(exit code, stdout) of `fragmerge merge --format machine`."""
    atoms, bases, mu = parse_problem(text)
    n = len(atoms)
    merged = merged_bits([b for _, b in bases], mu, n, distance, aggregator)
    records = [("universe", " ".join(atoms))]
    records += [("base", name, compact(b, atoms)) for name, b in bases]
    records.append(("constraint", compact(mu, atoms)))
    records.append(("merged", compact(merged, atoms)))
    records.append(("merged-overlap", meets(merged, bases)))
    final = merged
    if refinement != "none":
        final = refine(refinement, fragment, merged, bases, n)
        records.append(("refined", compact(final, atoms)))
        records.append(("refined-overlap", meets(final, bases)))
    if fragment != "none":
        if not is_closed(fragment, final, n):
            return EXIT_NOT_EXPRESSIBLE, ""
        records += list(zip(("formula", "formula-class"), synthesize(fragment, final, atoms)))
    return EXIT_OK, "".join("\t".join(str(p) for p in r) + "\n" for r in records)


def output_invariants(stdout, atoms, fragment):
    """Check a merge output with this module's own code; return a problem or None.

    The refined set (the merged set without a refinement) must be closed
    under the fragment's function, and the printed formula's models must
    equal it.
    """
    n = len(atoms)
    index = {a: i for i, a in enumerate(atoms)}
    fields = dict(line.split("\t", 1) for line in stdout.splitlines())
    final = fields.get("refined", fields.get("merged"))
    if final is None:
        return "no merged record"
    masks = []
    if final != "none":
        for chunk in _MODEL.findall(final):
            masks.append(sum(1 << index[a] for a in chunk.split(",") if a))
    bits = bits_of(masks)
    if fragment == "none":
        return None
    if not is_closed(fragment, bits, n):
        return "result not closed under the fragment's function"
    if formula_bits(fields.get("formula", ""), atoms) != bits:
        return "formula models differ from the result"
    return None
