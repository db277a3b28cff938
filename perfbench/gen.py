"""Seeded problem-file generator for the fragmerge benchmark.

Every problem is a function of (seed, job index) alone, so a run can make as
many distinct files as it needs and two runs with one seed see the same
files.  The program under test only ever receives the rendered file text.
"""

import math
import random

from oracle import formula_bits

ATOM_NAMES = "abcdefghijklmnop"

# family -> (why it exists, the input property it varies)
FAMILIES = {
    "formula": (
        "3-CNF or model-list bases under a 3-CNF constraint: the ordinary "
        "merge input, with small merged sets and large synthesis pools",
        "atom count and base model counts (2n-3n clauses per 3-CNF base "
        "or constraint, so about 2-30 models; 1-4 models per listed base)",
    ),
    "tie": (
        "a constraint of 8-12 scattered minterms far from the bases, so many "
        "points tie and the merged set is large before refinement",
        "merged-set size (minterm count, distance of the minterms from the "
        "bases)",
    ),
    "wide": (
        "10-13 atoms with a base and a constraint of 600-1500 models each: "
        "the merge kernel's |mu| x sum |Mod(K_b)| pair loop dominates",
        "atom count, and base model counts from 64 to ~1500",
    ),
}


def job_rng(seed, tag, index):
    """Independent stream per (seed, workload tag, job index)."""
    return random.Random(f"{seed}/{tag}/{index}")


def _atoms(n):
    return ATOM_NAMES[:n]


def _interp_text(atoms, mask):
    return "{" + ",".join(a for i, a in enumerate(atoms) if mask >> i & 1) + "}"


def _minterm_text(atoms, mask):
    return "(" + " & ".join(a if mask >> i & 1 else "!" + a for i, a in enumerate(atoms)) + ")"


def _cnf3(rng, atoms, n_clauses):
    clauses = []
    for _ in range(n_clauses):
        picked = rng.sample(range(len(atoms)), 3)
        lits = [atoms[i] if rng.random() < 0.5 else "!" + atoms[i] for i in sorted(picked)]
        clauses.append("(" + " | ".join(lits) + ")")
    return " & ".join(clauses)


def _satisfiable_cnf3(rng, atoms, n_clauses):
    # A random 3-CNF can be unsatisfiable; redraw it so that no job starts
    # from an inconsistent base.
    while True:
        text = _cnf3(rng, atoms, n_clauses)
        if formula_bits(text, atoms):
            return text


def _model_list(rng, atoms, count, near=None, radius=None):
    n = len(atoms)
    masks = set()
    while len(masks) < count:
        if near is None:
            masks.add(rng.randrange(1 << n))
        else:
            m = near
            for i in rng.sample(range(n), rng.randint(0, radius)):
                m ^= 1 << i
            masks.add(m)
    return "models " + " ".join(_interp_text(atoms, m) for m in sorted(masks))


def formula_problem(rng, n):
    atoms = _atoms(n)
    lines = [f"atoms: {' '.join(atoms)}"]
    for k in range(rng.randint(2, 3)):
        if rng.random() < 0.5:
            body = _satisfiable_cnf3(rng, atoms, rng.randint(2 * n, 3 * n))
        else:
            body = _model_list(rng, atoms, rng.randint(1, 4))
        lines.append(f"base K{k + 1}: {body}")
    lines.append(f"constraint: {_satisfiable_cnf3(rng, atoms, rng.randint(2 * n, 3 * n))}")
    return "\n".join(lines) + "\n"


def tie_problem(rng, n):
    atoms = _atoms(n)
    center = rng.randrange(1 << n)
    lines = [f"atoms: {' '.join(atoms)}"]
    for k in range(2):
        lines.append(f"base K{k + 1}: {_model_list(rng, atoms, rng.randint(1, 2), center, 1)}")
    # Minterms on one sphere around the bases' centre: far from every base
    # and at near-equal distance, so the merge keeps many of them tied.
    radius = n // 2 + 1
    sphere = [m for m in range(1 << n) if (m ^ center).bit_count() == radius]
    picked = rng.sample(sphere, min(len(sphere), rng.randint(8, 12)))
    lines.append("constraint: " + " | ".join(_minterm_text(atoms, m) for m in sorted(picked)))
    return "\n".join(lines) + "\n"


def _clauses_for(rng, n, low, high):
    # A random 3-clause keeps 7/8 of the interpretations, so this many
    # clauses leave about low..high models over n atoms.
    target = rng.randint(low, high)
    return max(1, round(math.log(target / (1 << n)) / math.log(7 / 8)))


def wide_problem(rng, n):
    # A 3-CNF base and a 3-CNF constraint of 600-1500 models each, whatever
    # the atom count, and a listed base of 64-256 models.  Printing costs
    # |mu| + sum |Mod(K_b)| and scoring |mu| x sum |Mod(K_b)|, so at these
    # sizes the merge kernel outweighs parsing and printing.
    atoms = _atoms(n)
    lines = [f"atoms: {' '.join(atoms)}"]
    lines.append(f"base K1: {_satisfiable_cnf3(rng, atoms, _clauses_for(rng, n, 600, 1500))}")
    lines.append(f"base K2: {_model_list(rng, atoms, rng.randint(64, 256))}")
    lines.append(f"constraint: {_satisfiable_cnf3(rng, atoms, _clauses_for(rng, n, 600, 1500))}")
    return "\n".join(lines) + "\n"


MAKERS = {"formula": formula_problem, "tie": tie_problem, "wide": wide_problem}
