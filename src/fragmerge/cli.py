"""Command-line front end: merging, postulate checking, fixture reproduction.

Problem files are line oriented, `#` starts a comment:

    atoms: a b c
    base K1: a & (b | !c)
    base K2: models {a} {a,b}
    constraint: !a | !b

A base is either a formula or an explicit model list; several constraint
lines are conjoined.  Exit codes for `merge`: 0 success, 2 parse/flag error,
3 inconsistent base, 4 result not expressible in the selected fragment
without a refinement.  `check` exits 1 when witnesses were found, `reproduce`
exits 1 on any mismatching cell; both use 2 for bad arguments, and `check`
also for a space in which the selected postulates have no instances.  Every
command exits 141 when its reader closes stdout before the output is written.
"""

import argparse
import functools
import os
import re
import sys

from .formula import (
    HORN,
    KROM,
    NoSyntacticFragmentError,
    NotClosedError,
    ParseError,
    UnknownAtomError,
    synthesize,
    truth_table,
)
from .interp import Interpretation, ModelSet, Universe, record_type
from .merge import (
    Aggregator,
    Base,
    CountingDistance,
    InconsistentBaseError,
    MergeOperator,
    Profile,
    merge,
)
from .postulates import (
    EmptySpaceError,
    PostulateId,
    SearchSpace,
    SpaceTooLargeError,
    UnknownFixtureError,
    fixture_ids,
    reproduce,
    search,
)
from .refine import (
    ClosureRefinement,
    LexClosureRefinement,
    LexOrder,
    LexRefinement,
    RefinedOperator,
    cardintersection,
    refine,
)

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_NOT_EXPRESSIBLE = 4
EXIT_PIPE = 141  # 128 + SIGPIPE: stdout was closed before the output was written


class ProblemFileError(ValueError):
    pass


class ProblemFile(record_type("ProblemFile", "universe bases constraints")):
    """A parsed problem file: its Universe, its bases as (name, Base) pairs
    and its constraints as model sets, each list in file order."""

    __slots__ = ()

    @property
    def profile(self) -> Profile:
        return Profile(tuple(b for _, b in self.bases))

    def constraint(self) -> ModelSet:
        mu = ModelSet.full(self.universe)
        for c in self.constraints:
            mu = mu & c
        return mu


_MODEL_RE = re.compile(r"\{([^{}]*)\}")


def _parse_interpretations(text, universe, error, prefix, shape):
    """The masks of the interpretations of a list like '{} {a} {a,b}'; a bad
    list raises `error` with a message that starts with `prefix` and names
    `shape`.  One regular-expression pass splits the list, and a name is
    stripped of spaces only when it is not an atom's name as it stands."""
    parts = _MODEL_RE.split(text)  # the gaps, with each model's names between two of them
    chunks = parts[1::2]
    if not chunks or "".join(parts[::2]).strip():
        raise error(f"{prefix}: expected {shape}")
    weights = {name: 1 << i for i, name in enumerate(universe.atoms)}
    masks = []
    for chunk in chunks:
        mask = 0
        for name in chunk.split(","):
            weight = weights.get(name)
            if weight is None:
                name = name.strip()
                weight = weights.get(name)
                if weight is None:
                    if not chunk.strip():  # `{}` or `{ }`: the empty interpretation
                        break
                    raise error(f"{prefix}: " + (f"atom {name!r} not in universe {universe.atoms}"
                                                 if name else f"empty atom name in {{{chunk}}}"))
            mask |= weight
        masks.append(mask)
    return masks


def _read_formula(text, universe, lineno) -> ModelSet:
    """The models of a formula line, read straight to its truth table."""
    try:
        return ModelSet.from_bits(universe, truth_table(text, universe))
    except (ParseError, UnknownAtomError) as exc:
        raise ProblemFileError(f"line {lineno}: {exc}") from exc


def parse_problem_file(text: str) -> ProblemFile:
    universe = None
    bases = []
    constraints = []
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("atoms:"):
            if universe is not None:
                raise ProblemFileError(f"line {lineno}: atoms declared twice")
            names = line[len("atoms:"):].split()
            if not names:
                raise ProblemFileError(f"line {lineno}: empty atom list")
            try:
                universe = Universe(names)
            except ValueError as exc:
                raise ProblemFileError(f"line {lineno}: {exc}") from None
            continue
        if universe is None:
            raise ProblemFileError(f"line {lineno}: atoms must be declared first")
        if line.startswith("base"):
            m = re.match(r"base\s+([A-Za-z0-9_]+)\s*:\s*(.*)$", line)
            if not m:
                raise ProblemFileError(f"line {lineno}: malformed base line")
            name, body = m.group(1), m.group(2).strip()
            if re.match(r"models\s*\{", body) or (body == "models" and "models" not in universe.atoms):
                found = _parse_interpretations(body[len("models"):], universe, ProblemFileError,
                                               f"line {lineno}", "model sets like {a,b}")
                mset = ModelSet(universe, found)
            else:
                mset = _read_formula(body, universe, lineno)
            if not mset:
                raise InconsistentBaseError(f"line {lineno}: base {name} has no models")
            bases.append((name, Base(mset)))
            continue
        if line.startswith("constraint:"):
            constraints.append(_read_formula(line[len("constraint:"):].strip(), universe, lineno))
            continue
        raise ProblemFileError(f"line {lineno}: unrecognized line {line!r}")
    if universe is None:
        raise ProblemFileError("missing atoms declaration")
    if not bases:
        raise ProblemFileError("problem file declares no bases")
    return ProblemFile(universe, bases, constraints)


_FRAGMENTS = {**{fragment.name: fragment for fragment in (HORN, KROM)}, "none": None}


def _build_distance(choice: str, n: int) -> CountingDistance:
    if choice == "hamming":
        return CountingDistance.hamming(n)
    if choice == "drastic":
        return CountingDistance.drastic(n)
    if choice.startswith("table:"):
        entries = choice[len("table:"):].split(",")
        empty = [i for i, v in enumerate(entries, 1) if not v.strip()]
        if empty:
            raise ValueError(f"entry {empty[0]} of distance table {choice!r} is empty")
        try:
            values = [int(v) for v in entries]
        except ValueError:
            raise ValueError(f"bad distance table in {choice!r}") from None
        if len(values) < n:
            raise ValueError(
                f"distance table needs {n} values for {n} atoms, got {len(values)}"
            )
        return CountingDistance.from_gauge(values)
    raise ValueError(f"unknown distance {choice!r}")


def _build_refinement(name: str, fragment, order):
    if name == "none":
        return None
    if fragment is None:
        raise ValueError("a refinement needs --fragment horn or krom")
    beta = fragment.beta
    if name == "closure":
        return ClosureRefinement(beta)
    if name == "lex":
        return LexRefinement(beta, order)
    if name == "lex-closure":
        return LexClosureRefinement(beta, order)
    raise ValueError(f"unknown refinement {name!r}")


def _parse_lex_order(text, universe) -> LexOrder:
    masks = _parse_interpretations(text, universe, ValueError, "bad --lex-order",
                                   "interpretations like {} {a} {a,b}")
    try:
        return LexOrder(universe, [Interpretation(universe, m) for m in masks])
    except ValueError as exc:
        raise ValueError(f"bad --lex-order: {exc}") from exc


def cmd_merge(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            problem = parse_problem_file(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read problem file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InconsistentBaseError as exc:
        print(f"inconsistent base: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ProblemFileError as exc:
        print(f"problem file error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    universe = problem.universe
    fragment = _FRAGMENTS[args.fragment]
    try:
        distance = _build_distance(args.distance, len(universe))
        order = _parse_lex_order(args.lex_order, universe) if args.lex_order else None
        refinement = _build_refinement(args.refinement, fragment, order)
    except ValueError as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE

    aggregator = Aggregator(args.aggregator)
    profile = problem.profile
    mu = problem.constraint()
    merged = merge(profile, mu, distance, aggregator)

    # Each record: its machine key, its text label and its value.
    records = [("universe", "atoms", " ".join(universe.atoms))]
    records += [(f"base\t{name}", f"base {name}", b.models) for name, b in problem.bases]
    records += [("constraint", "constraint", mu), ("merged", "merged models", merged),
                ("merged-overlap", "bases met by merge", cardintersection(merged, profile))]

    final = merged
    if refinement is not None:
        final = refined = refine(refinement, merged, profile, mu)
        records += [("refined", "refined models", refined),
                    ("refined-overlap", "bases met by refinement", cardintersection(refined, profile))]

    if fragment is not None:
        try:
            cnf = synthesize(final, fragment)
        except NotClosedError as exc:
            print(f"not expressible in {fragment.name} without a refinement: {exc}", file=sys.stderr)
            return EXIT_NOT_EXPRESSIBLE
        except NoSyntacticFragmentError as exc:
            print(f"synthesis failed: {exc}", file=sys.stderr)
            return EXIT_NOT_EXPRESSIBLE
        records += [("formula", "fragment formula", cnf), ("formula-class", "formula class", cnf.verdict)]

    machine = args.format == "machine"
    for key, label, value in records:
        if isinstance(value, ModelSet):
            value = value.render("|" if machine else ", ") or "none"
        print(f"{key}\t{value}" if machine else f"{label}: {value}")
    return EXIT_OK


def _parse_postulates(listing: str):
    if listing == "all":
        return tuple(PostulateId)
    out = []
    for part in listing.split(","):
        part = part.strip()
        m = re.fullmatch(r"(ic\d)-(ic\d)", part)
        try:
            ids = [PostulateId(name) for name in (m.groups() if m else (part,))]
        except ValueError:
            raise ValueError(f"unknown postulate{' range' if m else ''} {part!r}") from None
        if m:
            lo, hi = ids
            ids = [p for p in PostulateId if lo.value <= p.value <= hi.value]
            if not ids:
                raise ValueError(f"empty postulate range {part!r}")
        out.extend(ids)
    return tuple(dict.fromkeys(out))


def cmd_check(args) -> int:
    try:
        fragment = _FRAGMENTS[args.fragment]
        postulates = _parse_postulates(args.postulates)
        # The space checks its caps before the distance is built, whose
        # gauge has atoms + 1 entries.
        space = SearchSpace(args.atoms, fragment, args.max_profile_size, args.max_bases, postulates)
        parts = args.op.rsplit(",", 2)
        if len(parts) != 3:
            raise ValueError("--op needs distance,aggregator,refinement")
        dist_spec, agg_spec, ref_spec = (p.strip() for p in parts)
        distance = _build_distance(dist_spec, args.atoms)
        aggregator = Aggregator(agg_spec)
        refinement = _build_refinement(ref_spec, fragment, None)
        if args.limit is not None and args.limit < 1:
            raise ValueError(f"--limit must be at least 1, got {args.limit}")
    except (KeyError, ValueError) as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE

    op = MergeOperator(distance, aggregator)
    if refinement is not None:
        op = RefinedOperator(op, refinement)
    try:
        witnesses = search(space, op, limit=args.limit)
    except (SpaceTooLargeError, EmptySpaceError) as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.format == "machine":
        for w in witnesses:
            print("\t".join(("witness", w.postulate.value, w.operator, w.instance.encode(), w.message)))
        print(f"witnesses\t{len(witnesses)}")
    else:
        print(f"operator: {op.label}")
        print(f"space: {args.atoms} atoms, fragment {args.fragment}, "
              f"profiles up to {args.max_profile_size} bases")
        print(f"postulates: {', '.join(p.value for p in postulates)}")
        for w in witnesses:
            print(w.render())
        print(f"{len(witnesses)} witness(es) found")
    return EXIT_WITNESS if witnesses else EXIT_OK


def cmd_reproduce(args) -> int:
    if args.list:
        for fid in fixture_ids():
            print(fid)
        return EXIT_OK
    if args.fixture is None:
        print("bad arguments: a fixture id is required (or use --list)", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = reproduce(args.fixture)
    except UnknownFixtureError as exc:
        print(f"bad arguments: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "machine":
        for record in report.records():
            print("\t".join(str(p) for p in record))
    else:
        print(report.render_text())
    return EXIT_OK if report.ok else EXIT_WITNESS


def build_parsers() -> tuple:
    """The top-level parser, and its subparsers by command."""
    parser = argparse.ArgumentParser(
        prog="fragmerge",
        description="distance-based belief merging with fragment refinements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_merge = sub.add_parser("merge", help="merge the bases of a problem file")
    p_merge.add_argument("file", help="problem file (see module docs for the format)")
    p_merge.add_argument("--distance", default="hamming",
                         help="hamming | drastic | table:g1,g2,...")
    p_merge.add_argument("--aggregator", default="sigma", choices=("sigma", "gmax"))
    p_merge.add_argument("--refinement", default="none",
                         choices=("none", "closure", "lex", "lex-closure"))
    p_merge.add_argument("--fragment", default="none", choices=tuple(_FRAGMENTS))
    p_merge.add_argument("--lex-order", default=None,
                         help="interpretations ranked first, e.g. '{} {b} {a}'")
    p_merge.add_argument("--format", default="text", choices=("text", "machine"))
    p_merge.set_defaults(func=cmd_merge)

    p_check = sub.add_parser("check", help="search a bounded space for postulate violations")
    p_check.add_argument("--op", required=True, help="distance,aggregator,refinement")
    p_check.add_argument("--fragment", default="none", choices=tuple(_FRAGMENTS))
    p_check.add_argument("--postulates", default="all",
                         help="e.g. ic0-ic3 or ic4 or ic5,ic7 or all")
    p_check.add_argument("--atoms", type=int, default=2)
    p_check.add_argument("--max-profile-size", type=int, default=2)
    p_check.add_argument("--max-bases", type=int, default=None)
    p_check.add_argument("--limit", type=int, default=None,
                         help="stop after this many witnesses")
    p_check.add_argument("--format", default="text", choices=("text", "machine"))
    p_check.set_defaults(func=cmd_check)

    p_rep = sub.add_parser("reproduce", help="recompute a shipped fixture table")
    p_rep.add_argument("fixture", nargs="?", default=None,
                       help="fixture id; see 'reproduce --list'")
    p_rep.add_argument("--list", action="store_true", help="list fixture ids")
    p_rep.add_argument("--format", default="text", choices=("text", "machine"))
    p_rep.set_defaults(func=cmd_reproduce)

    return parser, sub.choices


# Built on the first `main` call, not at import, and reused after.
_parsers = functools.cache(build_parsers)


def main(argv=None) -> int:
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    if command is None:  # no arguments, `--help` or an unknown command
        args = parser.parse_args(argv)
    else:
        # One pass: the top-level parser would scan them all, then hand them on.
        args, rest = command.parse_known_args(argv[1:])
        if rest:
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout: send what is left to devnull, so the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
