#!/usr/bin/env python3
"""fragmerge benchmark: CLI jobs in a closed loop, with checked outputs.

    python3 perfbench/run.py --workload merge-horn --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each job is one `fragmerge merge`,
`check` or `reproduce` invocation, made through `fragmerge.cli.main(argv)`
in this single-threaded process with its output captured.  Jobs run one
after another until `--seconds` have passed and at least MIN_JOBS jobs are
done.  Every output is checked (see `verify`).  A summary goes to stdout,
and the last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs every job
twice, once untraced and once with every layer wrapped (spans.py), and
reports the per-layer metrics and the overhead of tracing.

NOTES.md says why each workload exists and which layer metric should move
which end-to-end metric.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
from spans import MODULES, Tracer  # noqa: E402

MIN_JOBS = 100  # so job_s.p90 has at least ten jobs above it
CANDIDATES = 4
# A wide file's cost, |mu| x sum |Mod(K_b)|, varies smoothly with its model
# counts, so ranking more candidates stratifies it better: over ten seeds of
# 170 jobs, the spread of that product at the median job falls from 0.05
# with 4 candidates to 0.02 with 8.  Horn and Krom costs follow coarse
# properties (pool and set sizes), where 8 candidates did not help.
WIDE_CANDIDATES = 8
SETUP_REPEATS = 9
TRACE_MIN_JOBS = 30  # so the slowest tenth holds at least three jobs
# The median time of `calibrate` on the 2-core VM with Python 3.11.7 that
# the benchmark was tuned on; see `end_to_end`.
CALIBRATION_REF_S = 0.0024
DOCUMENTED_EXITS = {"merge": {0, 2, 3, 4}, "check": {0, 1, 2}, "reproduce": {0, 1, 2}}
GOLDENS = HERE / "goldens.json"
MERGE_OPTIONS = tuple(
    (ref, agg, dist)
    for ref in ("closure", "lex", "lex-closure")
    for agg in ("sigma", "gmax")
    for dist in ("hamming", "drastic")
)
CHECK_OPTIONS = tuple(
    (dist, agg, ref)
    for dist in ("hamming", "drastic")
    for agg in ("sigma", "gmax")
    for ref in ("none", "closure", "lex", "lex-closure")
)
POSTULATES = tuple(f"ic{k}" for k in range(9))
FIXTURES = (
    "ex1", "ex3", "prop3-horn", "prop3-krom", "prop4-horn", "prop4-krom",
    "prop6-fairness", "prop8-ic5", "prop8-ic7-horn", "prop8-ic7-krom",
    "prop9-ic4", "prop10-nonfair", "prop11-ic6",
)


class Job:
    __slots__ = ("kind", "argv", "text", "fragment", "key")

    def __init__(self, kind, argv, text=None, fragment="none", key=None):
        self.kind = kind
        self.argv = argv  # "{file}" stands for the job's problem file
        self.text = text
        self.fragment = fragment
        self.key = key


def _cell(name, index):
    # Which family and options job `index` uses does not depend on --seed,
    # so every seed runs the same mix and only the file contents change.
    return gen.job_rng("cell", name, index)


def _merge_job(seed, name, index, atoms, families, fragment, candidates=CANDIDATES):
    cell = _cell(name, index)
    family = cell.choice(families)
    refinement, aggregator, distance = cell.choice(MERGE_OPTIONS)
    if fragment == "none":
        refinement = "none"
    # Draw `candidates` problems, rank them by the property that sets their
    # cost and keep the one at the cell's rank.  Over many jobs every rank
    # is used equally, so the files follow the family's own distribution,
    # but each seed's sample of it is stratified and varies less.
    rng = gen.job_rng(seed, name, index)
    drawn = [gen.MAKERS[family](rng, atoms) for _ in range(candidates)]
    drawn.sort(key=lambda t: oracle.work_proxy(t, distance, aggregator, refinement, fragment))
    text = drawn[cell.randrange(candidates)]
    argv = ["merge", "{file}", "--distance", distance, "--aggregator", aggregator,
            "--refinement", refinement, "--fragment", fragment, "--format", "machine"]
    return Job("merge", argv, text, fragment)


# Atom counts cycle in a fixed order, weighted so that job_s.p50 and
# job_s.p90 fall where job times are dense rather than in a gap between two
# clusters.  merge-horn: 9 of 14 jobs at 5 atoms, 5 at 6.  The 7-atom size
# (2-3.4 s a job) is left out so that at least MIN_JOBS jobs fit in a run,
# and the 8-atom size because every formula-family job there fails (see
# NOTES.md).  merge-krom: 6 of 10 at 6 atoms, 1 at 7, 3 at 8, which puts
# p50 among the 6-atom jobs and p90 among the 8-atom ones.
HORN_ATOMS = (5, 6, 5, 5, 6, 5, 5, 6, 5, 5, 6, 5, 6, 5)
KROM_ATOMS = (6, 8, 6, 7, 6, 8, 6, 6, 8, 6)
WIDE_ATOMS = (10, 11, 12, 13, 12)


def merge_horn(seed, index):
    atoms = HORN_ATOMS[index % len(HORN_ATOMS)]
    return _merge_job(seed, "merge-horn", index, atoms, ("formula", "tie"), "horn")


def merge_krom(seed, index):
    atoms = KROM_ATOMS[index % len(KROM_ATOMS)]
    return _merge_job(seed, "merge-krom", index, atoms, ("formula", "tie"), "krom")


def merge_wide(seed, index):
    atoms = WIDE_ATOMS[index % len(WIDE_ATOMS)]
    return _merge_job(seed, "merge-wide", index, atoms, ("wide",), "none", WIDE_CANDIDATES)


def check_argv(postulate, fragment, distance, aggregator, refinement):
    # ic5/ic6 pair every two profiles: at profile size 2 that is 137,700
    # instances and 2-4 s a job, so they run at profile size 1.
    size = "1" if postulate in ("ic5", "ic6") else "2"
    return ["check", "--op", f"{distance},{aggregator},{refinement}", "--fragment", fragment,
            "--postulates", postulate, "--atoms", "2", "--max-profile-size", size,
            "--format", "machine"]


def check_key(postulate, fragment, distance, aggregator, refinement):
    return f"{postulate}/{fragment}/{distance}/{aggregator}/{refinement}"


# The postulates a check job cycles through.  ic7 and ic8 jobs take 0.2-0.8 s
# and the others 0.01-0.1 s; listed once each, the Krom ic7/ic8 jobs were
# about a tenth of the jobs, and job_s.p90 fell in the gap below them and
# jumped between 0.29 and 0.40 s from seed to seed.  Listed twice, they put
# p90 inside the cluster of Krom ic7/ic8 times.
CHECK_STRATA = POSTULATES + ("ic7", "ic8")


def check(seed, index):
    # Every 7th job reproduces a fixture, the 13 in turn.  The others cycle
    # through CHECK_STRATA x fragment.  Each of those 22 strata takes the 16
    # operators in CHECK_OPTIONS order, where the refinement changes fastest,
    # from a seeded starting point: any four turns of a stratum use all four
    # refinements, and seeds differ in which operators come first, not in
    # how the mix is balanced.
    if index % 7 == 6:
        fixture = FIXTURES[(index // 7) % len(FIXTURES)]
        return Job("reproduce", ["reproduce", fixture, "--format", "machine"], key=fixture)
    q = index - index // 7
    strata = len(CHECK_STRATA) * 2
    stratum, turn = q % strata, q // strata
    postulate = CHECK_STRATA[stratum % len(CHECK_STRATA)]
    fragment = ("horn", "krom")[stratum // len(CHECK_STRATA)]
    offset = gen.job_rng(seed, "check", stratum).randrange(len(CHECK_OPTIONS))
    args = (postulate, fragment) + CHECK_OPTIONS[(offset + turn) % len(CHECK_OPTIONS)]
    return Job("check", check_argv(*args), key=check_key(*args))


# name -> (job maker, per-job time limit in seconds)
WORKLOADS = {
    "merge-horn": (merge_horn, 30.0),
    "merge-krom": (merge_krom, 30.0),
    "merge-wide": (merge_wide, 30.0),
    "check": (check, 30.0),
}


# --- running one job ---------------------------------------------------------


class JobTimeout(BaseException):
    """Raised from SIGALRM when a job exceeds its time limit."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def _invoke(cli, argv, out, err):
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            return exc.code if isinstance(exc.code, int) else int(exc.code is not None)


def run_job(cli, job, path, limit):
    """(seconds, exit code, stdout, failure or None)."""
    argv = [str(path) if a == "{file}" else a for a in job.argv]
    out, err = io.StringIO(), io.StringIO()
    code = None
    failure = None
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        try:
            code = _invoke(cli, argv, out, err)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        failure = "timeout"
    except Exception as exc:  # a crash of the program is a result to count
        failure = type(exc).__name__
    elapsed = perf_counter() - start
    return elapsed, code, out.getvalue(), failure


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def verify(job, code, stdout, goldens):
    """None when the output is right, else what is wrong with it."""
    if job.kind == "merge":
        atoms, _, _ = oracle.parse_problem(job.text)
        opts = dict(zip(job.argv[2::2], job.argv[3::2]))
        want_code, want_out = oracle.expected_merge(
            job.text, opts["--distance"], opts["--aggregator"], opts["--refinement"], job.fragment
        )
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        if stdout != want_out:
            return "machine output differs from the reference"
        if code == 0:
            return oracle.output_invariants(stdout, atoms, job.fragment)
        return None
    lines = stdout.splitlines()
    if job.kind == "check":
        want_code, want_count, want_sha = goldens["check"][job.key]
        found = sum(1 for line in lines if line.startswith("witness\t"))
        if not lines or lines[-1] != f"witnesses\t{found}":
            return "witness count line does not match the witness records"
        if found != want_count or code != (1 if found else 0) or code != want_code:
            return f"{found} witnesses and exit {code}, expected {want_count} and exit {want_code}"
    else:
        want_code, want_sha = goldens["reproduce"][job.key]
        if code != 0 or not lines or not all(
            line.startswith("check\t") and line.endswith("\tpass") for line in lines
        ):
            return "fixture does not report every cell as ok"
    if _sha(stdout) != want_sha:
        return "machine output differs from the golden"
    return None


# --- set-up and the job loop --------------------------------------------------


def import_fragmerge():
    for key in [k for k in sys.modules if k == "fragmerge" or k.startswith("fragmerge.")]:
        del sys.modules[key]
    cli = importlib.import_module("fragmerge.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"fragmerge was imported from {cli.__file__}, not from {SRC}")
    return cli


class Run:
    def __init__(self, workload, seed, work):
        self.make, self.limit = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.jobs = []

    def job(self, index):
        while len(self.jobs) <= index:
            job = self.make(self.seed, len(self.jobs))
            if job.text is not None:
                (self.work / f"{len(self.jobs)}.txt").write_text(job.text)
            self.jobs.append(job)
        return self.jobs[index]

    def setup(self):
        """Import fragmerge afresh and read the first MIN_JOBS problem files.

        Making the files is the benchmark's own work, done before the clock
        starts (and again between jobs when a run outgrows them)."""
        self.job(MIN_JOBS - 1)
        start = perf_counter()
        cli = import_fragmerge()
        for index in range(MIN_JOBS):
            path = self.work / f"{index}.txt"
            if path.exists():
                path.read_text()
        return perf_counter() - start, cli


class Tally:
    def __init__(self):
        self.times = []  # per job; a failed job is math.inf
        self.failures = {}
        self.wrong = 0

    @property
    def failed(self):
        return sum(self.failures.values())


def attempt(run, cli, goldens, index, tally):
    """Run job `index`, check its output and add it to `tally`."""
    job = run.job(index)
    elapsed, code, stdout, failure = run_job(cli, job, run.work / f"{index}.txt", run.limit)
    if failure is None and code not in DOCUMENTED_EXITS[job.kind]:
        failure = f"exit-{code}"
    if failure is None:
        problem = verify(job, code, stdout, goldens)
        if problem is not None:
            failure = "wrong-output"
            tally.wrong += 1
            print(f"job {index} ({' '.join(job.argv)}): {problem}", file=sys.stderr)
    tally.times.append(math.inf if failure else elapsed)
    if failure:
        tally.failures[failure] = tally.failures.get(failure, 0) + 1


def percentile(values, q, cap=math.inf):
    """Nearest-rank percentile; a failed job (inf) reads as `cap`."""
    ordered = sorted(values)
    value = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    return min(value, cap)


def calibrate():
    """Seconds this process takes for a fixed piece of pure-Python work.

    The work mixes what the library spends its time on: small-int bit
    arithmetic, frozenset and tuple building, dict updates and sorting.  It
    touches nothing of fragmerge, and the collector is off while it runs,
    so the objects the program keeps alive do not change its time."""
    gc.disable()
    try:
        start = perf_counter()
        counts = {}
        acc = 0
        for i in range(1500):
            key = frozenset((i & 63, (i * 7) & 63, (i * 13) & 63))
            counts[key] = counts.get(key, 0) + 1
            acc += (i * i) ^ (i >> 3)
            acc += len(tuple(sorted((i % 5, i % 3, i % 7))))
        return perf_counter() - start
    finally:
        gc.enable()


def clear_library_caches():
    for key, mod in list(sys.modules.items()):
        if key.startswith("fragmerge"):
            for value in vars(mod).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def describe_failures(tally):
    if not tally.failures:
        return "none"
    return ", ".join(f"{k} {v}" for k, v in sorted(tally.failures.items()))


def sample_setup(run):
    """Time one more set-up, then give the jobs back the modules they use."""
    def ours():
        return [k for k in sys.modules if k == "fragmerge" or k.startswith("fragmerge.")]

    saved = {key: sys.modules[key] for key in ours()}
    seconds, _ = run.setup()
    for key in ours():
        del sys.modules[key]
    sys.modules.update(saved)
    return seconds


def end_to_end(args, run, goldens):
    """Run jobs for --seconds and report the end-to-end metrics.

    The machine's speed for pure-Python work changes by tens of percent
    within seconds, whatever runs on it: in one 25 s run the calibration
    loop took 1.5 ms at first and 2.4 ms a few seconds later.  So the fixed
    `calibrate` loop is timed right before every job and set-up and once
    after the last, and each job's and set-up's time is reported scaled by
    CALIBRATION_REF_S / (median of the calibrations around it).  It reads
    as seconds on a machine as fast as the reference one was.  The loop
    does not involve fragmerge, so a change to the program moves the scaled
    times as much as the wall times.  The summary prints both."""
    for _ in range(3):
        calibrate()  # warm-up
    before = calibrate()
    seconds, cli = run.setup()
    setups = [(seconds, before, calibrate())]
    tally = Tally()
    calibrations = []  # calibrations[i] is taken right before job i
    rss = None
    start = perf_counter()
    while len(tally.times) < MIN_JOBS or perf_counter() - start < args.seconds:
        # The set-ups are spread over the run, like the jobs, so that a
        # slow second of the machine does not decide setup_s.
        if len(setups) < SETUP_REPEATS and perf_counter() - start >= len(setups) * args.seconds / SETUP_REPEATS:
            before = calibrate()
            seconds = sample_setup(run)
            setups.append((seconds, before, calibrate()))
        calibrations.append(calibrate())
        attempt(run, cli, goldens, len(tally.times), tally)
        if len(tally.times) == MIN_JOBS:
            # Peak memory over a fixed amount of work, so that a faster
            # program, which fits more jobs into the run, is not charged
            # for the caches those extra jobs fill.
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calibrations.append(calibrate())
    wall = perf_counter() - start
    n = len(tally.times)

    # Job i ran between calibrations i and i + 1; three on each side.
    jobs = [t * CALIBRATION_REF_S / statistics.median(calibrations[max(0, i - 2):i + 4])
            for i, t in enumerate(tally.times)]
    setup_s = [t * CALIBRATION_REF_S / statistics.median((a, b)) for t, a, b in setups]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "job_s.p50": (percentile(jobs, 0.5, run.limit), "s"),
        "job_s.p90": (percentile(jobs, 0.9, run.limit), "s"),
        "ok_frac": ((n - tally.failed) / n, "ratio"),
        "peak_rss_mib": (rss, "MiB"),
    }
    unscaled = {
        "setup_s": statistics.median(t for t, _, _ in setups),
        "job_s.p50": percentile(tally.times, 0.5, run.limit),
        "job_s.p90": percentile(tally.times, 0.9, run.limit),
    }
    print(f"workload {args.workload}  seed {args.seed}  {n} jobs in {wall:.1f} s"
          f"  (time limit {run.limit:g} s a job)")
    print(f"  calibration    median {statistics.median(calibrations) * 1e3:.4g} ms,"
          f" reference {CALIBRATION_REF_S * 1e3:.4g} ms")
    for name, (value, unit) in metrics.items():
        wall_time = f"  ({unscaled[name]:.6g} s unscaled)" if name in unscaled else ""
        print(f"  {name:<14} {value:.6g} {unit}{wall_time}")
    print(f"  {'fail_frac':<14} {tally.failed / n:.6g} ratio  (failures: {describe_failures(tally)})")
    return tally, metrics


def traced(args, run, goldens):
    """Run each job twice, untraced and traced, in alternating order and
    from cleared library caches, so both runs of a job start alike."""
    for _ in range(SETUP_REPEATS):
        _, cli = run.setup()
    tracer = Tracer()
    plain, tally = Tally(), Tally()
    layers = []  # per job: layer -> self time
    start = perf_counter()
    while len(tally.times) < TRACE_MIN_JOBS or perf_counter() - start < args.seconds:
        index = len(tally.times)
        for with_trace in (False, True) if index % 2 == 0 else (True, False):
            clear_library_caches()
            if not with_trace:
                attempt(run, cli, goldens, index, plain)
                continue
            tracer.install()
            tracer.start_job()
            try:
                attempt(run, cli, goldens, index, tally)
            finally:
                tracer.uninstall()
            layers.append(dict(tracer.job_layers))
    wall = perf_counter() - start

    metrics = tracer.metrics()
    both = [(a, b) for a, b in zip(plain.times, tally.times) if a != math.inf and b != math.inf]
    plain_s = sum(a for a, _ in both)
    metrics["trace.overhead_ratio"] = (sum(b for _, b in both) / plain_s if plain_s else 0.0, "ratio")
    metrics["trace.jobs"] = (len(tally.times), "count")
    layer_s = tracer.layer_self()
    total = sum(layer_s.values()) or 1.0
    for layer in MODULES:
        metrics[f"{layer}.self_share"] = (layer_s[layer] / total, "ratio")
    # The slowest tenth of the jobs, ranked by their untraced times.
    cut = percentile(plain.times, 0.9)
    slow = [layers[i] for i, t in enumerate(plain.times) if t >= cut]
    slow_total = sum(sum(d.values()) for d in slow) or 1.0
    for layer in MODULES:
        share = sum(d.get(layer, 0.0) for d in slow) / slow_total
        metrics[f"p90_jobs.{layer}.self_share"] = (share, "ratio")
    sizes = tracer.merged_sizes or [0]
    metrics["merge.merge.out_size_p50"] = (percentile(sizes, 0.5), "count")
    metrics["merge.merge.out_size_p90"] = (percentile(sizes, 0.9), "count")

    print(f"workload {args.workload}  seed {args.seed}  {len(tally.times)} jobs, each run"
          f" untraced and traced, in {wall:.1f} s  (failures: {describe_failures(tally)})")
    print("  self time by layer: " + ", ".join(
        f"{layer} {layer_s[layer] / total:.1%}" for layer in sorted(MODULES, key=lambda m: -layer_s[m])))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:<40} {value:.6g} {unit}")
    return tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fragmerge" / "__init__.py").is_file():
        print(f"no fragmerge sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    goldens = json.loads(GOLDENS.read_text())
    signal.signal(signal.SIGALRM, _on_alarm)

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work)
        tally, metrics = (traced if args.trace else end_to_end)(args, run, goldens)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": len(tally.times),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
