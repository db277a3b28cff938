#!/usr/bin/env python3
"""Record the `check` and `reproduce` goldens the benchmark compares against.

    python3 perfbench/make_goldens.py

Runs every `check` job the benchmark can draw (postulate x fragment x
distance x aggregator x refinement, 288 in all) and every fixture once,
through `fragmerge.cli.main`, and writes their exit codes, witness counts
and output hashes to goldens.json.  The file in the repository was made
from the first benchmarked commit; the contract keeps `--format machine`
output byte-identical, so it is not remade for later commits.
"""

import json
import sys

import run


def main():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    cli = run.import_fragmerge()
    checks = {}
    for postulate in run.POSTULATES:
        for fragment in ("horn", "krom"):
            for options in run.CHECK_OPTIONS:
                args = (postulate, fragment) + options
                _, code, out, failure = run.run_job(cli, run.Job("check", run.check_argv(*args)), None, 1e6)
                if failure is not None:
                    raise SystemExit(f"check {' '.join(args)} failed: {failure}")
                count = sum(1 for line in out.splitlines() if line.startswith("witness\t"))
                checks[run.check_key(*args)] = [code, count, run._sha(out)]
    fixtures = {}
    for fixture in run.FIXTURES:
        job = run.Job("reproduce", ["reproduce", fixture, "--format", "machine"])
        _, code, out, failure = run.run_job(cli, job, None, 1e6)
        if failure is not None:
            raise SystemExit(f"reproduce {fixture} failed: {failure}")
        fixtures[fixture] = [code, run._sha(out)]
    run.GOLDENS.write_text(json.dumps({"check": checks, "reproduce": fixtures}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
