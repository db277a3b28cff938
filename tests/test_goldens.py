"""Byte identity of `--format machine` output with perfbench/goldens.json.

The goldens pin the exit code and the sha256 of stdout of every fixture and
of every 2-atom `check` job.  This runs all fixtures and the hamming/sigma
check jobs of ic0-ic6, with the argv the benchmark builds: 2 atoms, profile
size 1 for ic5/ic6 and 2 otherwise.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from fragmerge import cli, fixture_ids

GOLDENS = json.loads((Path(__file__).parent.parent / "perfbench" / "goldens.json").read_text())

CHECK_JOBS = [
    (postulate, fragment, refinement)
    for postulate in ("ic0", "ic1", "ic2", "ic3", "ic4", "ic5", "ic6")
    for fragment in ("horn", "krom")
    for refinement in ("none", "closure", "lex", "lex-closure")
]


def run_machine(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_goldens_cover_every_fixture():
    assert sorted(GOLDENS["reproduce"]) == sorted(fixture_ids())


@pytest.mark.parametrize("fixture", sorted(GOLDENS["reproduce"]))
def test_fixture_output_matches_golden(fixture):
    assert list(run_machine(["reproduce", fixture, "--format", "machine"])) == GOLDENS["reproduce"][fixture]


@pytest.mark.parametrize("postulate,fragment,refinement", CHECK_JOBS)
def test_check_output_matches_golden(postulate, fragment, refinement):
    want_code, _, want_sha = GOLDENS["check"][f"{postulate}/{fragment}/hamming/sigma/{refinement}"]
    size = "1" if postulate in ("ic5", "ic6") else "2"
    argv = ["check", "--op", f"hamming,sigma,{refinement}", "--fragment", fragment,
            "--postulates", postulate, "--atoms", "2", "--max-profile-size", size,
            "--format", "machine"]
    assert run_machine(argv) == (want_code, want_sha)
