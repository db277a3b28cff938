"""Byte identity of `--format machine` output with perfbench/goldens.json.

The goldens pin the exit code and the sha256 of stdout of every fixture and
of every 2-atom `check` job.  This runs all of them: the check jobs are
ic0-ic8 x horn/krom x the 16 distance, aggregator and refinement options,
with the argv the benchmark builds: 2 atoms, profile size 1 for ic5/ic6 and
2 otherwise.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from fragmerge import cli, fixture_ids

GOLDENS = json.loads((Path(__file__).parent.parent / "perfbench" / "goldens.json").read_text())


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


def test_goldens_cover_every_check_job():
    keys = [key.split("/") for key in GOLDENS["check"]]
    assert len(keys) == 9 * 2 * 16
    assert {key[0] for key in keys} == {f"ic{i}" for i in range(9)}


@pytest.mark.parametrize("key", sorted(GOLDENS["check"]))
def test_check_output_matches_golden(key):
    want_code, _, want_sha = GOLDENS["check"][key]
    postulate, fragment, distance, aggregator, refinement = key.split("/")
    size = "1" if postulate in ("ic5", "ic6") else "2"
    argv = ["check", "--op", f"{distance},{aggregator},{refinement}", "--fragment", fragment,
            "--postulates", postulate, "--atoms", "2", "--max-profile-size", size,
            "--format", "machine"]
    assert run_machine(argv) == (want_code, want_sha)
