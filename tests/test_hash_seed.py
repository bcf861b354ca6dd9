"""The CLI's analysis output does not depend on ``PYTHONHASHSEED``.

A raw reformulation's term order and the fresh-variable names its terms
carry follow the order in which the schema's vocabulary and closure sets
are read (DESIGN.md §4), so every such read is sorted.  Two child
interpreters under different hash seeds must print the same bytes for
``repro analyze --verbose`` and ``repro lint --verbose`` over the LUBM
workload on a one-university store.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def campus(tmp_path_factory):
    path = tmp_path_factory.mktemp("seed") / "campus.nt"
    assert main(["generate", "lubm", "--universities", "1", "-o", str(path)]) == 0
    return path


def run_under_seed(seed: str, argv) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.parametrize("command", ["analyze", "lint"])
def test_verbose_output_is_the_same_under_two_hash_seeds(campus, command):
    argv = [command, str(campus), "--workload", "lubm", "--verbose"]
    first = run_under_seed("1", argv)
    assert first
    assert run_under_seed("2", argv) == first
