"""The cover searches reproduce the parent commit's plans, byte for byte.

``tests/data/gcov_covers.json`` holds, for every LUBM and DBLP workload
query on small stores, the cover ``gcov`` (and, up to five atoms,
``ecov``) picks, ``repr(estimated_cost)`` and ``covers_explored`` as
generated *at the parent commit* by ``tools/gen_gcov_golden.py``.  A
cost-layer change that restructures how an estimate is computed, but is
meant to leave every estimate alone (DESIGN.md §19), must regenerate
the same document: same covers, same floats to the last bit, same
number of covers costed.

The generator runs in a child interpreter with ``PYTHONHASHSEED=0``,
the seed the golden was written under: the estimator's per-variable
divisions run in set-iteration order, so this is what makes "the last
bit" well defined however pytest itself was started.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GENERATOR = ROOT / "tools" / "gen_gcov_golden.py"
GOLDEN = ROOT / "tests" / "data" / "gcov_covers.json"


def test_covers_costs_and_exploration_counts_match_the_golden():
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(GENERATOR), "--stdout"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    expected = GOLDEN.read_text()
    if run.stdout != expected:
        got, want = json.loads(run.stdout), json.loads(expected)
        moved = {
            key: (want.get(key), got.get(key))
            for key in sorted(set(want) | set(got))
            if want.get(key) != got.get(key)
        }
        raise AssertionError(f"(golden, now) differ for {moved or 'formatting only'}")
    searches = json.loads(expected)
    assert sum(key.endswith("/gcov") for key in searches) == 39
    assert sum(key.endswith("/ecov") for key in searches) == 38
