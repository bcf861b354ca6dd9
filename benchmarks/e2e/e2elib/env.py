"""Where the benchmark lives, and the machine it ran on."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

E2E_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = E2E_DIR.parent.parent
OUT_DIR = E2E_DIR / "out"
EXPECTED_DIR = E2E_DIR / "expected"
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"


def require_source() -> None:
    """Put ``src/`` on the import path; exit 2 when the program is absent.

    The benchmark measures the checkout it sits in, never an installed
    copy, so a directory without ``src/repro`` is an error, not a
    fallback to whatever ``import repro`` would find.
    """
    source = REPO_ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"e2e benchmark: no program to measure at {source}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(source))


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def load_average() -> float:
    return os.getloadavg()[0]


def provenance() -> Dict[str, Any]:
    """The noise-relevant facts every result document records."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def warn_if_loaded(load: float, when: str) -> None:
    nproc = os.cpu_count() or 1
    if load > nproc:
        print(
            f"e2e benchmark: WARNING 1-minute load average {load:.2f} exceeds "
            f"nproc={nproc} at {when}; timings are contended",
            file=sys.stderr,
        )
