"""The independent answer check.

Expected digests are produced by ``repro.query.naive.evaluate`` over
the saturated facts graph: the executable definition of an answer set,
sharing no code with any strategy or engine under test.  A digest is
the row count plus the blake2b of the sorted rendered rows, rendered
the way the service renders them, so one digest serves both the
library workloads and the HTTP one.

At run time the first answer of each (dataset, query) is verified by
digest; later answers are compared for equality against that verified
answer, which checks every operation without re-rendering 90 k rows 490
times.
"""

from __future__ import annotations

import json
from hashlib import blake2b
from typing import Dict, Hashable, Iterable, List, Optional

from repro.query import evaluate
from repro.storage import RDFDatabase

from .env import EXPECTED_DIR


def render_rows(answers: Iterable[tuple]) -> List[str]:
    return ["\t".join(str(term) for term in row) for row in answers]


def digest(rendered_rows: Iterable[str]) -> str:
    ordered = sorted(rendered_rows)
    hashed = blake2b("\n".join(ordered).encode("utf-8"), digest_size=16)
    return f"{len(ordered)}:{hashed.hexdigest()}"


def oracle_answers(database: RDFDatabase, query) -> frozenset:
    """The naive reference answer set of ``query`` over ``database``."""
    return evaluate(query, database.saturated().facts_graph())


class Expected:
    """The committed digests of one scale (``expected/<scale>.json``)."""

    def __init__(self, scale_name: str):
        self.path = EXPECTED_DIR / f"{scale_name}.json"
        if self.path.exists():
            document = json.loads(self.path.read_text())
        else:
            document = {"cells": {}, "churn": {"seed": None, "steps": []}}
        self.cells: Dict[str, str] = document["cells"]
        self.churn_seed: Optional[int] = document["churn"]["seed"]
        #: ``steps[i][query]`` is the digest after the i-th write.
        self.churn_steps: List[Dict[str, str]] = document["churn"]["steps"]

    def save(self) -> None:
        EXPECTED_DIR.mkdir(exist_ok=True)
        document = {
            "cells": dict(sorted(self.cells.items())),
            "churn": {"seed": self.churn_seed, "steps": self.churn_steps},
        }
        self.path.write_text(json.dumps(document, indent=1) + "\n")


class Checker:
    """Counts attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._verified: Dict[Hashable, object] = {}

    def fail(self, what: str) -> None:
        """An operation that raised or was refused."""
        self.attempted += 1
        self._record(what)

    def passed(self) -> None:
        """An operation with nothing to compare (a write that succeeded)."""
        self.attempted += 1

    def _record(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def forget(self) -> None:
        """Drop the verified answers (the data changed under them)."""
        self._verified.clear()

    def check(self, key: Hashable, answer, expected_digest: Optional[str]) -> bool:
        """One operation's answer against the digest expected for ``key``.

        ``answer`` is a frozenset of term tuples or the service's list
        of rendered rows.  ``expected_digest=None`` means no digest
        exists for this key (``churn`` under a non-default seed): the
        first answer then stands as the reference the later ones, from
        the other strategies, must equal.
        """
        self.attempted += 1
        verified = self._verified.get(key)
        if verified is not None:
            if answer == verified:
                return True
            self._record(f"{key}: answer differs from the reference")
            return False
        if expected_digest is not None:
            rows = answer if isinstance(answer, list) else render_rows(answer)
            found = digest(rows)
            if found != expected_digest:
                self._record(f"{key}: digest {found} != expected {expected_digest}")
                return False
        self._verified[key] = answer
        return True

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
