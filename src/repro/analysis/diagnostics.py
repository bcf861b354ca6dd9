"""Diagnostics: the shared currency of the static-analysis subsystem.

Every check in :mod:`repro.analysis` — the IR verifier stages and the
query lint rules — reports findings as :class:`Diagnostic` values: a
stable rule code, a severity, a human message, and (when known) the
pipeline stage and body-atom index the finding anchors to.  Keeping the
representation uniform lets the CLI render text or JSON from any check,
lets tests assert on exact rule codes, and gives deterministic output
ordering (diagnostics sort by stage, code, atom index, then message).

The rule-code catalogue lives in DESIGN.md §8.  Codes are permanent:
``IR-*`` codes belong to the verifier (one letter per stage: Q, C, J,
T, S, M), ``L1xx`` codes to the lint.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


class Severity(enum.IntEnum):
    """How bad a finding is; ordered so comparisons read naturally."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # "ERROR", not "Severity.ERROR"
        return self.name


#: Canonical ordering of pipeline stages, used to sort diagnostics.
STAGE_ORDER: Tuple[str, ...] = (
    "query",
    "minimize",
    "cover",
    "jucq",
    "template",
    "sql",
    "lint",
)


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a verifier stage or lint rule.

    ``atom_index`` is the 0-based index into the query body the finding
    anchors to, when there is a single meaningful one; renderers show it
    1-based (``t3``) to match the paper's atom naming.
    """

    code: str
    severity: Severity
    message: str
    stage: str = "lint"
    subject: str = ""
    atom_index: Optional[int] = None

    def sort_key(self) -> Tuple:
        stage_rank = (
            STAGE_ORDER.index(self.stage) if self.stage in STAGE_ORDER else len(STAGE_ORDER)
        )
        return (
            stage_rank,
            self.code,
            -1 if self.atom_index is None else self.atom_index,
            self.subject,
            self.message,
        )

    def format(self) -> str:
        """One-line rendering: ``ERROR IR-C04 [t2]: message``."""
        anchor = f" [t{self.atom_index + 1}]" if self.atom_index is not None else ""
        subject = f" ({self.subject})" if self.subject else ""
        return f"{self.severity} {self.code}{anchor}{subject}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (used by ``repro lint --format json``)."""
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "stage": self.stage,
            "subject": self.subject,
            "atom_index": self.atom_index,
        }


def sort_diagnostics(diagnostics: Sequence[Diagnostic]) -> List[Diagnostic]:
    """Deterministic ordering for stable CLI and test output."""
    return sorted(diagnostics, key=Diagnostic.sort_key)


def errors(diagnostics: Sequence[Diagnostic]) -> List[Diagnostic]:
    """The error-severity subset, in deterministic order."""
    return sort_diagnostics(
        [d for d in diagnostics if d.severity >= Severity.ERROR]
    )


class IRVerificationError(ValueError):
    """An IR failed a verifier stage; carries the full diagnostic list.

    Subclasses ``ValueError`` so long-standing call sites (and tests)
    that caught the old free-form validation errors keep working.
    """

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        ordered = sort_diagnostics(diagnostics)
        super().__init__("\n".join(d.format() for d in ordered))
        self.diagnostics: Tuple[Diagnostic, ...] = tuple(ordered)

    @property
    def codes(self) -> Tuple[str, ...]:
        """The rule codes that fired, in deterministic order."""
        return tuple(d.code for d in self.diagnostics)


class CoverValidationError(IRVerificationError):
    """A cover violates Definition 3.3 (raised by ``validate_cover``)."""


@dataclass
class LintReport:
    """The lint result for one query: diagnostics plus summary counts."""

    query_name: str
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def extend(self, findings: Sequence[Diagnostic]) -> None:
        self.diagnostics.extend(findings)
        self.diagnostics = sort_diagnostics(self.diagnostics)

    @property
    def error_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity >= Severity.ERROR)

    @property
    def warning_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when nothing error-severity fired."""
        return self.error_count == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "query": self.query_name,
            "errors": self.error_count,
            "warnings": self.warning_count,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
