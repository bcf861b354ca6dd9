"""Static analysis: the IR verifier and the query lint.

Two halves (DESIGN.md §8):

* **IR verifier** (:mod:`.verifier`, :mod:`.sqlcheck`) — per-stage
  invariant checks over the pipeline's IRs (BGPQuery, cover, JUCQ,
  plan tree, generated SQL), with stable ``IR-*`` rule codes.  Enabled
  end-to-end by ``QueryAnswerer(verify_ir=True)`` / ``--verify-ir``.
* **Query lint** (:mod:`.lint`) — user-facing diagnostics (``L1xx``
  codes) for queries that parse but cannot mean what their author
  hoped: cartesian products, vocabulary absent from schema and data,
  redundant atoms, degenerate cost-model regimes.

Submodules beyond :mod:`.diagnostics` are re-exported lazily: the
verifier imports :mod:`repro.reformulation.covers` (for Definition 3.3
checks) while ``covers`` imports :mod:`.diagnostics` from this package,
and eager re-export would turn that into an import cycle.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

from .diagnostics import (
    CoverValidationError,
    Diagnostic,
    IRVerificationError,
    LintReport,
    Severity,
    errors,
    sort_diagnostics,
)

if TYPE_CHECKING:  # pragma: no cover - static-analysis-only imports
    from .containment import (
        MinimizationResult,
        Witness,
        containment_witness,
        core,
        equivalent,
        find_homomorphism,
        is_contained,
        minimize_ucq,
    )
    from .lint import format_report, lint_query, lint_text
    from .sqlcheck import check_sql, verify_sql
    from .verifier import (
        check_bgp,
        check_cover,
        check_jucq,
        check_minimization,
        check_plan,
        check_subsumption,
        plan_schema,
        verify_bgp,
        verify_cover,
        verify_jucq,
        verify_minimization,
        verify_pipeline,
        verify_plan,
        verify_subsumption,
    )

_LAZY = {
    "check_bgp": "verifier",
    "check_cover": "verifier",
    "check_jucq": "verifier",
    "check_minimization": "verifier",
    "check_plan": "verifier",
    "check_subsumption": "verifier",
    "plan_schema": "verifier",
    "verify_bgp": "verifier",
    "verify_cover": "verifier",
    "verify_jucq": "verifier",
    "verify_minimization": "verifier",
    "verify_plan": "verifier",
    "verify_pipeline": "verifier",
    "verify_subsumption": "verifier",
    "check_sql": "sqlcheck",
    "verify_sql": "sqlcheck",
    "sql_output_columns": "sqlcheck",
    "lint_query": "lint",
    "lint_text": "lint",
    "format_report": "lint",
    "MinimizationResult": "containment",
    "Witness": "containment",
    "containment_witness": "containment",
    "core": "containment",
    "equivalent": "containment",
    "find_homomorphism": "containment",
    "is_contained": "containment",
    "minimize_ucq": "containment",
}

__all__ = [
    "CoverValidationError",
    "Diagnostic",
    "IRVerificationError",
    "LintReport",
    "Severity",
    "errors",
    "sort_diagnostics",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module_name}", __name__), name)
