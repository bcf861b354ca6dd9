"""Cost-model accuracy tracking: predicted vs. observed, as q-errors.

The paper's Figure 9 compares its cost model against engine-internal
estimates by how well each *orders* the candidate covers; this module
shapes the raw material for that judgement, which a traced answer
records as one ``accuracy`` trace record per evaluated (sub)query:
predicted cost vs. observed wall-clock seconds, and predicted
cardinality vs. observed result rows.  Both pairs are
condensed into the **q-error** of the learned-costing literature
(Leis et al., "How Good Are Query Optimizers, Really?"):

    q(pred, obs) = max(pred / obs, obs / pred)

which is ≥ 1, symmetric under over-/under-estimation, and
multiplicative.  Edge cases are pinned down explicitly: two zero (or
negative) quantities agree perfectly (q = 1); a zero prediction against
a non-zero observation — or vice versa — is infinitely wrong (q = inf).
"""

from __future__ import annotations

from typing import Any, Dict


def q_error(predicted: float, observed: float) -> float:
    """The q-error of a prediction (≥ 1.0; ``inf`` on one-sided zeros)."""
    if predicted <= 0.0 and observed <= 0.0:
        return 1.0
    if predicted <= 0.0 or observed <= 0.0:
        return float("inf")
    return max(predicted / observed, observed / predicted)


def accuracy_sample(
    label: str,
    *,
    predicted_cost: float,
    observed_s: float,
    predicted_rows: float,
    observed_rows: int,
) -> Dict[str, Any]:
    """One predicted-vs-observed sample for an evaluated (sub)query, as
    the ``accuracy`` trace record's payload: both pairs and their
    q-errors."""
    predicted_cost, observed_s = float(predicted_cost), float(observed_s)
    predicted_rows, observed_rows = float(predicted_rows), int(observed_rows)
    return {
        "label": label,
        "predicted_cost": predicted_cost,
        "observed_s": observed_s,
        "predicted_rows": predicted_rows,
        "observed_rows": observed_rows,
        "cost_q_error": q_error(predicted_cost, observed_s),
        "cardinality_q_error": q_error(predicted_rows, float(observed_rows)),
    }
