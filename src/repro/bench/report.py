"""Structured benchmark results behind the ``benchmarks/results/*.txt`` tables.

Every paper-figure script in ``benchmarks/`` funnels its measurements
through a :class:`BenchReport`: a named list of *cells*, one per measured
configuration (e.g. query × strategy × engine), each carrying

* ``labels`` — the configuration coordinates (all strings),
* ``status`` — ``"ok"`` or a missing-bar kind (``failed``/``timeout``/
  ``infeasible``),
* ``metrics`` — numeric results; timing metrics are repeat
  *distributions* (:func:`summarize`), rendered by their median,
* ``info`` — auxiliary scalars (answer counts, reformulation sizes).

:meth:`BenchReport.render_text` is the one rendering: the greppable
one-line-per-cell table EXPERIMENTS.md quotes.  The repo's performance
gate is ``BENCHMARK.json`` + ``benchmarks/e2e/``, not these tables.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

Number = Union[int, float]


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending sample list."""
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def summarize(values: Iterable[Number], unit: str = "ms") -> Dict[str, Any]:
    """A repeat distribution: count/mean/min/max/p50 plus raw samples.

    The raw samples are kept (rounded) so a reader can recompute any
    statistic; ``render_text`` prints ``p50``.
    """
    ordered = sorted(float(v) for v in values)
    if not ordered:
        return {"unit": unit, "count": 0}
    # With 1–2 samples there is no tail to interpolate into: linear
    # interpolation between the only two points would report a "p90"
    # *below* an observed value.  Degrade the tail percentiles to the
    # max — the honest small-sample reading.
    small = len(ordered) < 3
    return {
        "unit": unit,
        "count": len(ordered),
        "mean": round(sum(ordered) / len(ordered), 6),
        "min": round(ordered[0], 6),
        "max": round(ordered[-1], 6),
        "p50": round(_percentile(ordered, 0.5), 6),
        "p90": round(ordered[-1] if small else _percentile(ordered, 0.9), 6),
        "p99": round(ordered[-1] if small else _percentile(ordered, 0.99), 6),
        "values": [round(v, 6) for v in ordered],
    }


def central(metric: Any) -> Optional[float]:
    """The central value of a metric cell entry, as the text table prints it.

    Plain numbers read as themselves; :func:`summarize` distributions
    read by ``p50`` (falling back to ``mean``).  Anything else —
    including an empty distribution — has none and is left out.
    """
    if isinstance(metric, bool):
        return None
    if isinstance(metric, (int, float)):
        return float(metric)
    if isinstance(metric, dict):
        for key in ("p50", "mean"):
            value = metric.get(key)
            if isinstance(value, (int, float)):
                return float(value)
    return None


class BenchReport:
    """One benchmark's structured results (cells + the scales they ran at)."""

    def __init__(
        self,
        name: str,
        title: Optional[str] = None,
        scales: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.title = title or name
        self.scales = dict(scales or {})
        self.cells: List[Dict[str, Any]] = []

    def add_cell(
        self,
        labels: Dict[str, Any],
        status: str = "ok",
        metrics: Optional[Dict[str, Any]] = None,
        info: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Record one measured configuration; returns the cell dict."""
        cell = {
            "labels": {key: str(value) for key, value in labels.items()},
            "status": status,
            "metrics": dict(metrics or {}),
            "info": dict(info or {}),
        }
        self.cells.append(cell)
        return cell

    def render_text(self) -> str:
        """Greppable one-line-per-cell text form of the cells."""
        lines = [f"# bench: {self.name} (schema v1)"]
        if self.title != self.name:
            lines.append(f"# title: {self.title}")
        if self.scales:
            scales = " ".join(f"{k}={v}" for k, v in sorted(self.scales.items()))
            lines.append(f"# scales: {scales}")
        for cell in self.cells:
            parts = [f"{k}={v}" for k, v in cell["labels"].items()]
            parts.append(f"status={cell['status']}")
            for key, metric in cell["metrics"].items():
                value = central(metric)
                if value is not None:
                    parts.append(f"{key}={value:.3f}")
            for key, value in cell["info"].items():
                if value not in (None, ""):
                    parts.append(f"{key}={value}")
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"

    def write_text(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.render_text())
        return path
