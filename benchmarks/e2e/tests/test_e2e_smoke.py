"""Self-tests of the end-to-end benchmark (run explicitly, not tier-1):

    python -m pytest benchmarks/e2e/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(E2E))
sys.path.insert(0, str(E2E.parent.parent / "src"))

from e2elib import check, data  # noqa: E402
from e2elib.trace import SpanTracer, StagedDriver  # noqa: E402

SPEC = json.loads((E2E.parent.parent / "BENCHMARK.json").read_text())


def test_quick_run_emits_every_named_metric():
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--quick", "--trace"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["claim"] is None
    assert set(summary["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name in declared:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    for workload, entry in summary["workloads"].items():
        assert entry["failed_share"] == 0, workload
        for name, unit in declared.items():
            assert entry["metrics"][name]["unit"] == unit, (workload, name)
        for metric in SPEC["end_to_end"]:
            assert entry["metrics"][metric["name"]]["value"] > 0, (workload, metric)


@pytest.mark.parametrize(
    "cells_of, cold",
    [
        (data.cold_plan_cells, True),
        (data.warm_eval_cells, False),
        (data.churn_read_cells, False),
    ],
)
def test_staged_driver_returns_what_answer_returns(cells_of, cold):
    from repro.answering import QueryAnswerer
    from repro.cache import QueryCache
    from repro.engine import SQLiteEngine
    from repro.query import parse_query

    cells = cells_of()
    tracer = SpanTracer()
    databases = {
        name: data.build_dataset(name, data.QUICK) for name in {c.dataset for c in cells}
    }
    texts = {name: data.query_texts(name) for name in databases}
    answerers, drivers = {}, {}
    for cell in cells:
        key = (cell.dataset, cell.engine)
        if key not in answerers:
            database = databases[cell.dataset]
            answerers[key] = QueryAnswerer(
                database,
                engine=SQLiteEngine(database) if cell.engine == "sqlite" else None,
                cache=None if cold else QueryCache(),
            )
            drivers[key] = StagedDriver(tracer, answerers[key], cold)
        text = texts[cell.dataset][cell.query]
        tracer.begin(cell.name, 0)
        staged = drivers[key].answer(text, cell)
        direct = answerers[key].answer(
            parse_query(text, name=cell.query), strategy=cell.strategy
        )
        assert staged == direct.answers, cell.name
    assert tracer.records


def test_corrupted_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    import run

    shutil.copytree(E2E / "expected", tmp_path / "expected")
    path = tmp_path / "expected" / "quick.json"
    document = json.loads(path.read_text())
    document["cells"]["lubm-large/Q05"] = "0:" + "0" * 32
    path.write_text(json.dumps(document))
    monkeypatch.setattr(check, "EXPECTED_DIR", tmp_path / "expected")
    args = Namespace(workload="warm_eval", seed=0, seconds=0.0, trace=0, quick=True)
    assert run.run_workload(args, SPEC) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def test_span_self_time_excludes_children():
    tracer = SpanTracer()
    tracer.begin("cell", 0)
    with tracer.span("outer.a"):
        with tracer.span("inner.b"):
            pass
    (inner, outer) = tracer.records
    assert inner[1] == outer[0]  # parent link
    assert outer[5] == pytest.approx((outer[4] - outer[3]) - (inner[4] - inner[3]))
