"""Tests for the command-line interface."""

import argparse
import io
import re
import sys

import pytest

from repro.cli import build_parser, main
from repro.datasets import UB


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "campus.nt"
    assert main(["generate", "lubm", "--universities", "1", "-o", str(path)]) == 0
    return path


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_lubm_file(self, dataset):
        text = dataset.read_text()
        assert "univ-bench" in text
        assert text.count("\n") > 3000

    def test_dblp_stdout(self, capsys):
        code, out, err = run_cli(
            ["generate", "dblp", "--publications", "50"], capsys
        )
        assert code == 0
        assert "dblp.example.org" in out

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.nt", tmp_path / "b.nt"
        main(["generate", "lubm", "--universities", "1", "-o", str(a), "--seed", "9"])
        main(["generate", "lubm", "--universities", "1", "-o", str(b), "--seed", "9"])
        assert a.read_text() == b.read_text()


class TestQuery:
    @pytest.mark.parametrize("strategy", ["gcov", "ucq", "saturation"])
    def test_answers_printed(self, dataset, capsys, strategy):
        code, out, err = run_cli(
            [
                "query",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:Chair }",
                "--prefix",
                f"ub={UB}",
                "--strategy",
                strategy,
            ],
            capsys,
        )
        assert code == 0
        assert out.count("\n") == 4  # one chair per department
        assert "answers" in err
        # The phase split is reported from the AnswerReport, with parse
        # time separated out (total_s excludes parsing).
        assert "parse=" in err
        assert "optimize=" in err
        assert "evaluate=" in err
        assert "total excludes parse" in err

    def test_trace_export(self, dataset, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.jsonl"
        code, out, err = run_cli(
            [
                "query",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:Professor . ?x ub:worksFor ?d }",
                "--prefix",
                f"ub={UB}",
                "--strategy",
                "gcov",
                "--trace",
                str(trace_path),
            ],
            capsys,
        )
        assert code == 0
        assert "trace:" in err
        entries = [json.loads(line) for line in trace_path.read_text().splitlines()]
        names = {e.get("name") for e in entries if e["type"] == "span"}
        assert {"parse", "answer", "cover-search", "evaluate", "dedup"} <= names
        assert any(e["type"] == "search" for e in entries)
        assert any(e["type"] == "accuracy" for e in entries)

    def test_sqlite_engine(self, dataset, capsys):
        code, out, _ = run_cli(
            [
                "query",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:ResearchGroup }",
                "--prefix",
                f"ub={UB}",
                "--engine",
                "sqlite",
            ],
            capsys,
        )
        assert code == 0
        assert out.count("\n") == 12  # 3 groups × 4 departments

    def test_bad_prefix_rejected(self, dataset):
        with pytest.raises(SystemExit):
            main(
                [
                    "query",
                    str(dataset),
                    "-q",
                    "SELECT ?x WHERE { ?x a ub:Chair }",
                    "--prefix",
                    "malformed",
                ]
            )


class TestExplain:
    def test_native_plan(self, dataset, capsys):
        code, out, _ = run_cli(
            [
                "explain",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:Professor . ?x ub:worksFor ?d }",
                "--prefix",
                f"ub={UB}",
            ],
            capsys,
        )
        assert code == 0
        assert "cover:" in out
        assert "union terms" in out
        assert "JUCQ" in out or "UCQ" in out

    def test_sql_output(self, dataset, capsys):
        # --engine sqlite explains what SQLite would run: the SQL, then
        # SQLite's own query plan for it.
        code, out, _ = run_cli(
            [
                "explain",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:Chair }",
                "--prefix",
                f"ub={UB}",
                "--strategy",
                "ucq",
                "--engine",
                "sqlite",
            ],
            capsys,
        )
        assert code == 0
        assert "-- plan (sqlite) --" in out
        sql, _, plan = out.partition("-- SQLite query plan --")
        assert "SELECT DISTINCT" in sql and "FROM triples" in sql
        assert re.search(r"^\s+(SCAN|SEARCH) t0", plan, re.MULTILINE)

    def test_q28_gcov_shows_every_operand_and_the_operand_join(
        self, dataset, capsys
    ):
        code, out, _ = run_cli(
            [
                "explain",
                str(dataset),
                "-q",
                "SELECT ?x ?y ?u ?v WHERE { ?x a ?u . ?y a ?v . "
                "?x ub:advisor ?y . ?x ub:memberOf ?z . ?y ub:worksFor ?z }",
                "--prefix",
                f"ub={UB}",
                "--strategy",
                "gcov",
            ],
            capsys,
        )
        assert code == 0
        assert "-- plan (native-hash) --" in out
        operands = int(re.search(r"JUCQ: (\d+) operands", out).group(1))
        assert operands > 1
        sections = re.split(r"\n  operand u\d+ \(", out)[1:]
        assert len(sections) == operands
        for section in sections:
            templates = int(re.search(r"in (\d+) templates", section).group(1))
            assert re.findall(r"template (\d+): \d+ terms, join order \[t\d", section) == [
                str(number) for number in range(1, templates + 1)
            ]
            assert re.search(r"1\. scan t\d \[.*\] ~\d+ tuples in \d+ scans", section)
            assert "members:" in section and "head-constant join:" in section
        assert "operand join: hash-join, smallest materialized operand first" in out
        keys = re.findall(r"key u\d+ = u\d+ on (.+)", out)
        assert keys and all(key.startswith("?") for key in keys)
        assert "then project to (?x, ?y, ?u, ?v) + distinct" in out

    @pytest.mark.parametrize("sql", [False, True], ids=["plan", "sql"])
    def test_saturation_renders_against_the_saturated_store(
        self, dataset, capsys, sql
    ):
        # No Person triple is explicit in LUBM; the as-written query
        # runs on the saturated store, where 384 are.  Rendered against
        # the base store this read "~0 tuples" / "WHERE 0".
        argv = [
            "explain",
            str(dataset),
            "-q",
            "SELECT ?x WHERE { ?x a ub:Person }",
            "--prefix",
            f"ub={UB}",
            "--strategy",
            "saturation",
        ]
        code, out, _ = run_cli(argv + (["--engine", "sqlite"] if sql else []), capsys)
        assert code == 0
        if sql:
            assert "WHERE 0" not in out
            assert "t0.o = " in out
        else:
            assert "~384 tuples" in out


class TestProfile:
    def test_sections_printed(self, dataset, capsys):
        code, out, _ = run_cli(
            [
                "profile",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:Professor . ?x ub:worksFor ?d }",
                "--prefix",
                f"ub={UB}",
                "--strategy",
                "gcov",
            ],
            capsys,
        )
        assert code == 0
        assert "== spans ==" in out
        assert "cover-search" in out
        assert "== operator counters ==" in out
        assert "scan.rows" in out
        assert "== cost-model accuracy ==" in out
        assert "q(cost)" in out
        assert "search trajectory" in out

    def test_trace_export(self, dataset, tmp_path, capsys):
        trace_path = tmp_path / "profile.jsonl"
        code, out, err = run_cli(
            [
                "profile",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:Chair }",
                "--prefix",
                f"ub={UB}",
                "--trace",
                str(trace_path),
            ],
            capsys,
        )
        assert code == 0
        assert trace_path.exists()
        assert "wrote" in err

    def test_sqlite_engine_profiled(self, dataset, capsys):
        code, out, _ = run_cli(
            [
                "profile",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:Chair }",
                "--prefix",
                f"ub={UB}",
                "--engine",
                "sqlite",
            ],
            capsys,
        )
        assert code == 0
        assert "sqlite.execute" in out
        assert "sqlite.rows_fetched" in out


class TestStats:
    def test_summary(self, dataset, capsys):
        code, out, _ = run_cli(["stats", str(dataset), "--top", "3"], capsys)
        assert code == 0
        assert "facts:" in out
        assert "class histogram" in out


# ----------------------------------------------------------------------
# The surface a refactor can silently lose
# ----------------------------------------------------------------------
_STRATEGIES = ("ucq", "pruned-ucq", "scq", "ecov", "gcov", "saturation", "litemat")

#: Every option of every subcommand, written from the parser as it stood
#: before ``cli.py`` became a package, less ``explain --sql`` (``--engine
#: sqlite`` prints the SQL now): ``(option strings or dest, type,
#: default, choices)``.  132 entries over 12 subcommands; a flag or a
#: default that is dropped, renamed or added fails ``test_option_ledger``.
OPTION_LEDGER = {
    "generate": {
        ('flavor', None, None, ('lubm', 'dblp')),
        ('-o --output', None, None, None),
        ('--publications', 'int', 2000, None),
        ('--seed', 'int', 0, None),
        ('--universities', 'int', 1, None),
    },
    "query": {
        ('--budget-rows', 'int', None, None),
        ('--cache', None, False, None),
        ('data', None, None, None),
        ('--engine', None, 'native', ('native', 'sqlite')),
        ('--fallback --no-fallback', None, False, None),
        ('--max-union-terms', 'int', None, None),
        ('--prefix', None, (), None),
        ('-q --query', None, None, None),
        ('--repeat', 'int', 1, None),
        ('--strategy', None, 'gcov', _STRATEGIES),
        ('--timeout', 'seconds', None, None),
        ('--trace', None, None, None),
        ('--verify-ir', None, False, None),
    },
    "explain": {
        ('--cache', None, False, None),
        ('data', None, None, None),
        ('--engine', None, 'native', ('native', 'sqlite')),
        ('--prefix', None, (), None),
        ('-q --query', None, None, None),
        ('--strategy', None, 'gcov', _STRATEGIES),
        ('--verify-ir', None, False, None),
    },
    "profile": {
        ('--budget-rows', 'int', None, None),
        ('--cache', None, False, None),
        ('data', None, None, None),
        ('--engine', None, 'native', ('native', 'sqlite')),
        ('--fallback --no-fallback', None, False, None),
        ('--max-union-terms', 'int', None, None),
        ('--prefix', None, (), None),
        ('-q --query', None, None, None),
        ('--strategy', None, 'gcov', _STRATEGIES),
        ('--timeout', 'seconds', None, None),
        ('--trace', None, None, None),
        ('--verify-ir', None, False, None),
    },
    "lint": {
        ('data', None, None, None),
        ('--format', None, 'text', ('text', 'json')),
        ('--prefix', None, (), None),
        ('-q --query', None, (), None),
        ('--statement-limit', 'int', 500, None),
        ('--verbose', None, False, None),
        ('--workload', None, None, ('lubm', 'dblp')),
    },
    "analyze": {
        ('data', None, None, None),
        ('--format', None, 'text', ('text', 'json')),
        ('--prefix', None, (), None),
        ('-q --query', None, (), None),
        ('--statement-limit', 'int', 500, None),
        ('--term-limit', 'int', 10000, None),
        ('--verbose', None, False, None),
        ('--workload', None, None, ('lubm', 'dblp')),
    },
    "stats": {
        ('data', None, None, None),
        ('--top', 'int', 10, None),
    },
    "cache-stats": {
        ('data', None, None, None),
        ('--engine', None, 'native', ('native', 'sqlite')),
        ('--limit', 'int', 20000, None),
        ('--prefix', None, (), None),
        ('-q --query', None, (), None),
        ('--repeat', 'int', 2, None),
        ('--strategy', None, 'gcov', _STRATEGIES),
        ('--timeout', 'seconds', None, None),
        ('--workload', None, None, ('lubm', 'dblp')),
    },
    "metrics-export": {
        ('data', None, None, None),
        ('--engine', None, 'native', ('native', 'sqlite')),
        ('--format', None, 'text', ('text', 'json')),
        ('--limit', 'int', 20000, None),
        ('-o --output', None, None, None),
        ('--prefix', None, (), None),
        ('-q --query', None, (), None),
        ('--repeat', 'int', 1, None),
        ('--strategy', None, 'gcov', _STRATEGIES),
        ('--timeout', 'seconds', None, None),
        ('--workload', None, None, ('lubm', 'dblp')),
    },
    "chaos": {
        ('data', None, None, None),
        ('--engine', None, 'native', ('native', 'sqlite')),
        ('--failure-rate', 'float', 0.3, None),
        ('--limit', 'int', 20000, None),
        ('--max-retries', 'int', 1, None),
        ('--prefix', None, (), None),
        ('-q --query', None, (), None),
        ('--seeds', None, '0,1,2', None),
        ('--slow-rate', 'float', 0.2, None),
        ('--strategy', None, 'gcov', _STRATEGIES),
        ('--timeout-rate', 'float', 0.3, None),
        ('--transient --no-transient', None, True, None),
        ('--workload', None, None, ('lubm', 'dblp')),
    },
    "serve": {
        ('--data', None, None, None),
        ('--dblp', 'int', None, None),
        ('--direct', None, False, None),
        ('--drain-grace', 'float', 30.0, None),
        ('--engine', None, 'native', ('native', 'sqlite')),
        ('--host', None, '127.0.0.1', None),
        ('--limit', 'int', None, None),
        ('--lubm', 'int', None, None),
        ('--metrics-out', None, None, None),
        ('--port', 'int', 8425, None),
        ('--port-file', None, None, None),
        ('--queue-depth', 'int', 64, None),
        ('--seed', 'int', 0, None),
        ('--strategy', None, 'gcov', _STRATEGIES),
        ('--tenants', None, None, None),
        ('--timeout', 'seconds', None, None),
        ('--workers', 'int', None, None),
    },
    "fleet": {
        ('--attach', None, None, None),
        ('--data', None, None, None),
        ('--dblp', 'int', None, None),
        ('--drain-grace', 'float', 30.0, None),
        ('--engine', None, 'native', ('native', 'sqlite')),
        ('--fall', 'int', 2, None),
        ('--hedge-after', 'float', None, None),
        ('--host', None, '127.0.0.1', None),
        ('--limit', 'int', None, None),
        ('--lubm', 'int', None, None),
        ('--max-attempts', 'int', 4, None),
        ('--metrics-out', None, None, None),
        ('--no-hedge', None, False, None),
        ('--port', 'int', 8426, None),
        ('--port-file', None, None, None),
        ('--probe-interval', 'float', 0.5, None),
        ('--probe-timeout', 'float', 1.0, None),
        ('--replicas', 'int', 3, None),
        ('--rise', 'int', 2, None),
        ('--seed', 'int', 0, None),
        ('--startup-timeout', 'float', 120.0, None),
        ('--state-file', None, None, None),
        ('--strategy', None, 'gcov', _STRATEGIES),
        ('--tenants', None, None, None),
        ('--timeout', 'seconds', None, None),
        ('--upstream-timeout', 'float', 30.0, None),
        ('--workdir', None, None, None),
        ('--workers', 'int', None, None),
    },
}


def test_option_ledger():
    (subcommands,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    ledger = {
        name: {
            (
                " ".join(action.option_strings) or action.dest,
                getattr(action.type, "__name__", None),
                tuple(action.default)
                if isinstance(action.default, list)
                else action.default,
                None if action.choices is None else tuple(action.choices),
            )
            for action in command._actions
            if not isinstance(action, argparse._HelpAction)
        }
        for name, command in subcommands.choices.items()
    }
    assert list(ledger) == list(OPTION_LEDGER)
    assert sum(len(options) for options in OPTION_LEDGER.values()) == 132
    for name, options in OPTION_LEDGER.items():
        assert ledger[name] == options, name


#: The commands that parse ``-q`` into a query (``lint`` hands the text
#: to ``lint_text`` instead, see ``test_lint_reports_malformed_query``).
QUERY_COMMANDS = (
    "query",
    "explain",
    "profile",
    "analyze",
    "cache-stats",
    "metrics-export",
    "chaos",
)


@pytest.mark.parametrize("command", QUERY_COMMANDS)
def test_malformed_query_is_a_usage_error(dataset, capsys, command):
    code, out, err = run_cli(
        [command, str(dataset), "-q", "SELECT ?x WHERE { ?x a }"], capsys
    )
    assert code == 2
    assert err == "repro: bad query: expected a term, got '}'\n"
    assert "Traceback" not in err and not out


def test_lint_reports_malformed_query(dataset, capsys):
    code, out, err = run_cli(
        ["lint", str(dataset), "-q", "SELECT ?x WHERE { ?x a }"], capsys
    )
    assert code == 1
    assert "L100" in out and "expected a term" in out
    assert "Traceback" not in err


@pytest.mark.parametrize("command", QUERY_COMMANDS + ("lint",))
def test_prefix_without_iri_is_rejected(dataset, command):
    with pytest.raises(SystemExit) as rejection:
        main(
            [
                command,
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:Professor }",
                "--prefix",
                "ub",
            ]
        )
    assert rejection.value.code == "bad --prefix 'ub'; expected NAME=IRI"
