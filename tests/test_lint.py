"""Tests for the query lint (``repro.analysis.lint`` and ``repro lint``).

Rule-by-rule checks on the paper's book example (Figure 3 schema),
clean-workload assertions for the bundled LUBM and DBLP benchmarks, and
CLI-level exit-code / JSON-format tests.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.analysis import Severity
from repro.analysis.lint import (
    ECOV_DEGENERATE_ATOMS,
    format_report,
    lint_query,
    lint_text,
)
from repro.cli import main
from repro.datasets import UB, dblp_workload, lubm_workload
from repro.query.bgp import BGPQuery
from repro.rdf import Literal, RDF_TYPE, RDFS_SUBCLASS, Triple, URI, Variable
from repro.reformulation import Reformulator, reformulation_count


def ex(name: str) -> URI:
    return URI(f"http://ex/{name}")


x, y, z = Variable("x"), Variable("y"), Variable("z")


def codes(report) -> set:
    return {d.code for d in report.diagnostics}


# ----------------------------------------------------------------------
# Rule-by-rule, on the paper's book example
# ----------------------------------------------------------------------
class TestLintRules:
    def test_clean_query_on_book_schema(self, book_schema):
        query = BGPQuery([x, y], [Triple(x, ex("writtenBy"), y)])
        report = lint_query(query, schema=book_schema)
        assert report.ok
        assert codes(report) == set()

    def test_cartesian_product_is_l101(self, book_schema):
        query = BGPQuery(
            [x, z],
            [
                Triple(x, ex("writtenBy"), y),
                Triple(z, ex("hasAuthor"), Variable("w")),
            ],
        )
        report = lint_query(query, schema=book_schema)
        assert "L101" in codes(report)
        # Cartesian products are legal SPARQL: a warning, not an error.
        assert report.ok

    def test_unknown_property_is_l102(self, book_schema):
        query = BGPQuery([x], [Triple(x, ex("wrottenBy"), y)])
        report = lint_query(query, schema=book_schema)
        assert "L102" in codes(report)
        assert not report.ok

    def test_known_data_property_suppresses_l102(self, lubm_db):
        # advisor is in the LUBM data dictionary even where the RDFS
        # schema does not constrain it.
        query = BGPQuery([x], [Triple(x, URI(f"{UB}advisor"), y)])
        report = lint_query(query, database=lubm_db)
        assert "L102" not in codes(report)

    def test_unknown_class_is_l103(self, book_schema):
        query = BGPQuery([x], [Triple(x, RDF_TYPE, ex("Bok"))])
        report = lint_query(query, schema=book_schema)
        assert codes(report) == {"L103"}
        assert not report.ok

    def test_duplicate_atom_is_l104(self, book_schema):
        query = BGPQuery(
            [x],
            [Triple(x, ex("writtenBy"), y), Triple(x, ex("writtenBy"), y)],
        )
        report = lint_query(query, schema=book_schema)
        assert "L104" in codes(report)
        [dup] = [d for d in report.diagnostics if d.code == "L104"]
        assert "t1" in dup.message  # names the atom it duplicates

    def test_redundant_atom_is_l105(self, book_schema):
        # writtenBy ⊑ hasAuthor: the hasAuthor atom is entailed and the
        # paper's footnote-3 minimization would drop it.
        query = BGPQuery(
            [x, y],
            [Triple(x, ex("writtenBy"), y), Triple(x, ex("hasAuthor"), y)],
        )
        report = lint_query(query, schema=book_schema)
        assert "L105" in codes(report)

    def test_single_occurrence_variable_is_l107(self, book_schema):
        query = BGPQuery(
            [x],
            [Triple(x, ex("writtenBy"), y), Triple(x, ex("hasAuthor"), z)],
        )
        report = lint_query(query, schema=book_schema)
        infos = {d.code for d in report.diagnostics if d.severity == Severity.INFO}
        assert "L107" in infos
        assert report.ok

    def test_large_body_is_l108(self, book_schema):
        variables = [Variable(f"v{i}") for i in range(ECOV_DEGENERATE_ATOMS + 2)]
        body = [
            Triple(variables[i], ex("writtenBy"), variables[i + 1])
            for i in range(ECOV_DEGENERATE_ATOMS + 1)
        ]
        report = lint_query(BGPQuery([variables[0]], body), schema=book_schema)
        assert "L108" in codes(report)

    def test_reformulation_blowup_is_l109(self, book_schema):
        reformulator = Reformulator(book_schema)
        query = BGPQuery([x, y], [Triple(x, ex("hasAuthor"), y)])
        assert reformulation_count(query, book_schema) > 1  # hasAuthor + writtenBy + ...
        report = lint_query(
            query,
            schema=book_schema,
            reformulator=reformulator,
            max_operand_terms=1,
        )
        assert "L109" in codes(report)
        relaxed = lint_query(
            query,
            schema=book_schema,
            reformulator=reformulator,
            max_operand_terms=10_000,
        )
        assert "L109" not in codes(relaxed)

    def test_literal_subject_is_l110(self, book_schema):
        query = BGPQuery([x], [Triple(Literal("1996"), ex("writtenBy"), x)])
        report = lint_query(query, schema=book_schema)
        assert "L110" in codes(report)
        assert not report.ok


class TestLintText:
    def test_parse_error_is_l100(self):
        report = lint_text("SELECT ?x WHERE { broken", name="bad")
        assert codes(report) == {"L100"}
        assert report.query_name == "bad"
        assert not report.ok

    def test_unbound_projection_is_l106(self):
        report = lint_text("SELECT ?missing WHERE { ?x <http://ex/p> ?y }")
        assert codes(report) == {"L106"}

    def test_clean_text_reports_given_name(self, book_schema):
        report = lint_text(
            "SELECT ?x WHERE { ?x <http://ex/writtenBy> ?y }",
            schema=book_schema,
            name="q7",
        )
        assert report.ok
        assert report.query_name == "q7"

    def test_format_report_summarizes(self, book_schema):
        report = lint_text(
            "SELECT ?x WHERE { ?x a <http://ex/Bok> }", schema=book_schema
        )
        rendered = format_report(report)
        assert "L103" in rendered
        assert rendered.endswith("FAIL (1 errors, 0 warnings)")


# ----------------------------------------------------------------------
# The bundled workloads must lint clean (no error-severity findings)
# ----------------------------------------------------------------------
class TestWorkloadsLintClean:
    @pytest.mark.parametrize("entry", list(lubm_workload()), ids=lambda e: e.name)
    def test_lubm(self, lubm_db, entry):
        report = lint_query(entry.query, database=lubm_db)
        assert report.ok, format_report(report)

    @pytest.mark.parametrize("entry", list(dblp_workload()), ids=lambda e: e.name)
    def test_dblp(self, dblp_db, entry):
        report = lint_query(entry.query, database=dblp_db)
        assert report.ok, format_report(report)


# ----------------------------------------------------------------------
# CLI: exit codes and output formats
# ----------------------------------------------------------------------
@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "campus.nt"
    assert main(["generate", "lubm", "--universities", "1", "-o", str(path)]) == 0
    return path


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLintCLI:
    def test_clean_query_exits_zero(self, dataset, capsys):
        code, out, _ = run_cli(
            [
                "lint",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:Chair }",
                "--prefix",
                f"ub={UB}",
            ],
            capsys,
        )
        assert code == 0
        assert "q1: ok" in out

    def test_error_finding_exits_one(self, dataset, capsys):
        code, out, _ = run_cli(
            ["lint", str(dataset), "-q", "SELECT ?x WHERE { ?x a <http://ex/Nope> }"],
            capsys,
        )
        assert code == 1
        assert "L103" in out
        assert "q1: FAIL" in out

    def test_no_queries_exits_two(self, dataset, capsys):
        code, _, err = run_cli(["lint", str(dataset)], capsys)
        assert code == 2
        assert "needs at least one" in err

    def test_json_format(self, dataset, capsys):
        code, out, _ = run_cli(
            [
                "lint",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a <http://ex/Nope> }",
                "-q",
                "SELECT ?x WHERE { ?x a ub:Chair }",
                "--prefix",
                f"ub={UB}",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["queries"] == 2
        assert payload["failed"] == 1
        assert payload["reports"][0]["query"] == "q1"
        assert payload["reports"][0]["diagnostics"][0]["code"] == "L103"

    def test_workload_smoke(self, dataset, capsys):
        code, out, _ = run_cli(
            ["lint", str(dataset), "--workload", "lubm"], capsys
        )
        assert code == 0
        assert "Q01: ok" in out


# ----------------------------------------------------------------------
# Containment-backed rules: L111-L113 (DESIGN.md section 13)
# ----------------------------------------------------------------------
class TestContainmentLintRules:
    def test_subsumed_union_terms_are_l111(self, lubm_db):
        # Q19's reformulation carries terms subsumed by more general
        # siblings; with a reformulator the lint materializes the raw
        # UCQ and reports them (informational -- the default pipeline
        # removes them automatically).
        entry = next(e for e in lubm_workload() if e.name == "Q19")
        report = lint_query(
            entry.query,
            schema=lubm_db.schema,
            reformulator=Reformulator(lubm_db.schema),
        )
        assert "L111" in codes(report)
        assert report.ok  # INFO severity: advisory, never a failure

    def test_duplicate_union_terms_are_l112(self, book_schema, monkeypatch):
        # Reformulation preserves head variable names, so renaming
        # duplicates cannot arise organically; stub the reformulation
        # to return one to exercise the rule.
        import importlib

        from repro.query.algebra import UCQ

        # `repro.reformulation.reformulate` the *module* is shadowed by
        # the re-exported function of the same name.
        reformulate_module = importlib.import_module(
            "repro.reformulation.reformulate"
        )

        left = BGPQuery([x], [Triple(x, ex("writtenBy"), y)])
        right = BGPQuery([z], [Triple(z, ex("writtenBy"), Variable("w"))])
        duplicated = UCQ([left, right])
        monkeypatch.setattr(
            reformulate_module,
            "reformulate",
            lambda query, schema, limit=None: duplicated,
        )
        report = lint_query(
            left, schema=book_schema, reformulator=Reformulator(book_schema)
        )
        assert "L112" in codes(report)
        assert report.ok

    def test_unsatisfiable_constraint_atom_is_l113(self, book_schema):
        query = BGPQuery([x], [Triple(x, RDFS_SUBCLASS, ex("NoSuchClass"))])
        report = lint_query(query, schema=book_schema)
        assert "L113" in codes(report)
        assert not report.ok  # statically empty answer: an error

    def test_satisfiable_constraint_atom_is_clean(self, book_schema):
        query = BGPQuery([x], [Triple(x, RDFS_SUBCLASS, ex("Publication"))])
        report = lint_query(query, schema=book_schema)
        assert "L113" not in codes(report)

    def test_no_reformulator_skips_union_rules(self, lubm_db):
        # Without a reformulator the lint must not materialize UCQs.
        entry = next(e for e in lubm_workload() if e.name == "Q19")
        report = lint_query(entry.query, schema=lubm_db.schema)
        assert "L111" not in codes(report)
        assert "L112" not in codes(report)


class TestAnalyzeCLI:
    def test_clean_query_exits_zero(self, dataset, capsys):
        code, out, _ = run_cli(
            [
                "analyze",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:Professor . ?x ub:worksFor ?d }",
                "--prefix",
                f"ub={UB}",
            ],
            capsys,
        )
        assert code == 0
        assert "union terms" in out

    def test_statically_empty_query_exits_one(self, dataset, capsys):
        subclass = "<http://www.w3.org/2000/01/rdf-schema#subClassOf>"
        code, out, _ = run_cli(
            [
                "analyze",
                str(dataset),
                "-q",
                f"SELECT ?x WHERE {{ ?x {subclass} <http://ex/Nope> }}",
            ],
            capsys,
        )
        assert code == 1
        assert "L113" in out

    def test_no_queries_exits_two(self, dataset, capsys):
        code, _, err = run_cli(["analyze", str(dataset)], capsys)
        assert code == 2

    def test_json_format(self, dataset, capsys):
        code, out, _ = run_cli(
            [
                "analyze",
                str(dataset),
                "-q",
                "SELECT ?x ?y WHERE { ?x ub:headOf ?y }",
                "--prefix",
                f"ub={UB}",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["queries"] == 1
        assert payload["failed"] == 0
        row = payload["reports"][0]
        assert row["terms_after"] <= row["terms_before"]
        assert row["certificate_faults"] == []

    def test_tampered_certificate_is_a_fault(self, dataset, capsys, monkeypatch):
        """The certificates ``repro analyze`` re-checks are the ones the
        pass returned: one that no longer proves its elimination is
        reported, and fails the run."""
        import repro.analysis.containment as containment

        honest = containment.minimize_ucq

        def tampered(ucq, schema=None, **kwargs):
            result = honest(ucq, schema, **kwargs)
            record = result.subsumption
            _, (_, number) = next(iter(record.eliminated.items()))
            certificate = record.certificates[number]
            # Mappings are shared by every union of the process: tamper
            # with a copy.
            hom = certificate.hom = copy.copy(certificate.hom)
            atoms = len(certificate.removed.layout.atoms)
            hom.pi = tuple((onto + 1) % atoms for onto in hom.pi)
            return result

        monkeypatch.setattr(containment, "minimize_ucq", tampered)
        code, out, _ = run_cli(
            [
                "analyze",
                str(dataset),
                "-q",
                "SELECT ?x ?y WHERE { ?x a ub:Employee . ?x ub:worksFor ?y }",
                "--prefix",
                f"ub={UB}",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 1
        row = json.loads(out)["reports"][0]
        assert row["subsumed"] > 0
        assert "IR-M01" in {fault["code"] for fault in row["certificate_faults"]}
