"""A small parser for the SPARQL BGP (conjunctive) fragment.

Grammar (case-insensitive keywords)::

    query    := prefix* "SELECT" var+ "WHERE" "{" triple ("." triple)* "."? "}"
    prefix   := "PREFIX" NAME ":" "<" IRI ">"
    triple   := term term term
    term     := "?name" | "<iri>" | name ":" local | '"literal"' | "a"

``a`` abbreviates ``rdf:type``, as in SPARQL.  The ``rdf:`` and
``rdfs:`` prefixes are predeclared.  This covers everything the paper's
workloads use; OPTIONAL/FILTER/etc. are out of scope of BGP queries.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from ..rdf.terms import Literal, Term, Triple, URI, Variable
from ..rdf.vocabulary import RDF_NS, RDF_TYPE, RDFS_NS
from .bgp import BGPQuery


class SPARQLSyntaxError(ValueError):
    """Raised on malformed query text."""


_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<iri><[^>\s]*>)
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<literal>"(?:[^"\\]|\\.)*")
  | (?P<pname>[A-Za-z_][A-Za-z0-9_\-]*:[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<keyword>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}.:])
    """,
    re.VERBOSE,
)

_DEFAULT_PREFIXES = {"rdf": RDF_NS, "rdfs": RDFS_NS}


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            raise SPARQLSyntaxError(f"unexpected input at {text[position:position+20]!r}")
        position = match.end()
        kind = match.lastgroup
        if kind in ("ws", "comment"):
            continue
        tokens.append((kind, match.group()))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str]], name: str):
        self.tokens = tokens
        self.index = 0
        self.name = name
        self.prefixes: Dict[str, str] = dict(_DEFAULT_PREFIXES)

    def peek(self) -> Tuple[str, str]:
        if self.index >= len(self.tokens):
            return ("eof", "")
        return self.tokens[self.index]

    def next(self) -> Tuple[str, str]:
        token = self.peek()
        if token[0] == "eof":
            raise SPARQLSyntaxError("unexpected end of query")
        self.index += 1
        return token

    def expect_keyword(self, word: str) -> None:
        kind, value = self.next()
        if kind != "keyword" or value.lower() != word.lower():
            raise SPARQLSyntaxError(f"expected {word!r}, got {value!r}")

    def expect_punct(self, char: str) -> None:
        kind, value = self.next()
        if kind != "punct" or value != char:
            raise SPARQLSyntaxError(f"expected {char!r}, got {value!r}")

    # ------------------------------------------------------------------
    def parse(self) -> BGPQuery:
        while self._at_keyword("prefix"):
            self._parse_prefix()
        self.expect_keyword("select")
        head: List[Term] = []
        while self.peek()[0] == "var":
            head.append(Variable(self.next()[1][1:]))
        if not head:
            raise SPARQLSyntaxError("SELECT needs at least one variable")
        self.expect_keyword("where")
        self.expect_punct("{")
        body: List[Triple] = []
        while True:
            kind, value = self.peek()
            if kind == "punct" and value == "}":
                self.next()
                break
            body.append(self._parse_triple())
            kind, value = self.peek()
            if kind == "punct" and value == ".":
                self.next()
        if self.peek()[0] != "eof":
            raise SPARQLSyntaxError(f"trailing input after '}}': {self.peek()[1]!r}")
        if not body:
            raise SPARQLSyntaxError("empty BGP")
        return BGPQuery(head, body, name=self.name)

    def _at_keyword(self, word: str) -> bool:
        kind, value = self.peek()
        return kind == "keyword" and value.lower() == word.lower()

    def _parse_prefix(self) -> None:
        self.expect_keyword("prefix")
        kind, value = self.next()
        if kind != "keyword":
            raise SPARQLSyntaxError(f"expected prefix name, got {value!r}")
        self.expect_punct(":")
        kind, iri = self.next()
        if kind != "iri":
            raise SPARQLSyntaxError(f"expected <iri> for prefix, got {iri!r}")
        self.prefixes[value] = iri[1:-1]

    def _parse_triple(self) -> Triple:
        return Triple(self._parse_term(), self._parse_term(), self._parse_term())

    def _parse_term(self) -> Term:
        kind, value = self.next()
        if kind == "var":
            return Variable(value[1:])
        if kind == "iri":
            return URI(value[1:-1])
        if kind == "literal":
            raw = value[1:-1]
            unescaped = (
                raw.replace("\\\\", "\0")
                .replace('\\"', '"')
                .replace("\\n", "\n")
                .replace("\\t", "\t")
                .replace("\0", "\\")
            )
            return Literal(unescaped)
        if kind == "pname":
            prefix, local = value.split(":", 1)
            if prefix not in self.prefixes:
                raise SPARQLSyntaxError(f"undeclared prefix {prefix!r}")
            return URI(self.prefixes[prefix] + local)
        if kind == "keyword" and value == "a":
            return RDF_TYPE
        raise SPARQLSyntaxError(f"expected a term, got {value!r}")


def parse_query(text: str, name: str = "q") -> BGPQuery:
    """Parse SPARQL BGP text into a :class:`BGPQuery`.

    >>> parse_query('SELECT ?x WHERE { ?x a rdfs:Class }').arity
    1

    Every rejection is a :class:`SPARQLSyntaxError`, including what the
    grammar lets through and the term or query constructors refuse (an
    empty IRI, a head variable the body never binds).
    """
    try:
        return _Parser(_tokenize(text), name).parse()
    except SPARQLSyntaxError:
        raise
    except ValueError as error:
        raise SPARQLSyntaxError(str(error)) from error


def _sparql_term(term: Term) -> str:
    if isinstance(term, Variable):
        return f"?{term.value}"
    if isinstance(term, URI):
        return f"<{term.value}>"
    if isinstance(term, Literal):
        escaped = (
            str(term.value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\t", "\\t")
        )
        return f'"{escaped}"'
    raise ValueError(f"cannot serialize term {term!r} to SPARQL")


def to_sparql(query: BGPQuery) -> str:
    """Render a :class:`BGPQuery` back to parseable SPARQL text.

    The inverse of :func:`parse_query` up to cosmetic whitespace and
    prefix expansion (every IRI comes out absolute), used by HTTP
    clients of the query service that hold parsed workload queries:
    ``parse_query(to_sparql(q)) == q``.
    """
    head = []
    for term in query.head:
        if not isinstance(term, Variable):
            raise ValueError(f"SELECT term must be a variable, got {term!r}")
        head.append(_sparql_term(term))
    body = " . ".join(
        f"{_sparql_term(a.s)} {_sparql_term(a.p)} {_sparql_term(a.o)}"
        for a in query.body
    )
    return f"SELECT {' '.join(head)} WHERE {{ {body} }}"
