"""Save/load an :class:`RDFDatabase` to/from a directory on disk.

Layout::

    <dir>/
      triples.npz    the encoded (n, 3) fact array
      dictionary.nt  one N-Triples *term* per line, in code order
      schema.nt      the asserted constraint triples
      meta.json      format version + table bits

The dictionary file reuses the N-Triples term syntax (one term per
line, no trailing dot), so codes are recovered as line numbers and the
whole format stays human-inspectable.

Library API with no caller inside the package: the README quick tour
saves and reloads a database through it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from ..rdf.ntriples import _parse_term, serialize_triple, read_ntriples
from ..rdf.schema import RDFSchema
from .database import RDFDatabase
from .dictionary import Dictionary
from .triple_table import TripleTable

_FORMAT_VERSION = 1


def save_database(database: RDFDatabase, directory: Union[str, Path]) -> Path:
    """Persist ``database`` under ``directory`` (created if missing)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = database.table.match((None, None, None))
    np.savez_compressed(directory / "triples.npz", triples=rows)
    dictionary = database.dictionary
    with (directory / "dictionary.nt").open("w", encoding="utf-8") as sink:
        for code in range(len(dictionary)):
            term = dictionary.decode(code)
            sink.write(term.n3())
            sink.write("\n")
    with (directory / "schema.nt").open("w", encoding="utf-8") as sink:
        for triple in database.schema.to_triples():
            sink.write(serialize_triple(triple))
            sink.write("\n")
    (directory / "meta.json").write_text(
        json.dumps(
            {
                "format_version": _FORMAT_VERSION,
                "bits": database.table.bits,
                "triples": int(rows.shape[0]),
                "dictionary": len(dictionary),
            }
        )
    )
    return directory


def load_database(directory: Union[str, Path]) -> RDFDatabase:
    """Load a database previously written by :func:`save_database`."""
    directory = Path(directory)
    meta = json.loads((directory / "meta.json").read_text())
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported database format version {meta.get('format_version')!r}"
        )
    dictionary = Dictionary()
    with (directory / "dictionary.nt").open("r", encoding="utf-8") as source:
        for line_number, line in enumerate(source, start=1):
            stripped = line.rstrip("\n")
            if not stripped:
                continue
            term, _ = _parse_term(stripped, 0, line_number, stripped)
            code = dictionary.encode(term)
            if code != line_number - 1:
                raise ValueError(
                    f"dictionary line {line_number} decodes out of order "
                    f"(duplicate term?)"
                )
    with (directory / "schema.nt").open("r", encoding="utf-8") as source:
        schema = RDFSchema.from_triples(read_ntriples(source))
    table = TripleTable(dictionary=dictionary, bits=int(meta["bits"]))
    with np.load(directory / "triples.npz") as archive:
        table.add_block(archive["triples"])
    table.freeze()
    if len(table) != meta["triples"]:
        raise ValueError(
            f"expected {meta['triples']} triples, loaded {len(table)}"
        )
    return RDFDatabase(schema=schema, table=table)
