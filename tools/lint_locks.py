#!/usr/bin/env python
"""AST concurrency lint: unguarded ``self._*`` writes in locked classes.

A class that declares ``self._lock = threading.Lock()`` (or ``RLock``)
in ``__init__`` is announcing that its mutable state is shared across
threads.  Every later write to a ``self._*`` attribute from a method of
that class should then happen under ``with self._lock:`` — a bare write
is either a data race or an invariant that deserves a comment.

This tool walks ``src/repro`` and reports each write to a private
``self`` attribute that is

* inside a class whose ``__init__`` assigns ``self._lock`` or whose
  methods take it (a subclass sharing its base's lock),
* outside every ``with self._lock:`` block,
* not in ``__init__`` itself (construction happens-before publication),
* not the lock attribute itself, and
* not suppressed with a trailing ``# lock: <reason>`` comment on the
  same line (the reason documents why the write is safe — e.g. the
  attribute is written once before threads start, or is itself a
  thread-safe object).

Exit status: 0 when clean, 1 when any unguarded write is found (the CI
lint job runs this), 2 on usage errors.  ``--list-classes`` prints the
locked classes instead of linting, for auditing coverage.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterator, List, NamedTuple

LOCK_ATTRS = frozenset({"_lock"})


class Finding(NamedTuple):
    path: Path
    line: int
    cls: str
    func: str
    attr: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}: unguarded write to self.{self.attr} "
            f"in {self.cls}.{self.func} (class declares self._lock; wrap in "
            f"'with self._lock:' or annotate '# lock: <reason>')"
        )


def _declares_lock(cls: ast.ClassDef) -> bool:
    """True when the class's ``__init__`` assigns ``self._lock``, or a
    method takes ``with self._lock:`` (a lock inherited from a base
    class in another file, e.g. the service's ``HTTPEndpoint``)."""
    if any(isinstance(n, ast.With) and _is_lock_guard(n) for n in ast.walk(cls)):
        return True
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and target.attr in LOCK_ATTRS
                        ):
                            return True
    return False


def _is_lock_guard(node: ast.With) -> bool:
    """True for ``with self._lock:`` (possibly among other items)."""
    for item in node.items:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in LOCK_ATTRS
        ):
            return True
    return False


def _self_attr_writes(node: ast.AST) -> Iterator[ast.Attribute]:
    """Attribute targets of assignments/augassigns/deletes to ``self._*``."""
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    for target in targets:
        for leaf in ast.walk(target):
            if (
                isinstance(leaf, ast.Attribute)
                and isinstance(leaf.ctx, (ast.Store, ast.Del))
                and isinstance(leaf.value, ast.Name)
                and leaf.value.id == "self"
                and leaf.attr.startswith("_")
                and leaf.attr not in LOCK_ATTRS
            ):
                yield leaf


def _suppressed(source_lines: List[str], lineno: int) -> bool:
    line = source_lines[lineno - 1] if lineno - 1 < len(source_lines) else ""
    return "# lock:" in line


def _walk_function(
    func: ast.FunctionDef,
    cls: ast.ClassDef,
    path: Path,
    source_lines: List[str],
    guarded: bool,
) -> Iterator[Finding]:
    """Yield unguarded writes, tracking ``with self._lock`` scopes."""

    def visit(node: ast.AST, guarded: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.With) and _is_lock_guard(child):
                yield from visit(child, True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested function may run on another thread; treat its
                # body as unguarded regardless of the enclosing scope.
                yield from visit(child, False)
            elif isinstance(child, ast.Lambda):
                continue  # lambdas cannot contain statements
            else:
                if not guarded:
                    for attr in _self_attr_writes(child):
                        if not _suppressed(source_lines, attr.lineno):
                            yield Finding(
                                path, attr.lineno, cls.name, func.name, attr.attr
                            )
                yield from visit(child, guarded)

    yield from visit(func, guarded)


def lint_file(path: Path) -> Iterator[Finding]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    source_lines = source.splitlines()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not _declares_lock(node):
            continue
        for func in node.body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if func.name == "__init__":
                continue
            yield from _walk_function(func, node, path, source_lines, False)


def locked_classes(path: Path) -> Iterator[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _declares_lock(node):
            yield f"{path}:{node.lineno}: {node.name}"


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "roots",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--list-classes",
        action="store_true",
        help="print the classes that declare self._lock and exit",
    )
    args = parser.parse_args(argv)

    files: List[Path] = []
    for root in args.roots:
        root_path = Path(root)
        if root_path.is_dir():
            files.extend(sorted(root_path.rglob("*.py")))
        elif root_path.is_file():
            files.append(root_path)
        else:
            print(f"no such file or directory: {root}", file=sys.stderr)
            return 2

    if args.list_classes:
        for path in files:
            for line in locked_classes(path):
                print(line)
        return 0

    findings: List[Finding] = []
    for path in files:
        findings.extend(lint_file(path))
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"{len(findings)} unguarded write(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
