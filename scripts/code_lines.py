#!/usr/bin/env python
"""Count physical and code lines of Python sources, reproducibly.

usage: python scripts/code_lines.py [paths...]      (default: src/repro)
       python scripts/code_lines.py --ratchet       (CI runs exactly this)

A *code* line carries at least one token that is not a comment, a line
break or indentation, and lies outside every docstring — so blank lines,
comment-only lines and docstrings count as physical lines only.  Each
path is a ``.py`` file or a directory walked recursively; the table lists
every file and ends with the total.  Standard library only.

``--ratchet`` (run from the repository root, as CI does) counts
``src/repro`` and compares its code-line total with the one integer in
``scripts/code_lines_baseline.txt``: above it -> exit 1, so growth of
``src/`` is a reviewed one-number edit; below it -> exit 0 with a nudge to
commit the lower number, so a shrink is locked in.
"""

import ast
import io
import os
import sys
import tokenize

BASELINE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "code_lines_baseline.txt")

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) and \
                isinstance(first.value, ast.Constant) and \
                isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """``(physical, code)`` line counts of one module's source text."""
    carrying = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            carrying.update(range(token.start[0], token.end[0] + 1))
    code = carrying - _docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def python_files(paths):
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, dirs, names in os.walk(path):
            dirs.sort()
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def main(argv):
    ratchet = argv == ["--ratchet"]
    rows = []
    for path in python_files(["src/repro"] if ratchet or not argv else argv):
        with open(path, encoding="utf-8") as handle:
            rows.append((path,) + count(handle.read()))
    width = max([len(path) for path, _, _ in rows] + [len("total")])
    print(f"{'file':<{width}}  {'physical':>8}  {'code':>6}")
    for path, physical, code in rows:
        print(f"{path:<{width}}  {physical:>8}  {code:>6}")
    total = sum(r[2] for r in rows)
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>8}  {total:>6}")
    if ratchet:
        with open(BASELINE_FILE, encoding="utf-8") as handle:
            baseline = int(handle.read().strip())
        print(f"code lines: {total} (committed ceiling: {baseline})")
        if total > baseline:
            print(f"FAIL: src/repro grew {total - baseline} code line(s) "
                  f"past the ratchet; delete as many, or raise "
                  f"scripts/code_lines_baseline.txt in the same change and "
                  f"say in CHANGES.md what the lines buy", file=sys.stderr)
            return 1
        if total < baseline:
            print(f"note: {baseline - total} line(s) under the ceiling — "
                  f"lower scripts/code_lines_baseline.txt to {total} to "
                  f"lock the shrink in")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
