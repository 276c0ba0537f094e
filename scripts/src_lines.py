#!/usr/bin/env python3
"""Line ledger of src/: total, code, docstring, comment and blank lines,
then one row per module.

A docstring line is one inside the docstring of a module, class or
function, as ast places it (blank lines in a docstring count there).  Of
the other lines, a blank line is empty after stripping, a comment line
starts with '#', and every other line is code.  The four parts add up to
the total.  After the totals, a header row and one row per module (its
path under src/, without .py) give the same four parts, which add up to
the totals.  Run from anywhere: python3 scripts/src_lines.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def docstring_lines(tree) -> set:
    """Line numbers (1-based) of every docstring in the module tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(text: str) -> dict:
    docs = docstring_lines(ast.parse(text))
    out = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        kind = ("docstring" if number in docs else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        out[kind] += 1
    return out


def main():
    totals = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    rows = []
    for path in sorted(SRC.rglob("*.py")):
        parts = count(path.read_text())
        rows.append(" ".join([path.relative_to(SRC).with_suffix("").as_posix(),
                              *map(str, parts.values())]))
        for kind, lines in parts.items():
            totals[kind] += lines
    print(f"total {sum(totals.values())}")
    for kind, lines in totals.items():
        print(f"{kind} {lines}")
    print("module", *totals)
    print("\n".join(rows))


if __name__ == "__main__":
    main()
