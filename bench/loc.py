"""Line counts of each ``netlms`` module, of one tree or two.

    python3 bench/loc.py [A [B]]

``A`` and ``B`` are each a ``src`` directory, a checkout holding one, or a
git revision of the checkout this script sits in, as for ``bench/ab.py``;
with neither, the tree is this checkout's ``src``.  For each module of
``src/netlms`` it prints the total lines and the code lines: lines that
are not blank, hold only a comment, or belong to a docstring (a string
literal standing alone as the first statement of a module, class or
function).  Given two trees, it prints both counts of each and ``B - A``.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tempfile
import tokenize
from pathlib import Path

from ab import _source

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """``(total lines, code lines)`` of Python source ``text``."""
    docs = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def counts(src: Path) -> dict[str, tuple[int, int]]:
    """``{module file name: (total, code)}`` for ``src/netlms``, plus ``total``."""
    out = {p.name: count(p.read_text(encoding="utf-8")) for p in sorted((src / "netlms").glob("*.py"))}
    out["total"] = tuple(map(sum, zip(*out.values())))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", metavar="TREE",
                        help="A, or A and B: src path, checkout or git revision")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give at most two trees")
    specs = args.trees or [str(Path(__file__).resolve().parent.parent / "src")]
    with tempfile.TemporaryDirectory(prefix="netlms-loc-") as tmp:
        tables = [counts(_source(spec, Path(tmp), label)) for spec, label in zip(specs, "ab")]
    names = list({n: None for t in tables for n in t})  # modules of either tree, total last
    names.append(names.pop(names.index("total")))
    head = f"{'module':16s}" + "".join(f" {spec[:15]:>15s}" for spec in specs)
    print(head + ("       B - A" if len(tables) == 2 else "") + "   (total / code lines)")
    for name in names:
        cells = [t.get(name, (0, 0)) for t in tables]
        row = f"{name:16s}" + "".join(f" {total:>7d} {code:>7d}" for total, code in cells)
        if len(cells) == 2:
            row += f" {cells[1][0] - cells[0][0]:>+6d} {cells[1][1] - cells[0][1]:>+5d}"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
