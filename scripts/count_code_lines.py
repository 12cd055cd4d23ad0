"""Code lines under a directory: non-blank, non-comment, non-docstring.

The metric ROADMAP aim 2 ("the same behaviour from the least code")
is reported in (default: ``src/repro``, the tree the CI ratchet holds)::

    python scripts/count_code_lines.py src/repro/fuzz
"""
import ast
import io
import pathlib
import sys
import tokenize


def code_lines(path: pathlib.Path) -> int:
    source = path.read_text()
    doc_lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(
                body[0].value, ast.Constant
            ) and isinstance(body[0].value.value, str):
                doc_lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc_lines)


SRC_REPRO = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

total = 0
root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else SRC_REPRO
for path in sorted(root.rglob("*.py")):
    n = code_lines(path)
    total += n
    print(f"{n:6d}  {path}")
print(f"{total:6d}  total")
