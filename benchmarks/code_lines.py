"""Count code lines: physical lines that carry a non-comment token,
docstrings excluded.

The number ROADMAP aim 2 ("net-negative line counts") is quoted in:
blank lines, comments and docstrings do not count, so a PR earns
nothing by deleting them and loses nothing by writing them.

    python -m benchmarks.code_lines src/repro

prints one ``<count>  <path>`` line per ``.py`` file (directories are
walked recursively) and a total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Token types that carry no code of their own.
_SKIPPED = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
)


def _docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by module/class/function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Code lines in one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIPPED:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def count_paths(paths) -> dict:
    """``{file path: code lines}`` for every ``.py`` file under
    ``paths`` (files or directories), in sorted order."""
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return {str(f): count_code_lines(f.read_text()) for f in files}


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python -m benchmarks.code_lines <paths>")
        return 2
    counts = count_paths(paths)
    for path, count in counts.items():
        print(f"{count:6d}  {path}")
    print(f"{sum(counts.values()):6d}  total ({len(counts)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
