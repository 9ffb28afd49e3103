"""Count the code lines of each module of the threshdist package.

A line counts unless it is blank, holds only a comment, or belongs to a
module, class or function docstring.  Prints one ``<count> <module>`` line
per module and the total; stdlib only.

    python tools/src_lines.py [package-dir]
"""

import ast
import pathlib
import sys


def code_lines(source: str) -> int:
    lines = source.splitlines()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(lines, start=1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstrings)


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent / "src" / "threshdist")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
