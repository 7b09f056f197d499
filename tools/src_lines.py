"""Print the size of the library: physical lines and code lines of src/qpush/*.py.

Code lines are lines that are not blank, not comment-only and not inside a
module, class or function docstring (found with ``ast``).

Run:  python tools/src_lines.py [package_dir]
"""

import ast
import glob
import os
import sys


def docstring_lines(tree):
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path):
    """(physical lines, code lines) of one source file."""
    with open(path) as fh:
        text = fh.read()
    physical = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code = sum(1 for i, line in enumerate(physical, 1)
               if line.strip() and not line.lstrip().startswith("#") and i not in docs)
    return len(physical), code


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(__file__), "..", "src", "qpush")
    total = code = 0
    for path in sorted(glob.glob(os.path.join(root, "*.py"))):
        p, c = count(path)
        total += p
        code += c
        print(f"{os.path.basename(path):16s} {p:5d} {c:5d}")
    print(f"{'total':16s} {total:5d} {code:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
