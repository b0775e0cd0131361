"""Line counts of src/dlogwalk, and whether its code differs from a revision.

    python tools/srcstat.py [--against REV]

For each module it prints total lines and their split into code, docstring,
and comment-or-blank lines.  A docstring is the string a module, class or
function body starts with; a code line is any other line that holds a
token other than a comment.

With --against REV it also reads each module at REV (`git show REV:path`)
and compares the two ASTs with every docstring removed, so an edit to
docstrings, comments or blank lines alone counts as unchanged.  It exits 1
and names each module whose code differs, or that exists on one side only.
Run it from anywhere inside the checkout; it needs only git and the
standard library.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = "src/dlogwalk"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree: ast.Module):
    """Each docstring node of the tree, with the body that holds it."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield node.body, first


def split_lines(text: str) -> tuple[int, int, int, int]:
    """(total, code, docstring, comment-or-blank) lines of a module."""
    total = len(text.splitlines())
    doc = set()
    for _, node in _docstrings(ast.parse(text)):
        doc.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= doc
    return total, len(code), len(doc), total - len(code) - len(doc)


def code_dump(text: str) -> str:
    """The module's AST with every docstring removed, as ast.dump."""
    tree = ast.parse(text)
    for body, node in list(_docstrings(tree)):
        body.remove(node)
    return ast.dump(tree)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Line counts of src/dlogwalk, and its code changes.")
    parser.add_argument("--against", metavar="REV",
                        help="compare each module's code with REV's")
    args = parser.parse_args(argv)

    paths = sorted((ROOT / SRC).glob("*.py"))
    print(f"{'module':<16}{'total':>7}{'code':>7}{'doc':>7}"
          f"{'comment/blank':>15}")
    sums = [0, 0, 0, 0]
    for path in paths:
        counts = split_lines(path.read_text())
        sums = [a + b for a, b in zip(sums, counts)]
        print(f"{path.name:<16}{counts[0]:>7}{counts[1]:>7}{counts[2]:>7}"
              f"{counts[3]:>15}")
    print(f"{'total':<16}{sums[0]:>7}{sums[1]:>7}{sums[2]:>7}{sums[3]:>15}")
    if args.against is None:
        return 0

    old = {Path(name).name
           for name in _git("ls-tree", "--name-only", args.against,
                            f"{SRC}/").split()
           if name.endswith(".py")}
    names = old | {path.name for path in paths}
    differ = []
    for name in sorted(names):
        path = ROOT / SRC / name
        if name not in old or not path.exists():
            differ.append(name)
        elif (code_dump(_git("show", f"{args.against}:{SRC}/{name}"))
              != code_dump(path.read_text())):
            differ.append(name)
    for name in differ:
        print(f"{name}: code differs from {args.against}")
    print(f"{len(names) - len(differ)} modules unchanged from {args.against}"
          f" with docstrings removed, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
