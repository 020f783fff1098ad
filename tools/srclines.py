"""Count the lines of a package's modules: total and code lines.

A code line holds a token other than a comment or a line break, and is not
part of a module, class or function docstring.  Usage:

    python tools/srclines.py [DIR]      # default: src/abelsym
"""

import ast
import sys
import tokenize
from pathlib import Path

_BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def count(path):
    """(total lines, code lines) of one Python file."""
    text = path.read_text()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    with path.open() as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type not in _BLANK:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/abelsym")
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        t, c = count(path)
        total, code = total + t, code + c
        print("%-40s %6d %6d" % (path, t, c))
    print("%-40s %6d %6d" % ("total", total, code))


if __name__ == "__main__":
    main(sys.argv)
