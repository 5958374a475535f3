"""Count code lines in Python files: lines that hold code, not counting
blanks, comments or docstrings.

Usage:
    python3 benchmarks/code_lines.py [PATH...]

Each PATH is a .py file or a directory searched for .py files; the default
is src/prunekit. Prints one count per file and then the total.

A line counts when a token other than a comment, NL, NEWLINE, INDENT or
DEDENT touches it; a token that spans lines touches each of them. A
statement made of string literals alone (a docstring, wherever it stands)
counts for nothing.
"""

import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def count(path) -> int:
    """The number of code lines in the Python file at `path`."""
    lines, statement = set(), []
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.ENCODING:
                continue
            if tok.type not in _LAYOUT:
                statement.append(tok)
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if not all(t.type == tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def files(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    paths = argv if argv else [ROOT / "src" / "prunekit"]
    total = 0
    for path in files(paths):
        n = count(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
