"""Count the code lines of Python sources: the lines that hold a token of
code, so comments, blank lines and docstrings are left out.

A docstring is a statement made of string literals alone; its lines are
not code.  Every other token counts each physical line it spans.

Usage: python tools/codelines.py [PATH ...]   (default: src/delayctrl)

Prints one row per module and the total.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Number of physical lines of ``source`` that hold code."""
    lines = set()
    statement = []  # significant tokens of the current logical line
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            if tok.type == tokenize.NEWLINE:
                if not all(t.type == tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(lines)


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv or ["src/delayctrl"])]
    files = sorted(f for p in paths
                   for f in (p.glob("*.py") if p.is_dir() else [p]))
    total = 0
    for f in files:
        n = code_lines(f.read_text())
        total += n
        print(f"{f.as_posix():40s} {n:6d}")
    print(f"{'total':40s} {total:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
