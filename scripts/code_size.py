"""Code size of the gsdof package: the lines of ``src/gsdof/`` that hold a
token other than a comment or a docstring, counted with ``tokenize``.

A docstring is a string literal that is a statement of its own.  Blank
lines, comments and the lines a docstring spans do not count; a line that
holds any other token counts once.

Usage: ``python scripts/code_size.py [DIR]`` prints each file's count and
the total, for DIR or, by default, the package next to this script.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_STATEMENT_END = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
_SKIPPED = _STATEMENT_END | {tokenize.ENDMARKER}


def code_lines(path) -> int:
    """The number of lines of ``path`` holding a token other than a comment
    or a docstring."""
    with open(path, "rb") as fh:
        skipped = (tokenize.COMMENT, tokenize.NL)
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in skipped]
    lines = set()
    for before, tok, after in zip(tokens, tokens[1:], tokens[2:]):
        docstring = (
            tok.type == tokenize.STRING
            and before.type in _STATEMENT_END
            and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        if tok.type not in _SKIPPED and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> None:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "gsdof"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name}\t{n}")
    print(f"total\t{total}")


if __name__ == "__main__":
    main()
