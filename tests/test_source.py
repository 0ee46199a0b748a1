"""Source size: every module of the package stays under the parser's token
ceiling, and the package under its line ceiling.

CPython's parser keeps a module's tokens in an array that doubles whenever
it fills, so past 4,096 tokens a module costs noticeably more memory to
compile when the package is imported from source without a bytecode cache.
The package's lines may not grow: new code is paid for by deletions, and
the ceiling is exactly the package's size, so deleted lines leave no headroom.
"""

import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "activita"
CEILING = 4096
LINE_CEILING = 2768
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING, tokenize.ENDMARKER}
FSTRING_START = getattr(tokenize, "FSTRING_START", None)  # Python 3.12 and later
FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def parser_tokens(path) -> int:
    """Tokens of a source file without comments, blank lines, ENCODING and
    ENDMARKER; an f-string counts as one token, as it does before 3.12."""
    count = depth = 0
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == FSTRING_END:
                depth -= 1
            elif not depth and tok.type not in SKIPPED:
                count += 1
            if tok.type == FSTRING_START:
                depth += 1
    return count


def test_an_f_string_is_one_token(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("# a comment\n\nx = f\"{a} and {f'{b}'}\"  # nested\n")
    assert parser_tokens(path) == 4  # x, =, the f-string, NEWLINE


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_module_stays_under_the_token_ceiling(path):
    assert parser_tokens(path) < CEILING


def test_package_stays_under_the_line_ceiling():
    assert sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py")) == LINE_CEILING
