"""The problem-file parser against the token-tuple parser of
parse_oracle.py: on every text both must give the same `Problem`, or
fail with the same (line, column, detail).

The library reads the words of a line with `str.split` and finds a
column only for an error; the oracle tokenizes every line with a regular
expression up front.  The texts below stress exactly that difference:
whitespace other than the space (tab, no-break space, ideographic space,
and the file separator U+001C, which also ends a line), and literals that
`int` reads in ways a regular expression might not (other digit scripts,
underscores, a plus sign).
"""

from pathlib import Path

from hypothesis import given, settings, strategies as st

import parse_oracle as oracle
from test_io import ERRORS, FULL, REPEATED_HEADERS
from zinbiel.fields import PrimeField
from zinbiel.problem_io import ProblemFileError, parse

PROBLEMS = sorted((Path(__file__).resolve().parent.parent / "problems")
                  .glob("*.zb"))
SEPARATORS = (" ", "\t", "\u00a0", "\u3000", "\x1c")
LITERALS = ("\u0661\u0662", "1_0", "+5")


def _outcome(parser, text, field=None):
    """The parsed problem, or what the parse raised."""
    try:
        return parser(text, field_override=field)
    except ProblemFileError as e:
        return ("error", e.line, e.column, e.detail)
    except Exception as e:   # the two must fail alike, whatever the kind
        return (type(e).__name__, str(e))


def _agree(text, field=None):
    mine = _outcome(parse, text, field)
    assert mine == _outcome(oracle.parse, text, field), repr(text)
    return mine


def test_the_curated_files_parse_alike():
    assert len(PROBLEMS) == 4
    for path in PROBLEMS:
        text = path.read_text(encoding="utf-8")
        for field in (None, PrimeField(5), PrimeField(101)):
            assert not isinstance(_agree(text, field), tuple)


def test_every_error_row_fails_alike():
    for text, line, column, message in ERRORS + REPEATED_HEADERS:
        assert _agree(text) == ("error", line, column, message)


def _words(text):
    return [raw.split() for raw in text.splitlines()]


def _render(lines, sep):
    return "\n".join("  " + sep.join(words) for words in lines) + "\n"


def test_each_single_token_edit_of_a_full_file_parses_alike():
    # every token of FULL dropped, doubled and swapped with the next one,
    # each text joined with every separator
    lines = _words(FULL)
    texts = []
    for i, words in enumerate(lines):
        for j in range(len(words)):
            edits = [words[:j] + words[j + 1:],
                     words[:j + 1] + words[j:]]
            if j + 1 < len(words):
                edits.append(words[:j] + [words[j + 1], words[j]] +
                             words[j + 2:])
            texts += [lines[:i] + [edit] + lines[i + 1:] for edit in edits]
    failed = 0
    for sep in SEPARATORS:
        for edited in texts:
            failed += isinstance(_agree(_render(edited, sep)), tuple)
    assert failed > len(texts)   # most edits break the file


@st.composite
def _mutants(draw):
    """A curated file or FULL with a few tokens dropped, doubled, swapped
    or replaced by an odd literal, each line joined with its own
    separator and indentation."""
    bases = [FULL] + [path.read_text(encoding="utf-8") for path in PROBLEMS]
    lines = _words(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        words = lines[i]
        if not words:
            continue
        j = draw(st.integers(0, len(words) - 1))
        edit = draw(st.sampled_from(("drop", "double", "swap", "literal")))
        if edit == "drop":
            words = words[:j] + words[j + 1:]
        elif edit == "double":
            words = words[:j + 1] + words[j:]
        elif edit == "swap":
            k = draw(st.integers(0, len(words) - 1))
            words = list(words)
            words[j], words[k] = words[k], words[j]
        else:
            words = words[:j] + [draw(st.sampled_from(LITERALS))] + \
                words[j + 1:]
        lines[i] = words
    return "".join(
        draw(st.sampled_from(("", "  ", "\t", "\u00a0"))) +
        draw(st.sampled_from(SEPARATORS)).join(words) + "\n"
        for words in lines)


@settings(max_examples=300, deadline=None)
@given(_mutants(), st.sampled_from((None, PrimeField(7))))
def test_mutated_files_parse_alike(text, field):
    _agree(text, field)
