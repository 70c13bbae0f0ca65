"""
parse against a second parser of the README word grammar, written here
from the grammar alone and sharing no code with braid3.words:

    word   ::= term*
    term   ::= letter ("^" signed-int)?
    letter ::= "a" | "b" | "A" | "B" | "D"

with whitespace between terms, nonzero exponents, and at most
BRAID3_MAX_WORD_LEN expanded letters, D^k counting 3|k|.  The reference
matches one term at a time with a regular expression, reads the exponent
as a Decimal, which has no digit limit, and expands every D into a, b, a
runs, so it never keeps a D power as a number.  Both must give the same
word, or the same ParseError message at the same 1-based position.
"""

import random
import re
from collections import Counter
from decimal import Decimal

import pytest

from braid3.words import BraidWord, ParseError, parse

_SPACE = re.compile(r"\s*")
_TERM = re.compile(r"([abABD])(?:\^(-?)([0-9]*))?")

#: letter -> (generator, sign) of one crossing; D is a b a
_CROSSING = {"a": ("a", 1), "A": ("a", -1), "b": ("b", 1), "B": ("b", -1)}

#: the characters the random inputs draw from
_ALPHABET = "aAbBD^-0123 \t\nx"

#: the start of each ParseError message
_ERRORS = ("unexpected character", "expected integer", "zero exponent", "word longer")


def reference_parse(text: str, limit: int):
    """The word text denotes, or (str(error), position) of the ParseError
    that parse must raise on it."""

    def error(message, position):
        return f"parse error at {position}: {message}", position

    runs, letters, pos = [], 0, 0
    while True:
        pos = _SPACE.match(text, pos).end()
        if pos == len(text):
            return BraidWord.from_runs(runs)
        term = _TERM.match(text, pos)
        if term is None:
            return error(f"unexpected character {text[pos]!r}", pos + 1)
        letter, minus, digits = term.groups()
        if digits == "":  # a caret with no digits after it
            return error("expected integer exponent after '^'", term.start(2) + 1)
        value = Decimal(1 if digits is None else digits)
        if value == 0:
            return error("zero exponent not allowed", term.start(2) + 1)
        letters += value * (3 if letter == "D" else 1)
        if letters > limit:
            return error(f"word longer than BRAID3_MAX_WORD_LEN={limit}", term.end())
        exp = -int(value) if minus else int(value)
        if letter == "D":
            sign = 1 if exp > 0 else -1
            runs += [("a", sign), ("b", sign), ("a", sign)] * abs(exp)
        else:
            gen, sign = _CROSSING[letter]
            runs.append((gen, sign * exp))
        pos = term.end()


def outcome(text: str):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.position


def assert_agree(texts, limit):
    """Both parsers on every text; returns how often each outcome occurred."""
    kinds = Counter()
    for text in texts:
        got, want = outcome(text), reference_parse(text, limit)
        assert got == want, (text, got, want)
        if isinstance(got, BraidWord):
            kinds["word"] += 1
        else:
            kinds[next(e for e in _ERRORS if f": {e}" in got[0])] += 1
    return kinds


def random_texts(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield "".join(rng.choice(_ALPHABET) for _ in range(rng.randrange(15)))


def test_examples_agree():
    texts = [
        "", " \t\n", "a", "aBAb", "a^3 B a^-3 B", "D", "D^-2 a D^3 b D^-1",
        "a^0", "a^-000", "a^0007", "a^", "a^-", "a ^2", "a^ 2", "a^x", "x", "a^2^3",
        "D^333334", "a^1000000", "a^1000001", "a^" + "1" * 5000, "a^" + "0" * 5000 + "3",
    ]
    assert_agree(texts, 10**6)


def test_random_strings_agree():
    kinds = assert_agree(random_texts(31, 100_000), 10**6)
    # every path but the length guard's is taken often; a 14-character string
    # rarely holds a 7-digit exponent, so the small limits below test the guard
    assert set(kinds) == {"word", *_ERRORS[:3]}, kinds
    assert min(kinds.values()) >= 100, kinds


@pytest.mark.parametrize("limit", [0, 5])
def test_random_strings_agree_under_a_small_limit(monkeypatch, limit):
    monkeypatch.setenv("BRAID3_MAX_WORD_LEN", str(limit))
    texts = ["a^12", "D^2", "D a b", "a b a b a b", "a^-5", "a^-6", "a^" + "9" * 5000]
    kinds = assert_agree([*texts, *random_texts(limit, 20_000)], limit)
    assert kinds["word longer"] >= 100, kinds
