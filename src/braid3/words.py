"""
Braid words in the 3-strand braid group B3.

B3 is generated by a (= sigma_1, crossing strands 1 and 2) and b (= sigma_2,
crossing strands 2 and 3), subject to the braid relation aba = bab.  A braid
word is stored in run-length form: a tuple of syllables (generator, exponent)
with nonzero exponents and no two adjacent syllables on the same generator.
The empty tuple is the identity.

Conventions fixed here and used throughout the package:
  * braid diagrams read bottom to top, so the induced permutation of the
    strand endpoints composes left to right along the word;
  * a and a^-1 induce the transposition (1 2), b and b^-1 induce (2 3);
  * the half twist D = aba = bab; D^2 = (ab)^3 generates the center of B3.

Input grammar (whitespace optional between terms):
  word   ::= term*
  term   ::= letter ("^" signed-int)?
  letter ::= "a" | "b" | "A" | "B" | "D"
where "A" means a^-1, "B" means b^-1, "D" means the half twist, and
signed-int is a nonzero decimal integer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator

GEN_A = "a"
GEN_B = "b"

#: swap of the two generators (conjugation by the half twist)
_OTHER = {GEN_A: GEN_B, GEN_B: GEN_A}

#: strand permutations, as images of (1, 2, 3); exponent parity is all that matters
_PERM = {GEN_A: (2, 1, 3), GEN_B: (1, 3, 2)}

IDENTITY_PERM = (1, 2, 3)

DEFAULT_MAX_WORD_LEN = 10**6


class ParseError(ValueError):
    """Raised on malformed braid-word input; position is 1-based."""

    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at {position}: {message}")
        self.position = position


class WordLimitError(ValueError):
    """BRAID3_MAX_WORD_LEN is set to something other than a non-negative
    base-10 integer."""


@dataclass(frozen=True)
class Syllable:
    """One run g^e with e != 0."""

    gen: str
    exp: int

    def __post_init__(self):
        if self.gen not in (GEN_A, GEN_B):
            raise ValueError(f"unknown generator {self.gen!r}")
        if self.exp == 0:
            raise ValueError("syllable exponent must be nonzero")


def _merge(syllables: Iterable[tuple[str, int]]) -> tuple[Syllable, ...]:
    """Run-length merge; runs that cancel to zero drop out, which lets the
    runs on either side combine in turn."""
    out: list[list] = []  # mutable [gen, exp] pairs
    for gen, exp in syllables:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            out[-1][1] += exp
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([gen, exp])
    return tuple(Syllable(g, e) for g, e in out)


@dataclass(frozen=True)
class BraidWord:
    """An element of B3 in maximally merged run-length form.

    Immutable; all operations return new words.  Multiplication is
    concatenation with free merging, so w * w.inverse() is the identity
    word on the nose.
    """

    syllables: tuple[Syllable, ...] = ()

    @staticmethod
    def from_runs(runs: Iterable[tuple[str, int]]) -> BraidWord:
        return BraidWord(_merge(runs))

    def __iter__(self) -> Iterator[Syllable]:
        return iter(self.syllables)

    def __len__(self) -> int:
        """Letter length (total number of crossings)."""
        return sum(abs(s.exp) for s in self.syllables)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    def __mul__(self, other: BraidWord) -> BraidWord:
        if not self.syllables:
            return other
        if not other.syllables:
            return self
        return BraidWord.from_runs(
            [(s.gen, s.exp) for s in self.syllables]
            + [(s.gen, s.exp) for s in other.syllables]
        )

    def __pow__(self, k: int) -> BraidWord:
        if k < 0:
            return self.inverse() ** (-k)
        return BraidWord.from_runs([(s.gen, s.exp) for s in self.syllables] * k)

    def inverse(self) -> BraidWord:
        return BraidWord(
            tuple(Syllable(s.gen, -s.exp) for s in reversed(self.syllables))
        )

    def mirror(self) -> BraidWord:
        """Negate every exponent in place; the closure of the result is the
        mirror (with reversed orientation) of the closure of self."""
        return BraidWord(tuple(Syllable(s.gen, -s.exp) for s in self.syllables))

    def swap_generators(self) -> BraidWord:
        """Exchange a and b (conjugation by the half twist)."""
        return BraidWord(tuple(Syllable(_OTHER[s.gen], s.exp) for s in self.syllables))

    def writhe(self) -> int:
        return sum(s.exp for s in self.syllables)

    def letters(self) -> Iterator[tuple[str, int]]:
        """Yield (generator, sign) one crossing at a time, left to right."""
        for s in self.syllables:
            sign = 1 if s.exp > 0 else -1
            for _ in range(abs(s.exp)):
                yield s.gen, sign

    def permutation(self) -> tuple[int, int, int]:
        """Images of strands (1, 2, 3) under the word, read left to right."""
        img = IDENTITY_PERM
        for s in self.syllables:
            if s.exp % 2:
                t = _PERM[s.gen]
                img = (t[img[0] - 1], t[img[1] - 1], t[img[2] - 1])
        return img

    def closure_components(self) -> int:
        """Number of components of the closed-up link (cycles of the permutation)."""
        return len(cycle_type(self.permutation()))

    def is_knot(self) -> bool:
        return self.closure_components() == 1

    def display(self) -> str:
        """Render in the input grammar (A/B for inverse runs), space separated."""
        parts = []
        for s in self.syllables:
            letter = s.gen if s.exp > 0 else s.gen.upper()
            e = abs(s.exp)
            parts.append(letter if e == 1 else f"{letter}^{e}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.display() or "<identity>"


IDENTITY = BraidWord()


def delta_power(k: int) -> BraidWord:
    """The k-th power of the half twist D (k may be negative), pre-merged."""
    if k == 0:
        return IDENTITY
    runs: list[tuple[str, int]] = []
    sign = 1 if k > 0 else -1
    runs.append((GEN_A, sign))
    runs.append((GEN_B, sign))
    for _ in range(abs(k) - 1):
        runs.append((GEN_A, 2 * sign))
        runs.append((GEN_B, sign))
    runs.append((GEN_A, sign))
    return BraidWord.from_runs(runs)


def cycle_type(perm: tuple[int, int, int]) -> tuple[int, ...]:
    """Cycle lengths of a permutation of {1,2,3}, sorted descending."""
    seen = [False, False, False]
    lengths = []
    for start in (1, 2, 3):
        if seen[start - 1]:
            continue
        n, cur = 0, start
        while not seen[cur - 1]:
            seen[cur - 1] = True
            cur = perm[cur - 1]
            n += 1
        lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def max_word_len() -> int:
    """Parser guard against pathological inputs, in expanded letters."""
    raw = os.environ.get("BRAID3_MAX_WORD_LEN", "")
    if not raw:
        return DEFAULT_MAX_WORD_LEN
    if not _DIGITS.issuperset(raw):
        raise WordLimitError(
            f"BRAID3_MAX_WORD_LEN={raw!r} is not a non-negative base-10 integer"
        )
    return int(raw)


#: ASCII digits only; str.isdigit also accepts superscripts and non-Latin digits
_DIGITS = frozenset("0123456789")

#: letter -> (generator, sign); "D" is expanded by delta_power instead
_LETTERS = {"a": (GEN_A, 1), "b": (GEN_B, 1), "A": (GEN_A, -1), "B": (GEN_B, -1)}


def parse(text: str) -> BraidWord:
    """Parse the word grammar into a merged BraidWord.

    D expands to aba (and D^-1 to the inverse letters); exponents apply to
    the whole expanded letter.  Raises ParseError with a 1-based position.
    """
    runs: list[tuple[str, int]] = []
    limit = max_word_len()
    total = 0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch not in _LETTERS and ch != "D":
            raise ParseError(f"unexpected character {ch!r}", i + 1)
        i += 1
        exp = 1
        if i < n and text[i] == "^":
            i += 1
            start = i
            if i < n and text[i] == "-":
                i += 1
            while i < n and text[i] in _DIGITS:
                i += 1
            if i == start or text[start:i] == "-":
                raise ParseError("expected integer exponent after '^'", start + 1)
            exp = int(text[start:i])
            if exp == 0:
                raise ParseError("zero exponent not allowed", start + 1)
        total += (3 if ch == "D" else 1) * abs(exp)
        if total > limit:
            raise ParseError(f"word longer than BRAID3_MAX_WORD_LEN={limit}", i)
        if ch == "D":
            runs.extend((s.gen, s.exp) for s in delta_power(exp))
        else:
            gen, sign = _LETTERS[ch]
            runs.append((gen, sign * exp))
    return BraidWord.from_runs(runs)
