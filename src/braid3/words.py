"""
Braid words in the 3-strand braid group B3.

B3 is generated by a (= sigma_1, crossing strands 1 and 2) and b (= sigma_2,
crossing strands 2 and 3), subject to the braid relation aba = bab.  A braid
word is stored in run-length form: a tuple of syllables, plain
(generator, exponent) tuples with nonzero exponents and no two adjacent
syllables on the same generator.
The empty tuple is the identity.  Every word is D^delta * tail, a power of
the half twist kept as a number and a merged tail, so D^k costs what the
tail costs; mirror keeps delta, but inverse, swap_generators and ** expand
it, where a symbolic D would not be letter-exact (aba swaps to bab).

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
from operator import attrgetter
from typing import Iterable, Iterator

GEN_A = "a"
GEN_B = "b"

#: swap of the two generators (conjugation by the half twist)
_OTHER = {GEN_A: GEN_B, GEN_B: GEN_A}

#: the six strand permutations, as images of (1, 2, 3), by index: the
#: identity, the transpositions of a, b and D, then the two 3-cycles
_PERMS = ((1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 2, 1), (2, 3, 1), (3, 1, 2))

#: permutation index -> number of closure components, its number of cycles:
#: the identity 3, the three transpositions 2, the two 3-cycles (knots) 1
_COMPONENTS = (3, 2, 2, 2, 1, 1)

#: generator -> permutation index -> the index of that permutation followed
#: by the generator's transposition; exponent parity is all that matters
_STEP = {
    gen: tuple(_PERMS.index(tuple(t[i - 1] for i in img)) for img in _PERMS)
    for gen, t in ((GEN_A, _PERMS[1]), (GEN_B, _PERMS[2]))
}

DEFAULT_MAX_WORD_LEN = 10**6


class ParseError(ValueError):
    """Raised on malformed braid-word input; position is 1-based."""

    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at {position}: {message}")
        self.position = position


class WordLimitError(ValueError):
    """BRAID3_MAX_WORD_LEN is set to something other than a non-negative
    base-10 integer."""


class Value:
    """Base of the package's immutable values.  A subclass's fields are the
    parameters of its __init__, in order, read once when the class is made;
    __init__ checks them and stores them straight into self.__dict__.
    Equality holds within one class and compares the fields, the hash
    covers them, repr lists them, and nothing can be set or deleted."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = cls.__match_args__ = code.co_varnames[1:code.co_argcount]
        # value -> its field value, or the tuple of them; not a method
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class _memo:
    """functools.cached_property without a lock: the first read stores the
    value in the instance's __dict__, where later reads find it before the
    descriptor.  On Python 3.11 cached_property takes an RLock on every
    first read; 3.12 removed it.  Two threads that race on a first read
    both compute the same value, which the values' immutability makes safe."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _word(runs: Iterable[tuple[str, int]], delta: int = 0) -> BraidWord:
    """BraidWord.from_runs for runs built inside the package, trusted to be
    nonzero and on valid generators: a run-length merge in which runs that
    cancel to zero drop out, so the runs on either side combine in turn."""
    out: list[tuple[str, int]] = []
    for run in runs:
        gen, exp = run
        if out and out[-1][0] == gen:
            exp += out.pop()[1]
            if not exp:
                continue
            run = (gen, exp)
        out.append(run)
    return BraidWord(tuple(out), delta)


class BraidWord(Value):
    """An element of B3, D^delta * tail with a maximally merged tail.

    Immutable; all operations return new words.  Multiplication is
    concatenation with free merging, so w * w.inverse() is the identity
    word on the nose.  Equality and hashing follow the syllables, those of
    the expanded word: the tail when delta is 0, else built on first use.
    """

    #: k of the leading D^k kept as a number; a word with k != 0 stores it
    delta = 0

    def __init__(self, tail: tuple[tuple[str, int], ...] = (), delta: int = 0):
        attrs = self.__dict__
        attrs["tail"] = tail
        if delta:
            attrs["delta"] = delta
        else:
            attrs["syllables"] = tail

    @staticmethod
    def from_runs(runs: Iterable[tuple[str, int]]) -> BraidWord:
        """Merge (gen, exp) runs, pairs of any sequence type, into a word;
        zero exponents drop out.  Raises ValueError on a generator other
        than a or b, or on an exponent whose type is not int."""
        runs = [(gen, exp) for gen, exp in runs]
        for gen, exp in runs:
            if gen not in (GEN_A, GEN_B):
                raise ValueError(f"unknown generator {gen!r}")
            # bool is a subclass of int, and a float such as 2.0 compares equal to one
            if type(exp) is not int:
                raise ValueError(f"exponent must be an integer, got {exp!r}")
        return _word(run for run in runs if run[1])

    @_memo
    def _seam(self) -> tuple[int, BraidWord]:
        """(h, rest) with D^delta = D^h D^c and rest = D^c * tail multiplied
        out, for delta != 0.  A tail of r runs cancels at most r runs of
        D^delta, so with 2|c| + 1 > r + 1 rest keeps the first run of D^c,
        the a^(+-1) that merges with the last run of D^h without cancelling."""
        k = self.delta
        c = min(abs(k), len(self.tail) // 2 + 1) * (1 if k > 0 else -1)
        return k - c, BraidWord(delta_runs(c)) * BraidWord(self.tail)

    @_memo
    def syllables(self) -> tuple[tuple[str, int], ...]:
        # read only when delta != 0: D's runs times the tail
        return (BraidWord(delta_runs(self.delta)) * BraidWord(self.tail)).syllables

    def __eq__(self, other) -> bool:
        if not isinstance(other, BraidWord):
            return NotImplemented
        return self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash(self.syllables)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self.syllables)

    def __len__(self) -> int:
        """Letter length (total number of crossings)."""
        if self.delta:
            h, rest = self._seam
            return 3 * abs(h) + len(rest)
        return sum(abs(e) for _, e in self.tail)

    def __mul__(self, other: BraidWord) -> BraidWord:
        # both sides are merged, so only the runs at the seam combine: each
        # pair that cancels exposes the next pair, on the other generator
        left, right = self.tail, other.syllables
        j, i = len(left), 0
        while j and i < len(right) and left[j - 1][0] == right[i][0]:
            gen, exp = right[i]
            exp += left[j - 1][1]
            j -= 1
            i += 1
            if exp:
                return BraidWord(left[:j] + ((gen, exp),) + right[i:], self.delta)
        return BraidWord(left[:j] + right[i:], self.delta)

    def __pow__(self, k: int) -> BraidWord:
        if k < 0:
            return self.inverse() ** (-k)
        return _word(self.syllables * k)

    def inverse(self) -> BraidWord:
        return BraidWord(tuple(reversed(self.mirror().syllables)))  # negated, read backwards

    def mirror(self) -> BraidWord:
        """Negate every exponent in place; the closure of the result is the
        mirror (with reversed orientation) of the closure of self.  D^k's
        runs are signed like k, so D^k t mirrors to D^-k and the mirrored tail."""
        return BraidWord(tuple((g, -e) for g, e in self.tail), -self.delta)

    def swap_generators(self) -> BraidWord:
        """Exchange a and b (conjugation by the half twist), expanding D^k."""
        return BraidWord(tuple((_OTHER[g], e) for g, e in self.syllables))

    def writhe(self) -> int:
        return 3 * self.delta + sum(e for _, e in self.tail)

    @_memo
    def _permutation(self) -> int:
        # the index in _PERMS; D^2 is a pure braid and D reverses the strands
        state = 3 if self.delta & 1 else 0
        for gen, exp in self.tail:
            if exp & 1:
                state = _STEP[gen][state]
        return state

    def permutation(self) -> tuple[int, int, int]:
        """Images of strands (1, 2, 3) under the word, read left to right;
        only the parity of each exponent matters.  Computed on first use."""
        return _PERMS[self._permutation]

    def closure_components(self) -> int:
        """Number of components of the closed-up link (cycles of the permutation)."""
        return _COMPONENTS[self._permutation]

    def is_knot(self) -> bool:
        return _COMPONENTS[self._permutation] == 1

    def display(self) -> str:
        """Render in the input grammar (A/B for inverse runs), space separated."""
        if not self.delta:
            return display_runs(self.tail)
        # D^h's block written as one repeated string, then the seam
        h, rest = self._seam
        if not h:
            return rest.display()
        a, b = "ab" if h > 0 else "AB"
        seam = display_runs(_DELTA_SYLLABLES[h > 0][2:] + rest.syllables[1:])
        return f"{a} {b}" + f" {a}^2 {b}" * (abs(h) - 1) + " " + seam

    def __str__(self) -> str:
        return self.display() or "<identity>"


#: the runs a, b, a^2 of D's block and A, B, A^2 of D^-1's, indexed by k > 0
_DELTA_SYLLABLES = tuple(((GEN_A, s), (GEN_B, s), (GEN_A, 2 * s)) for s in (-1, 1))


def delta_runs(k: int) -> tuple[tuple[str, int], ...]:
    """The merged runs of D^k (k may be negative), a b (a^2 b)^(|k|-1) a
    with every exponent signed like k; every run is one of six shared
    syllables, whatever k is."""
    if not k:
        return ()
    a1, b1, a2 = _DELTA_SYLLABLES[k > 0]
    return (a1, b1) + (a2, b1) * (abs(k) - 1) + (a1,)


def display_runs(runs: Iterable[tuple[str, int]]) -> str:
    """Runs in the input grammar (A/B for inverse runs), space separated."""
    parts = []
    for gen, exp in runs:
        if exp < 0:
            gen, exp = _INVERSE_LETTERS[gen], -exp
        parts.append(gen if exp == 1 else f"{gen}^{exp}")
    return " ".join(parts)


#: generator -> the letter of its inverse
_INVERSE_LETTERS = {GEN_A: "A", GEN_B: "B"}


def delta_power(k: int) -> BraidWord:
    """The k-th power of the half twist D (k may be negative), as delta."""
    return BraidWord((), k)


def max_word_len() -> int:
    """Parser guard against pathological inputs, in expanded letters."""
    raw = os.environ.get("BRAID3_MAX_WORD_LEN", "")
    if not raw:
        return DEFAULT_MAX_WORD_LEN
    if not _DIGITS.issuperset(raw):
        raise WordLimitError(
            f"BRAID3_MAX_WORD_LEN={raw!r} is not a non-negative base-10 integer"
        )
    try:
        return int(raw)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise WordLimitError(f"BRAID3_MAX_WORD_LEN has {len(raw)} digits, too many") from None


#: ASCII digits only; str.isdigit also accepts superscripts and non-Latin digits
_DIGITS = frozenset("0123456789")

#: letter -> its exponent-1 run, shared by every plain letter; parse reads D on a miss
_LETTERS = {"a": (GEN_A, 1), "b": (GEN_B, 1), "A": (GEN_A, -1), "B": (GEN_B, -1)}


def parse(text: str) -> BraidWord:
    """Parse the word grammar into a merged BraidWord.

    The D terms before the first a/b letter add up into the word's delta
    (exact: D^j and D^k expand and merge to D^(j+k)); a later D^e expands
    in place.  Raises ParseError with a 1-based position, and TypeError on
    anything but a str, such as a JSON array, whose items would read as terms.
    """
    if not isinstance(text, str):
        raise TypeError(f"a braid word must be a str, not {type(text).__name__}")
    runs: list[tuple[str, int]] = []
    delta = 0
    limit = max_word_len()
    width = len(str(limit))
    total = 0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        i += 1
        run = _LETTERS.get(ch)
        if run is None:
            if ch.isspace():
                continue
            if ch != "D":
                raise ParseError(f"unexpected character {ch!r}", i)
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
            digits = text[start:i].lstrip("-").lstrip("0")
            # more digits than the limit has exceed it whatever they are, and
            # int() refuses strings past sys.get_int_max_str_digits()
            if len(digits) > width:
                raise ParseError(f"word longer than BRAID3_MAX_WORD_LEN={limit}", i)
            if not digits:
                raise ParseError("zero exponent not allowed", start + 1)
            exp = -int(digits) if text[start] == "-" else int(digits)
        total += abs(exp) if run else 3 * abs(exp)
        if total > limit:
            raise ParseError(f"word longer than BRAID3_MAX_WORD_LEN={limit}", i)
        if run:
            runs.append(run if exp == 1 else (run[0], run[1] * exp))
        elif runs:
            runs.extend(delta_runs(exp))
        else:
            delta += exp
    return _word(runs, delta)
