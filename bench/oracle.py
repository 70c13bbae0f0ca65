"""
An exact word-problem oracle for B3 that shares no code with braid3.

The map a -> [[1, 1], [0, 1]], b -> [[1, 0], [-1, 1]] sends B3 onto SL2(Z)
with kernel generated by D^4, the square of the full twist.  D^4 is
central with writhe 12, so the pair (matrix, writhe) determines a braid:
two words with the same pair are equal in B3.  A syllable g^k is one
matrix update with Python integers, so a check costs microseconds even
for exponents in the thousands.

Words are read from text in braid3's input grammar (letters a A b B D,
optional signed exponent, optional spaces); the parser here is its own.
"""

from __future__ import annotations

import re

_TERM = re.compile(r"\s*([aAbBD])(?:\^(-?\d+))?\s*")

Pair = tuple[int, int, int, int, int]  # m11, m12, m21, m22, writhe


def syllables(text: str) -> list[tuple[str, int]]:
    """(generator, exponent) runs of a word; D expands to a b a."""
    out: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot read word at {pos}: {text!r}")
            break
        letter, exp = m.group(1), int(m.group(2) or 1)
        pos = m.end()
        if letter == "D":
            runs = [("a", 1), ("b", 1), ("a", 1)]
            if exp < 0:
                runs = [("a", -1), ("b", -1), ("a", -1)]
            out.extend(runs * abs(exp))
        else:
            sign = -1 if letter.isupper() else 1
            out.append((letter.lower(), sign * exp))
    return out


def image(text: str) -> Pair:
    """The SL2(Z) image of the word, with its writhe."""
    m11, m12, m21, m22, writhe = 1, 0, 0, 1, 0
    for gen, k in syllables(text):
        writhe += k
        if gen == "a":  # right-multiply by [[1, k], [0, 1]]
            m12 += k * m11
            m22 += k * m21
        else:  # right-multiply by [[1, 0], [-k, 1]]
            m11 -= k * m12
            m21 -= k * m22
    return m11, m12, m21, m22, writhe


def _mul(x: Pair, y: Pair) -> Pair:
    a, b, c, d, w = x
    e, f, g, h, v = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, w + v


def conjugates(conjugator: str, source: str, target: str) -> bool:
    """conjugator * source * conjugator^-1 = target in B3."""
    c = image(conjugator)
    return _mul(c, image(source)) == _mul(image(target), c)


def components(text: str) -> int:
    """Number of components of the closure of the word."""
    perm = [0, 1, 2]
    for gen, k in syllables(text):
        if k % 2:
            i = 0 if gen == "a" else 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, count = set(), 0
    for start in range(3):
        if start not in seen:
            count += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = perm[j]
    return count
