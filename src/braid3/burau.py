"""
Exact equality oracle for B3: the reduced Burau representation at t = -1,
paired with the writhe.

At t = -1 the reduced Burau matrices of the generators are

    a  ->  [[1, 1], [0, 1]]          b  ->  [[1, 0], [-1, 1]],

which maps B3 onto SL2(Z).  The kernel of that map is generated by D^4,
the square of the full twist: D^2 generates the center of B3 and maps to
-I, and B3 / <D^2> maps isomorphically onto PSL2(Z) (Kassel-Turaev, Braid
Groups, GTM 247).  The writhe is a homomorphism B3 -> Z and D^4 has
writhe 12, so the identity is the only kernel element of writhe 0.  Two
words are therefore equal in B3 exactly when their matrices and their
writhes agree, and a passing check is a proof.

Entries are Python integers, exact at any size.  A syllable g^k is one
matrix update, so a check costs one step per syllable, not per letter, and
a word's leading D^k is one step too: D maps to [[0, 1], [-1, 0]], a
quarter turn, and adds 3 to the writhe.
"""

from __future__ import annotations

from .words import GEN_A, BraidWord


def _image(*words: BraidWord) -> tuple[int, int, int, int, int]:
    """(m11, m12, m21, m22, writhe) of the product of the words, folded one
    syllable at a time, so the product word is never built."""
    m11, m12, m21, m22, writhe = 1, 0, 0, 1, 0
    for word in words:
        d = word.delta
        if d:
            writhe += 3 * d
            if d & 2:  # right-multiply by D^2 = -I
                m11, m12, m21, m22 = -m11, -m12, -m21, -m22
            if d & 1:  # right-multiply by D = [[0, 1], [-1, 0]]
                m11, m12, m21, m22 = -m12, m11, -m22, m21
        for gen, k in word.tail:
            writhe += k
            if gen == GEN_A:  # right-multiply by a^k = [[1, k], [0, 1]]
                m12 += k * m11
                m22 += k * m21
            else:  # right-multiply by b^k = [[1, 0], [-k, 1]]
                m11 -= k * m12
                m21 -= k * m22
    return m11, m12, m21, m22, writhe


def words_equal(u: BraidWord, v: BraidWord) -> bool:
    """Exact word-problem decision: u = v in B3."""
    return _image(u) == _image(v)


def conjugates_to(conjugator: BraidWord, source: BraidWord, target: BraidWord) -> bool:
    """Check conjugator * source * conjugator^-1 = target, rearranged as
    conjugator * source = target * conjugator to avoid inverses."""
    return _image(conjugator, source) == _image(target, conjugator)
