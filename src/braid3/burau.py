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

Entries are Python integers, exact at any size.  Each word of a check is
mapped once, a syllable g^k in one matrix update, so a check costs one step
per syllable, not per letter.  A word's leading D^k is one of four matrices,
as D maps to the quarter turn [[0, 1], [-1, 0]], and adds 3k to the writhe.
"""

from __future__ import annotations

from .words import GEN_A, BraidWord


#: the images of D^0 to D^3; D^2 maps to -I and D^4 to I
_DELTA = ((1, 0, 0, 1), (0, 1, -1, 0), (-1, 0, 0, -1), (0, -1, 1, 0))


def _image(word: BraidWord) -> tuple[int, int, int, int, int]:
    """(m11, m12, m21, m22, writhe): D^delta's image, then the tail folded by syllable."""
    (m11, m12, m21, m22), writhe = _DELTA[word.delta % 4], 3 * word.delta
    for gen, k in word.tail:
        writhe += k
        if gen == GEN_A:  # right-multiply by a^k = [[1, k], [0, 1]]
            m12 += k * m11
            m22 += k * m21
        else:  # right-multiply by b^k = [[1, 0], [-k, 1]]
            m11 -= k * m12
            m21 -= k * m22
    return m11, m12, m21, m22, writhe


def _times(x: tuple, y: tuple) -> tuple[int, int, int, int, int]:
    """The image of a product, from the images of its two factors."""
    (x11, x12, x21, x22, xw), (y11, y12, y21, y22, yw) = x, y
    return (x11 * y11 + x12 * y21, x11 * y12 + x12 * y22,
            x21 * y11 + x22 * y21, x21 * y12 + x22 * y22, xw + yw)


def words_equal(u: BraidWord, v: BraidWord) -> bool:
    """Exact word-problem decision: u = v in B3."""
    return _image(u) == _image(v)


def conjugates_to(conjugator: BraidWord, source: BraidWord, target: BraidWord) -> bool:
    """Check conjugator * source * conjugator^-1 = target, rearranged as
    conjugator * source = target * conjugator, one image per word."""
    c = _image(conjugator)
    return _times(c, _image(source)) == _times(_image(target), c)
