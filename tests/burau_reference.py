"""
Test-only reference oracle: the reduced Burau representation of B3 at
generic t, with exact integer Laurent-polynomial entries,

    a -> [[-t, 1], [0, 1]]          b -> [[1, 0], [t, -t]].

It is faithful on B3, so equal images mean equal braids.  braid3 never
imports it and it shares no code with braid3's SL2(Z) x writhe oracle;
the tests check certificates against both.

A polynomial is a list of coefficients indexed by exponent.  An inverse
letter is t^-1 times a polynomial matrix, so a word's image is kept as
t^s times a polynomial matrix, one row at a time.
"""


def _add(x, y):
    if len(x) < len(y):
        x, y = y, x
    return [c + d for c, d in zip(x, y)] + x[len(y):]


def _t(x, sign=1):
    """sign * t * x"""
    return [0] + (x if sign > 0 else [-c for c in x])


#: (generator, sign) -> the row (x, y) times the letter's polynomial matrix
_STEP = {
    ("a", 1): lambda x, y: (_t(x, -1), _add(x, y)),
    ("a", -1): lambda x, y: ([-c for c in x], _add(x, _t(y))),  # t^-1 [[-1, 1], [0, t]]
    ("b", 1): lambda x, y: (_add(x, _t(y)), _t(y, -1)),
    ("b", -1): lambda x, y: (_add(_t(x), _t(y)), [-c for c in y]),  # t^-1 [[t, 0], [t, -1]]
}


def _rows(word):
    row1, row2, s = ([1], []), ([], [1]), 0
    for syl in word.syllables:
        sign = 1 if syl.exp > 0 else -1
        step = _STEP[syl.gen, sign]
        for _ in range(abs(syl.exp)):
            row1, row2 = step(*row1), step(*row2)
        s += min(syl.exp, 0)
    return row1, row2, s


def _laurent(x, s):
    """t^s * x as (lowest exponent, coefficients), with no zeros at either end."""
    nz = [i for i, c in enumerate(x) if c]
    return (s + nz[0], tuple(x[nz[0]:nz[-1] + 1])) if nz else (0, ())


def image(word):
    """The four entries m11, m12, m21, m22 of the Burau matrix."""
    (m11, m12), (m21, m22), s = _rows(word)
    return tuple(_laurent(x, s) for x in (m11, m12, m21, m22))


def trace(word):
    """m11 + m22, a conjugacy invariant."""
    (m11, _), (_, m22), s = _rows(word)
    return _laurent(_add(m11, m22), s)


def words_equal(u, v):
    return image(u) == image(v)


def conjugates(conjugator, source, target):
    """conjugator * source * conjugator^-1 = target in B3."""
    return image(conjugator * source) == image(target * conjugator)
