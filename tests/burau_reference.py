"""
Test-only reference oracle: the reduced Burau representation of B3 at
generic t, with exact integer Laurent-polynomial entries,

    a -> [[-t, 1], [0, 1]]          b -> [[1, 0], [t, -t]].

It is faithful on B3, so equal images mean equal braids.  braid3 never
imports it and it shares no code with braid3's SL2(Z) x writhe oracle;
the tests check certificates against both.

An inverse letter is t^-1 times a polynomial matrix, so a word's image is
t^s times a polynomial matrix P(t).  P is evaluated exactly at the integer
t = T = 2^(L+3), where L counts the letters in play.  Right-multiplying a
row by one letter's polynomial matrix at most doubles the l1 norm of its
coefficients, so after n letters every coefficient of an entry is at most
2^n in absolute value, and a sum or difference of two entries (a trace, or
the two sides of an equation with L letters in all) has coefficients below
2^(L+1) < T/2.  Such a polynomial is zero exactly when its value at T is,
and its coefficients are the balanced base-T digits of that value, so the
integer arithmetic decides the polynomial identities exactly.
"""


def _letter(gen, exp, t):
    """The polynomial matrix at t, (m11, m12, m21, m22), of the letter gen^1
    when exp > 0 and of gen^-1 otherwise; the image of gen^-1 is t^-1 times it."""
    if gen == "a":
        return (-t, 1, 0, 1) if exp > 0 else (-1, 1, 0, t)
    return (1, 0, t, -t) if exp > 0 else (t, 0, t, -1)


def _letters(word):
    return sum(abs(exp) for _, exp in word.syllables)


def _matrix(word, t):
    """P(t) as (m11, m12, m21, m22) and the power s, with the word's image
    t^s P(t); right-multiplies by one letter's matrix at a time."""
    m11, m12, m21, m22, s = 1, 0, 0, 1, 0
    for gen, exp in word.syllables:
        p, q, r, u = _letter(gen, exp, t)
        for _ in range(abs(exp)):
            m11, m12 = m11 * p + m12 * r, m11 * q + m12 * u
            m21, m22 = m21 * p + m22 * r, m21 * q + m22 * u
        s += min(exp, 0)
    return (m11, m12, m21, m22), s


def _laurent(value, s, bits):
    """t^s * p(t) as (lowest exponent, coefficients), with no zeros at either
    end, from value = p(2^bits) by balanced base-2^bits digits."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    digits = []
    while value:
        d = value & mask
        if d >= half:
            d -= 1 << bits
        digits.append(d)
        value = (value - d) >> bits
    nz = [i for i, c in enumerate(digits) if c]
    return (s + nz[0], tuple(digits[nz[0]:])) if nz else (0, ())


def image(word):
    """The four entries m11, m12, m21, m22 of the Burau matrix."""
    bits = _letters(word) + 3
    entries, s = _matrix(word, 1 << bits)
    return tuple(_laurent(x, s, bits) for x in entries)


def trace(word):
    """m11 + m22, a conjugacy invariant."""
    bits = _letters(word) + 3
    (m11, _, _, m22), s = _matrix(word, 1 << bits)
    return _laurent(m11 + m22, s, bits)


def words_equal(u, v):
    # t^su Pu = t^sv Pv  <=>  t^(su - m) Pu = t^(sv - m) Pv for m = min(su, sv),
    # a polynomial identity decided by its value at T
    bits = _letters(u) + _letters(v) + 3
    (pu, su), (pv, sv) = _matrix(u, 1 << bits), _matrix(v, 1 << bits)
    m = min(su, sv)
    return [x << (bits * (su - m)) for x in pu] == [x << (bits * (sv - m)) for x in pv]


def conjugates(conjugator, source, target):
    """conjugator * source * conjugator^-1 = target in B3."""
    return words_equal(conjugator * source, target * conjugator)
