"""
Test-only Alexander polynomial of a 3-braid closure, from the reduced
Burau representation rho of burau_reference.py:

    det(I - rho(beta)) = (1 + t + t^2) * Delta(t)   up to a unit +-t^k.

From braid3 it imports nothing but BraidWord, so the genus it bounds is
found without braid3's writhe formula.  The image of a word is t^s P(t)
with s <= 0 and P a polynomial matrix, so

    t^(-2s) det(I - t^s P) = t^(-2s) - t^(-s) (m11 + m22) + det P

is a polynomial.  P is evaluated exactly at the integer t = T = 2^(2L+4),
where L counts the word's letters.  Each letter at most doubles the l1
norm of a row's coefficients, so every row of P has l1 norm at most 2^L;
the trace then has coefficient norm at most 2^(L+1), det P at most
(|m11| + |m12|)(|m21| + |m22|) <= 2^(2L), and the whole polynomial
below 2^(2L+3) = T/2.  Its coefficients are therefore the balanced
base-T digits of its value at T.  The division by 1 + t + t^2 is done on
those coefficients and asserted exact.
"""

import burau_reference
from braid3.words import BraidWord


def alexander(word: BraidWord) -> tuple[int, ...]:
    """Coefficients of Delta, lowest degree first, with no zero at either
    end; on a knot closure the sign makes Delta(1) = 1, which is asserted."""
    letters = sum(abs(exp) for _, exp in word.syllables)
    bits = 2 * letters + 4
    (m11, m12, m21, m22), s = burau_reference._matrix(word, 1 << bits)
    value = (1 << (-2 * s * bits)) - ((m11 + m22) << (-s * bits)) + m11 * m22 - m12 * m21
    _, coeffs = burau_reference._laurent(value, 0, bits)
    # synthetic division by t^2 + t + 1 from the top degree down
    rest, quotient = list(coeffs), []
    while len(rest) > 2:
        lead = rest.pop()
        quotient.append(lead)
        rest[-1] -= lead
        rest[-2] -= lead
    assert not any(rest), f"1 + t + t^2 does not divide det(I - rho) of {word}"
    quotient.reverse()  # its lowest coefficient is that of det(I - rho), not 0
    if word.is_knot():
        assert abs(sum(quotient)) == 1, f"Delta(1) = {sum(quotient)} on the knot {word}"
        if sum(quotient) < 0:
            quotient = [-c for c in quotient]
    return tuple(quotient)
