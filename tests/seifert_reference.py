"""
Test-only knot signature of a 3-braid closure, from a Seifert matrix.

The Seifert matrix V of the closed braid is built by Collins' algorithm
(J. Collins, An algorithm for computing the Seifert matrix of a link from
a braid representation, 2007), the rule set behind Sage's
Link.seifert_matrix.  Seifert's algorithm on the closed braid gives one
disc per strand and one band per crossing.  A letter whose generator
occurs again later in the word closes a loop through the first later
occurrence, and these loops are a basis of the surface's first
homology.  V holds their linking numbers with the pushed-off loops, read
off the letters at both ends of each loop.  The signature is that of the
symmetric form V + V^T, found by exact symmetric elimination over
Fraction.

From braid3 it imports nothing but BraidWord, so the signature is found
without braid3's upsilon, torus parameters or normal forms.
"""

from fractions import Fraction

from braid3.words import BraidWord


def _letters(word: BraidWord) -> list[int]:
    """The word letter by letter: +-1 for a^+-1, +-2 for b^+-1."""
    return [(1 if gen == "a" else 2) * (1 if exp > 0 else -1)
            for gen, exp in word.syllables for _ in range(abs(exp))]


def seifert_matrix(word: BraidWord) -> list[list[int]]:
    """V on the basis of loops: one per letter whose generator occurs later."""
    x = _letters(word)
    # the first later letter on the same generator, or 0 when there is none
    nxt = [next((j for j in range(i + 1, len(x)) if abs(x[j]) == abs(x[i])), 0)
           for i in range(len(x))]
    basis = [i for i, h in enumerate(nxt) if h]
    v = {i: dict.fromkeys(basis, 0) for i in basis}
    for i in basis:
        h = nxt[i]
        v[i][i] = -((x[i] > 0) + (x[h] > 0) - 1)  # -sign(x_i + x_h)
        for j in basis:
            if j <= i or j > h:  # the loops at i and j are disjoint
                continue
            if j == h:  # the two loops share the band of letter h
                if x[j] > 0:
                    v[j][i] = 1
                else:
                    v[i][j] = -1
            elif nxt[j] > h:  # the loops overlap on neighbouring generators
                if abs(x[i]) - abs(x[j]) == 1:
                    v[j][i] = -1
                else:
                    v[i][j] = 1
    return [[v[i][j] for j in basis] for i in basis]


def signature(word: BraidWord) -> int:
    """Signature of V + V^T: positive minus negative pivots of its
    congruence diagonalization."""
    v = seifert_matrix(word)
    m = [[Fraction(a + b) for a, b in zip(row, col)] for row, col in zip(v, zip(*v))]
    sig = 0
    while m:
        k = next((k for k in range(len(m)) if m[k][k]), None)
        if k is None:
            # a zero diagonal with m[0][j] != 0: row and column 0 += those of j
            # make m[0][0] = 2 m[0][j] != 0, a congruence
            j = next((j for j in range(1, len(m)) if m[0][j]), None)
            if j is None:  # row 0 is zero: a null direction
                m = [row[1:] for row in m[1:]]
                continue
            for row in m:
                row[0] += row[j]
            m[0] = [a + b for a, b in zip(m[0], m[j])]
            k = 0
        pivot, col = m[k][k], [row[k] for row in m]
        sig += 1 if pivot > 0 else -1
        m = [[a - col[i] * col[j] / pivot for j, a in enumerate(row) if j != k]
             for i, row in enumerate(m) if i != k]
    return sig
