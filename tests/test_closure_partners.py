"""
Pairs of braid words with the same closure, whose Garside forms may
differ: a knot invariant must not tell the two apart.

  Markov destabilization   a^k b  and  a^k B  both close to T(2, k);
  flype (Birman-Menasco)   a^u b^v a^w b^e  and  a^u b^e a^w b^v, e = +-1.

On every knot pair whose Garside forms differ, the two reports agree on
each concordance invariant and genus that both report, and their
alternating-distance intervals meet.  Where every exponent lies within
+-5, the Alexander polynomials of alexander_reference.py agree too.
"""

import itertools

from braid3.invariants import build_report
from braid3.words import BraidWord

import alexander_reference

EXPONENTS = [e for k in range(1, 16) for e in (k, -k)]
SMALL = [e for k in range(1, 7) for e in (k, -k)]


def _word(*runs) -> BraidWord:
    return BraidWord.from_runs(runs)


def _pairs():
    """(exponents, left word, right word) of every partner pair."""
    for k in EXPONENTS:
        yield (k,), _word(("a", k), ("b", 1)), _word(("a", k), ("b", -1))
    for e, u, v, w in itertools.product((1, -1), SMALL, SMALL, SMALL):
        yield ((u, v, w), _word(("a", u), ("b", v), ("a", w), ("b", e)),
               _word(("a", u), ("b", e), ("a", w), ("b", v)))


def test_closure_partners_agree():
    pairs = knots = conjugate = by_alexander = 0
    for exps, left, right in _pairs():
        pairs += 1
        if not left.is_knot():
            assert not right.is_knot(), (left.display(), right.display())
            continue
        knots += 1
        lr, rr = build_report(left), build_report(right)
        if lr.garside == rr.garside:
            conjugate += 1
            continue
        where = (left.display(), right.display())
        for name in ("upsilon", "signature", "rasmussen_s", "genus3", "genus4", "tau"):
            lv, rv = getattr(lr, name), getattr(rr, name)
            assert lv is None or rv is None or lv == rv, (name, *where)
        assert max(lr.alt.lo, rr.alt.lo) <= min(lr.alt.hi, rr.alt.hi), where
        if all(abs(x) <= 5 for x in exps):
            by_alexander += 1
            assert alexander_reference.alexander(left) == alexander_reference.alexander(right), where
    assert (pairs, knots, conjugate, by_alexander) == (3486, 1312, 636, 358)
