"""
The report's signature against an independent one: the signature of a
Seifert matrix of the closed braid, built by seifert_reference.py from
the braid word alone.
"""

import random

from braid3.invariants import build_report
from braid3.words import parse

import seifert_reference
from conftest import KNOWN_TORUS_SIGNATURES, random_word, reduced_words


def test_seifert_reference_examples():
    # the trefoil T(2,3) and its mirror, the figure eight, T(3,4)
    assert seifert_reference.signature(parse("a^3 b")) == -2
    assert seifert_reference.signature(parse("A^3 b")) == 2
    assert seifert_reference.signature(parse("a B a B")) == 0
    assert seifert_reference.signature(parse("abababab")) == -6
    # a^3 b has loops at its first two letters, joined by the middle a
    assert seifert_reference.seifert_matrix(parse("a^3 b")) == [[-1, 0], [1, -1]]
    # no generator repeats: a disc, with no homology
    assert seifert_reference.seifert_matrix(parse("a b")) == []


def test_every_knot_up_to_length_8():
    knots = 0
    for w in reduced_words(8):
        if not w.is_knot():
            continue
        knots += 1
        assert build_report(w).signature == seifert_reference.signature(w), w.display()
    assert knots == 6512


def test_torus_knots_and_their_mirrors():
    for q, sig in KNOWN_TORUS_SIGNATURES.items():
        word = parse("ab") ** q
        assert seifert_reference.signature(word) == sig == build_report(word).signature, q
        mirror = word.mirror()
        assert seifert_reference.signature(mirror) == -sig == build_report(mirror).signature, q


def test_random_knots_of_11_to_20_letters():
    rng = random.Random(20240817)
    knots = 0
    while knots < 200:
        w = random_word(rng, rng.randint(11, 20))
        if not w.is_knot():
            continue
        knots += 1
        assert build_report(w).signature == seifert_reference.signature(w), w.display()
