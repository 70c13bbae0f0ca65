"""
braid3's word-problem oracle, the Burau representation at t = -1 paired
with the writhe, and the test-only generic-t Burau reference that the
soundness and acceptance tests check certificates against as well.
"""

import itertools
import time

import braid3.burau
from braid3.burau import _image, conjugates_to, words_equal
from braid3.normal_form import GarsideC, garside_normal_form, murasugi_from_garside
from braid3.words import BraidWord, delta_power, parse

import burau_reference
from conftest import random_word, reduced_words

IDENTITY = (1, 0, 0, 1, 0)


def mul(x, y):
    """Product of two (m11, m12, m21, m22, writhe) images."""
    a, b, c, d, w = x
    e, f, g, h, v = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, w + v


def laurent(coeffs):
    """{exponent: coefficient} in the reference's (lowest exponent, coefficients) form."""
    lo, hi = min(coeffs), max(coeffs)
    return lo, tuple(coeffs.get(e, 0) for e in range(lo, hi + 1))


def product(p, q):
    """p * q for two reference entries, as {exponent: coefficient}."""
    (i, xs), (j, ys) = p, q
    out = {}
    for a, x in enumerate(xs):
        for b, y in enumerate(ys):
            out[i + j + a + b] = out.get(i + j + a + b, 0) + x * y
    return out


ZERO = (0, ())


class TestBurauImages:
    def test_generator_images(self):
        assert _image(parse("a")) == (1, 1, 0, 1, 1)
        assert _image(parse("b")) == (1, 0, -1, 1, 1)
        assert _image(parse("A")) == (1, -1, 0, 1, -1)
        assert _image(parse("B")) == (1, 0, 1, 1, -1)
        assert burau_reference.image(parse("a")) == (laurent({1: -1}), laurent({0: 1}), ZERO, laurent({0: 1}))
        assert burau_reference.image(parse("b")) == (laurent({0: 1}), ZERO, laurent({1: 1}), laurent({1: -1}))
        assert burau_reference.image(parse("A")) == (
            laurent({-1: -1}), laurent({-1: 1}), ZERO, laurent({0: 1})
        )

    def test_identity_and_inverses(self):
        assert _image(BraidWord()) == IDENTITY
        for text in ("a", "b"):
            w = parse(text)
            assert mul(_image(w), _image(w.inverse())) == IDENTITY
            assert burau_reference.image(w * w.inverse()) == burau_reference.image(BraidWord())

    def test_braid_relation(self):
        assert _image(parse("aba")) == _image(parse("bab"))
        assert burau_reference.image(parse("aba")) == burau_reference.image(parse("bab"))

    def test_full_twist_is_central_scalar(self):
        assert _image(delta_power(2)) == (-1, 0, 0, -1, 6)
        assert _image(delta_power(4)) == (1, 0, 0, 1, 12)
        t3 = laurent({3: 1})
        assert burau_reference.image(delta_power(2)) == (t3, ZERO, ZERO, t3)
        for text in ("a", "b"):
            m = _image(parse(text))
            assert mul(_image(delta_power(2)), m) == mul(m, _image(delta_power(2)))

    def test_every_power_of_the_half_twist(self):
        # D^k's image is one of four matrices with writhe 3k; each residue
        # mod 4, of both signs, against the fold of its letters
        for k in range(-9, 10):
            letters = ("a b a " if k > 0 else "A B A ") * abs(k)
            assert _image(delta_power(k)) == _image(parse(letters))

    def test_determinant_is_signed_t_power(self, rng):
        # det = (-t)^writhe in the reference, which is 1 at t = -1
        for _ in range(50):
            w = random_word(rng, rng.randrange(0, 12))
            m11, m12, m21, m22, _ = _image(w)
            assert m11 * m22 - m12 * m21 == 1
            r11, r12, r21, r22 = burau_reference.image(w)
            det = product(r11, r22)
            for e, c in product(r12, r21).items():
                det[e] = det.get(e, 0) - c
            wr = w.writhe()
            assert {e: c for e, c in det.items() if c} == {wr: (-1) ** (wr % 2)}

    def test_homomorphism_exhaustive_short(self):
        words = [w for w in reduced_words(3)]
        for u, v in itertools.product(words, words):
            assert _image(u * v) == mul(_image(u), _image(v))

    def test_homomorphism_random_long(self, rng):
        for _ in range(1000):
            u = random_word(rng, rng.randrange(0, 20))
            v = random_word(rng, rng.randrange(0, 20))
            assert _image(u * v) == mul(_image(u), _image(v))

    def test_same_partition_as_reference(self):
        words = list(reduced_words(7))
        assert len(words) == 4373
        pairs = {(_image(w), burau_reference.image(w)) for w in words}
        assert len({p for p, _ in pairs}) == len({q for _, q in pairs}) == len(pairs) == 1233


class TestWordsEqual:
    def test_known_identities(self):
        for n in range(1, 4):
            lhs = parse("ab") ** (3 * n + 1)
            assert words_equal(lhs, parse("ab") * delta_power(2 * n))
            rhs = (
                parse("a^2 b a^3")
                * parse("a b a^3") ** (n - 1)
                * parse("b")
                * parse(f"a^{n}")
            )
            assert words_equal(lhs, rhs)
        for n in range(1, 4):
            lhs = parse("ab") ** (3 * n - 1)
            rhs = parse(f"a^{2*n} b") * parse("a^2 b^2") ** (n - 1) * parse("a")
            assert words_equal(lhs, rhs)

    def test_distinct_words(self):
        assert not words_equal(parse("ab"), parse("ba"))

    def test_kernel_generator_is_not_the_identity(self):
        # D^4 has the identity matrix; only its writhe tells it apart
        assert not words_equal(BraidWord(), delta_power(4))
        assert words_equal(delta_power(4), parse("ab") ** 6)

    def test_equivalence_relation_sample(self, rng):
        words = [random_word(rng, rng.randrange(0, 8)) for _ in range(30)]
        for u in words:
            assert words_equal(u, u)
        for u, v in itertools.combinations(words, 2):
            assert words_equal(u, v) == words_equal(v, u)
            assert words_equal(u, v) == burau_reference.words_equal(u, v)

    def test_conjugates_to(self, rng):
        for _ in range(50):
            w = random_word(rng, rng.randrange(0, 10))
            c = random_word(rng, rng.randrange(0, 6))
            assert conjugates_to(c, w, c * w * c.inverse())

    def test_conjugates_to_maps_each_word_once(self, monkeypatch):
        # the conjugator's image multiplies on both sides, so a check maps
        # each of its three words once
        image = braid3.burau._image
        calls = []

        def recording(word):
            calls.append(word)
            return image(word)

        monkeypatch.setattr(braid3.burau, "_image", recording)
        for c, s in ((parse("a^2 B"), parse("a b^3 A")), (parse("D^3 b"), parse("D^-2 a^5 B"))):
            calls.clear()
            t = c * s * c.inverse()
            assert conjugates_to(c, s, t)
            assert len(calls) == 3 and [sum(x is w for x in calls) for w in (c, s, t)] == [1] * 3

    def test_conjugates_to_agrees_with_reference(self, rng):
        # the oracle folds conjugator, source and target without building
        # the two products; the reference multiplies the words out
        verdicts = []
        for i in range(300):
            c = random_word(rng, rng.randrange(0, 8))
            s = random_word(rng, rng.randrange(0, 10))
            t = c * s * c.inverse()
            c, t = [
                (c, t),
                (c * delta_power(2), t),  # D^2 is central
                (c, delta_power(4) * t),  # same matrix, writhe + 12
                (c, t * random_word(rng, rng.randrange(1, 3))),
                (c, random_word(rng, rng.randrange(0, 10))),
            ][i % 5]
            verdict = conjugates_to(c, s, t)
            assert verdict == burau_reference.conjugates(c, s, t)
            verdicts.append(verdict)
        assert 100 < sum(verdicts) < 200

    def test_long_exponents_classify_with_the_check(self):
        # one step per syllable: the exponents cost nothing
        word = parse("a^16000 b^16000 a^3 b^2")
        start = time.perf_counter()
        gform, gcert = garside_normal_form(word)
        mform, mcert = murasugi_from_garside(gform, gcert)
        assert time.perf_counter() - start < 5
        assert gform == GarsideC(0, ((16000, 3), (2, 16000)))
        assert mform.case == "generic"


class TestFingerprint:
    """The reference Burau trace: a conjugacy invariant, and the fingerprint
    the soundness tests compare between a word and its normal form."""

    def test_conjugation_invariance(self, rng):
        for _ in range(100):
            w = random_word(rng, rng.randrange(0, 10))
            u = random_word(rng, rng.randrange(0, 6))
            assert burau_reference.trace(u * w * u.inverse()) == burau_reference.trace(w)

    def test_cyclic_example(self):
        assert burau_reference.trace(parse("aba")) == burau_reference.trace(parse("a^2 b"))

    def test_writhe_separates(self):
        # writhe 2 against writhe 4: traces -t and -t^2
        assert burau_reference.trace(parse("ab")) == laurent({1: -1})
        assert burau_reference.trace(parse("a^3 b")) == laurent({2: -1})
