import hashlib
import itertools
import operator
import random
import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braid3.cli
import braid3.normal_form
from braid3.burau import conjugates_to, words_equal
from braid3.normal_form import (
    ConjugacyCertificate,
    GarsideA,
    GarsideB,
    GarsideC,
    GarsideD,
    InternalInconsistencyError,
    MurasugiGeneric,
    MurasugiHalfTwist,
    MurasugiPower,
    MurasugiTorus,
    _BIT,
    _GEN,
    _extract_half_twists,
    _least_rotation,
    delta_exponent,
    delta_positive_split,
    form_display,
    garside_normal_form,
    murasugi_from_garside,
    murasugi_normal_form,
    realize,
)
from braid3.words import BraidWord, _word, delta_power, delta_runs, parse

import burau_reference
from conftest import LETTER_RUNS, random_word, reduced_words

word_strategy = st.lists(st.sampled_from(LETTER_RUNS), max_size=14).map(
    BraidWord.from_runs
)


def positive_words(max_len: int):
    """Every positive word of letter length <= max_len, the empty word too."""
    for n in range(max_len + 1):
        for letters in itertools.product("ab", repeat=n):
            yield BraidWord.from_runs([(g, 1) for g in letters])


def reference_split(word: BraidWord) -> tuple[int, BraidWord]:
    """(k, P) with word = D^(2k) P, one letter at a time: a^-1 = D^-1 a b,
    b^-1 = D^-1 b a, and each D^-1 moves to the front through u D^-1 = D^-1 tau(u)."""
    other = {"a": "b", "b": "a"}
    letters, m = [], 0
    for gen, exp in word.tail if word.delta else word.syllables:
        for _ in range(abs(exp)):
            if exp > 0:
                letters.append(gen)
                continue
            m += 1
            letters = [other[g] for g in letters] + [gen, other[gen]]
    e = word.delta - m
    return e >> 1, BraidWord.from_runs(list(delta_runs(e & 1)) + [(g, 1) for g in letters])


class TestDeltaPositiveSplit:
    def test_positive_input_untouched(self):
        w = parse("a^2 b^3 a")
        split = delta_positive_split(w)
        assert split.k == 0 and split.positive_part == w
        assert words_equal(w, delta_power(2 * split.k) * split.positive_part)

    def test_single_inverse_letter(self):
        # A = D^-1 ab = D^-2 aba ab: an odd count folds one D = aba into P
        w = parse("A")
        split = delta_positive_split(w)
        assert split.k == -1
        assert split.positive_part == parse("a b a^2 b")
        assert words_equal(w, delta_power(2 * split.k) * split.positive_part)

    def test_mixed_word(self):
        # five inverse letters, one D^-1 each, and one D folded back
        w = parse("a^3 B a^-3 B")
        split = delta_positive_split(w)
        assert split.k == -3
        assert split.positive_part == parse("a b a b^4 a b a^2 b^2 a b a")
        assert words_equal(w, delta_power(2 * split.k) * split.positive_part)

    def test_exact_letter_count(self, rng):
        # 2 letters per inverse letter, plus 3 when their count is odd
        for _ in range(300):
            w = random_word(rng, rng.randrange(0, 30))
            inverse = sum(-exp for _, exp in w if exp < 0)
            positive = sum(exp for _, exp in w if exp > 0)
            split = delta_positive_split(w)
            assert len(split.positive_part) == positive + 2 * inverse + 3 * (inverse % 2)
            assert split.k == -((inverse + 1) // 2)
            assert words_equal(w, delta_power(2 * split.k) * split.positive_part)

    def test_leading_delta_passes_through(self, rng):
        # D^k is already in front: e = k - (inverse letters), P as without it
        for _ in range(300):
            k = rng.randint(-6, 6)
            tail = random_word(rng, rng.randrange(0, 20))
            inverse = sum(-exp for _, exp in tail if exp < 0)
            positive = sum(exp for _, exp in tail if exp > 0)
            w = parse(f"D^{k} {tail.display()}" if k else tail.display())
            split = delta_positive_split(w)
            e = k - inverse
            assert split.k == e // 2
            assert len(split.positive_part) == positive + 2 * inverse + 3 * (e % 2)
            assert words_equal(w, delta_power(2 * split.k) * split.positive_part)

    def test_positive_words_with_delta_prefixes(self):
        # a positive tail needs no substitution: P is D^(k & 1) times the tail,
        # as the general path builds it; checked on every positive word of
        # length <= 8 and on the reduced words of length <= 7 alike
        words = list(positive_words(8)) + list(reduced_words(7))
        for tail in words:
            for k in range(-3, 4):
                w = parse(f"D^{k} {tail.display()}") if k else tail
                split = delta_positive_split(w)
                assert (split.k, split.positive_part) == reference_split(w), w
                assert words_equal(w, delta_power(2 * split.k) * split.positive_part)

    def test_split_letters_do_not_grow_with_delta(self, monkeypatch):
        monkeypatch.setenv("BRAID3_MAX_WORD_LEN", str(3 * 10**6 + 1))
        small, large = (delta_positive_split(parse(f"D^-{n} a")) for n in (10, 10**6))
        assert len(small.positive_part) == len(large.positive_part) == 1
        assert (small.k, large.k) == (-5, -(10**6) // 2)


class TestGarsideExamples:
    def test_torus_word(self):
        form, cert = garside_normal_form(parse("abababab"))
        assert form == GarsideB(ell=1, p=1)
        assert cert.verify()

    def test_eight_twenty(self):
        form, _ = garside_normal_form(parse("a^3 B a^-3 B"))
        assert form == GarsideD(ell=-2, pairs=(), p_r=7)
        assert form_display(form) == "D^-3 a^7"

    def test_eight_twenty_one(self):
        form, _ = garside_normal_form(parse("a^3 b A^2 b^2"))
        assert form == GarsideC(ell=-1, pairs=((3, 2), (2, 3)))
        assert form_display(form) == "D^-2 a^3 b^2 a^2 b^3"

    def test_half_twist_word(self):
        form, _ = garside_normal_form(parse("aba"))
        assert form == GarsideB(ell=0, p=2)

    def test_identity(self):
        form, _ = garside_normal_form(BraidWord())
        assert form == GarsideA(ell=0, p=0)

    def test_central_power_is_case_a(self):
        form, _ = garside_normal_form(delta_power(-4))
        assert form == GarsideA(ell=-2, p=0)

    def test_form_constructors_enforce_invariants(self):
        with pytest.raises(ValueError):
            GarsideA(0, -1)
        with pytest.raises(ValueError):
            GarsideB(0, 4)
        with pytest.raises(ValueError):
            GarsideC(0, ((1, 2),))
        with pytest.raises(ValueError):
            GarsideD(0, ((2, 2),), 1)
        with pytest.raises(ValueError):
            MurasugiGeneric(0, ())


class TestRealize:
    def test_examples(self):
        assert realize(GarsideC(0, ((3, 3),))) == parse("a^3 b^3")
        assert realize(GarsideA(1, 0)) == delta_power(2)
        assert realize(MurasugiGeneric(1, ((1, 1), (3, 1)))) == parse("D^2 A b A^3 b")

    def test_idempotence_on_canonical_forms(self, rng):
        # canonical = whatever the classifier itself emits
        seen = 0
        while seen < 200:
            form = _random_garside_form(rng)
            canonical, _ = garside_normal_form(realize(form))
            again, cert = garside_normal_form(realize(canonical))
            assert again == canonical, form
            assert cert.verify()
            for f in (form, canonical, murasugi_from_garside(again, cert)[0]):
                assert realize(f).delta == delta_exponent(f)
            seen += 1


def _random_garside_form(rng: random.Random):
    kind = rng.randrange(4)
    ell = rng.randint(-3, 3)
    if kind == 0:
        return GarsideA(ell, rng.randint(0, 6))
    if kind == 1:
        return GarsideB(ell, rng.choice((1, 2, 3)))
    r = rng.randint(1, 3)
    pairs = tuple(
        (rng.randint(2, 6), rng.randint(2, 6)) for _ in range(r)
    )
    if kind == 2:
        return GarsideC(ell, pairs)
    return GarsideD(ell, pairs[:-1], pairs[-1][0])


class TestSoundness:
    def test_exhaustive_short_words(self):
        for w in reduced_words(6):
            gform, gcert = garside_normal_form(w)
            assert gcert.verify()
            assert burau_reference.trace(w) == burau_reference.trace(realize(gform))

    def test_random_long_words(self, rng):
        for _ in range(150):
            w = random_word(rng, rng.randrange(0, 41))
            gform, gcert = garside_normal_form(w)
            mform, mcert = murasugi_normal_form(w)
            assert gcert.verify() and mcert.verify()
            # the two normal forms are conjugate to each other, with the
            # explicit conjugator inherited from the two certificates
            rel = mcert.conjugator * gcert.conjugator.inverse()
            assert conjugates_to(rel, realize(gform), realize(mform))

    def test_certificate_literal_definition(self, rng):
        for _ in range(20):
            w = random_word(rng, rng.randrange(0, 15))
            _, cert = garside_normal_form(w)
            c = cert.conjugator
            assert words_equal(c * cert.source * c.inverse(), cert.target)

    def test_conjugation_invariance(self, rng):
        for _ in range(200):
            w = random_word(rng, rng.randrange(0, 14))
            u = random_word(rng, rng.randrange(0, 8))
            f1, _ = garside_normal_form(w)
            f2, _ = garside_normal_form(u * w * u.inverse())
            assert f1 == f2

    @given(word_strategy, word_strategy)
    @settings(max_examples=150, deadline=None)
    def test_conjugation_invariance_property(self, w, u):
        f1, cert = garside_normal_form(w)
        assert cert.verify()
        f2, _ = garside_normal_form(u * w * u.inverse())
        assert f1 == f2

    def test_knot_parity_constraints(self):
        for w in reduced_words(6):
            form, _ = garside_normal_form(w)
            if not w.is_knot():
                continue
            assert not isinstance(form, GarsideA)
            if isinstance(form, GarsideB):
                assert form.p % 2 == 1
            elif isinstance(form, GarsideC):
                assert any(p % 2 for p, _ in form.pairs)
                assert any(q % 2 for _, q in form.pairs)
            else:
                exps = [x for pq in form.pairs for x in pq] + [form.p_r]
                assert any(e % 2 for e in exps)


class TestMurasugi:
    def test_eight_twenty_one_conversion(self):
        form, cert = murasugi_normal_form(parse("a^3 b A^2 b^2"))
        assert form == MurasugiGeneric(ell=1, pairs=((1, 1), (3, 1)))
        assert form_display(form) == "D^2 A b A^3 b"
        assert cert.verify()

    def test_eight_twenty_conversion(self):
        form, _ = murasugi_normal_form(parse("a^3 B a^-3 B"))
        assert form == MurasugiGeneric(ell=-1, pairs=((1, 5),))

    def test_torus_cases(self):
        assert murasugi_normal_form(parse("abababab"))[0] == MurasugiTorus(1, "ab")
        assert murasugi_normal_form(parse("a^3 b"))[0] == MurasugiTorus(0, "abab")
        assert murasugi_normal_form(parse("aba"))[0] == MurasugiHalfTwist(0)
        assert murasugi_normal_form(parse("a^4"))[0] == MurasugiPower(0, 4)

    def test_all_exponents_two_degenerates_to_power(self):
        form, cert = murasugi_normal_form(parse("a^2 b^2"))
        assert form == MurasugiPower(1, -2)
        assert cert.verify()
        form, cert = murasugi_normal_form(realize(GarsideD(0, ((2, 2),), 2)))
        assert form == MurasugiPower(2, -3)
        assert cert.verify()

    def test_trailing_vanishing_runs_wrap_around(self):
        # conversion slots ending in zeros force a cyclic rotation before
        # the empty b-runs merge; both orders hand-computed
        form, cert = murasugi_normal_form(realize(GarsideC(0, ((3, 3), (2, 2)))))
        assert form == MurasugiGeneric(2, ((1, 1), (3, 1)))
        assert cert.verify()
        form, cert = murasugi_normal_form(realize(GarsideC(0, ((2, 3), (3, 2)))))
        assert form == MurasugiGeneric(2, ((1, 1), (3, 1)))
        assert cert.verify()

    def test_conversion_certified_on_random_forms(self, rng):
        for _ in range(150):
            kind = rng.randrange(2)
            ell = rng.randint(-3, 3)
            r = rng.randint(1, 3)
            pairs = tuple((rng.randint(2, 5), rng.randint(2, 5)) for _ in range(r))
            form = GarsideC(ell, pairs) if kind == 0 else GarsideD(ell, pairs[:-1], pairs[-1][0])
            mform, cert = murasugi_normal_form(realize(form))
            assert cert.verify()
            assert burau_reference.trace(realize(form)) == burau_reference.trace(realize(mform))

    def test_generic_exponent_constraints(self, rng):
        for _ in range(100):
            w = random_word(rng, rng.randrange(0, 16))
            form, _ = murasugi_normal_form(w)
            if isinstance(form, MurasugiGeneric):
                assert all(p >= 1 and q >= 1 for p, q in form.pairs)


def _all_rotations_canonical(seq):
    """The canonical rotation by its definition: of all rotations, those
    with the largest leading exponent, then the lexicographically least."""
    rotations = [seq[i:] + seq[:i] for i in range(len(seq))]
    return min(rotations, key=lambda rot: (-rot[0], rot))


def _tie_heavy_sequences(rng):
    yield from ([2, 2, 2, 2], [3, 2, 3, 2], [2], [7], [3, 2, 3, 2, 3], [3, 3, 2, 3, 2])
    for _ in range(400):
        yield [rng.choice((2, 3)) for _ in range(rng.randint(1, 12))]
    for _ in range(200):
        block = [rng.choice((2, 3, 4)) for _ in range(rng.randint(1, 4))]
        yield block * rng.randint(2, 4)
    for _ in range(200):
        yield [rng.randint(2, 9) for _ in range(rng.randint(1, 15))]


def _first_least_start(seq, top=None):
    """The first start of the least rotation among those that begin with
    top (all of them when top is None), by its definition: min keeps the
    first of equal keys."""
    starts = [i for i, e in enumerate(seq) if top is None or e == top]
    return min(starts, key=lambda i: seq[i:] + seq[:i])


def _counting(op):
    def compare(self, other):
        self.tally[0] += 1
        return op(self.value, other.value)
    return compare


class _Counted:
    """An entry that adds one to its shared tally for each comparison."""

    __slots__ = ("value", "tally")
    __hash__ = None

    def __init__(self, value, tally):
        self.value, self.tally = value, tally

    __eq__, __ne__, __lt__, __le__, __gt__, __ge__ = map(_counting, (
        operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge))


def _fibonacci_word(n):
    a, b = [3], [3, 2]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


class TestCanonicalRotation:
    def test_shift_matches_all_rotations_reference(self, rng):
        for seq in _tie_heavy_sequences(rng):
            shift = _least_rotation(seq, max(seq))
            assert seq[shift:] + seq[:shift] == _all_rotations_canonical(seq), seq

    def test_first_index_of_the_least_rotation(self, rng):
        # the conjugators depend on the index, not only on the rotated values
        short = (list(s) for n in range(1, 9) for s in itertools.product((1, 2, 3), repeat=n))
        for seq in itertools.chain(short, _tie_heavy_sequences(rng)):
            top = max(seq)
            assert _least_rotation(seq, top) == _first_least_start(seq, top), seq
            assert _least_rotation(seq) == _first_least_start(seq), seq
            pairs = list(zip(seq, seq[1:] + seq[:1]))
            assert _least_rotation(pairs) == _first_least_start(pairs), pairs

    def test_comparisons_are_linear(self, rng):
        for n in (10, 100, 1000, 10000):
            families = {
                "equal": [3] * n,
                "one low": [3] * (n - 1) + [2],
                "period 2": [3, 2] * (n // 2),
                "blocks": ([3] + [2] * 30) * max(1, n // 31),
                "fibonacci": _fibonacci_word(n),
                "random": [rng.choice((2, 3)) for _ in range(n)],
            }
            for name, values in families.items():
                tally = [0]
                seq = [_Counted(v, tally) for v in values]
                for call in (lambda: _least_rotation(seq, max(seq)), lambda: _least_rotation(seq)):
                    tally[0] = 0
                    call()
                    assert tally[0] <= 10 * len(seq), (name, len(seq), tally[0])

    def test_least_rotation_of_pairs(self, rng):
        # the Murasugi generic rotation compares (p, q) pairs as tuples
        for seq in _tie_heavy_sequences(rng):
            pairs = list(zip(seq, seq[1:] + seq[:1]))
            best = _least_rotation(pairs)
            least = min(pairs[i:] + pairs[:i] for i in range(len(pairs)))
            assert pairs[best:] + pairs[:best] == least, pairs

    def test_rotations_classify_identically(self, rng):
        for _ in range(60):
            r = rng.randint(2, 3)
            pairs = [(rng.randint(2, 5), rng.randint(2, 5)) for _ in range(r)]
            base = GarsideC(0, tuple(pairs))
            expected, _ = garside_normal_form(realize(base))
            for shift in range(1, r):
                rotated = GarsideC(0, tuple(pairs[shift:] + pairs[:shift]))
                got, _ = garside_normal_form(realize(rotated))
                assert got == expected

    def test_swapped_generators_classify_identically(self, rng):
        for _ in range(60):
            w = random_word(rng, rng.randrange(0, 12))
            f1, _ = garside_normal_form(w)
            f2, _ = garside_normal_form(w.swap_generators())
            # conjugation by the half twist exchanges the generators
            assert f1 == f2


class TestMirrorTorusFamily:
    def test_mirrored_torus_words_land_in_complementary_class(self):
        # the mirror of the D^(2l) ab class sits in the D^(2l') a^3 b class
        # with l' = -l - 1, and vice versa
        for ell in range(0, 4):
            word = realize(GarsideB(ell, 1)).mirror()
            assert garside_normal_form(word)[0] == GarsideB(-ell - 1, 3)
            word = realize(GarsideB(ell, 3)).mirror()
            assert garside_normal_form(word)[0] == GarsideB(-ell - 1, 1)


def _reduced_word(rng, length):
    """A random freely reduced word of exactly `length` letters."""
    letters = [LETTER_RUNS[rng.randrange(4)]]
    while len(letters) < length:
        g, e = LETTER_RUNS[rng.randrange(4)]
        if (g, -e) != letters[-1]:
            letters.append((g, e))
    return BraidWord.from_runs(letters)


def long_cases():
    """(word, Garside form, Murasugi form) for words of 20 000 to 30 000
    letters; the forms are None where they were not worked out by hand."""
    return [
        (parse("A^20000 b^3"), GarsideC(-10000, ((5, 2),) + ((2, 2),) * 9999),
         MurasugiGeneric(0, ((20000, 3),))),
        (parse("D^-10000 a"), GarsideA(-5000, 1), MurasugiPower(-5000, 1)),
        (parse("a^2 b^2") ** 5000, GarsideC(0, ((2, 2),) * 5000), MurasugiPower(5000, -10000)),
        (parse("ab") ** 15000, GarsideA(5000, 0), MurasugiPower(5000, 0)),
        (_reduced_word(random.Random(30000), 30000), None, None),
    ]


#: sha256 over the lines form_display(Garside form), form_display(Murasugi
#: form), Garside conjugator, Murasugi conjugator (each conjugator's
#: display()) of every long_cases() word and then A^100000 b^3, joined by
#: newlines; computed while the extraction still kept a generator bit per run
LONG_CONJUGATOR_DIGEST = "822149b9d0ff1235594f1f12730d0a58c2e13f496f45218dbb5cec414b81e08f"


class TestLongInputs:
    """Words far beyond the sweep.  Classifying is linear in the letter
    count, so these take seconds; no timing is asserted."""

    def test_long_words_classify_with_checked_certificates(self, monkeypatch):
        verdicts = []
        real = ConjugacyCertificate.verify

        def recording(cert):
            verdicts.append(real(cert))
            return verdicts[-1]

        monkeypatch.setattr(ConjugacyCertificate, "verify", recording)
        cases = long_cases() + [
            (parse("A^100000 b^3"), GarsideC(-50000, ((5, 2),) + ((2, 2),) * 49999),
             MurasugiGeneric(0, ((100000, 3),))),
        ]
        lines = []
        for word, garside, murasugi in cases:
            gform, gcert = garside_normal_form(word)
            mform, mcert = murasugi_from_garside(gform, gcert)
            if garside is not None:
                assert (gform, mform) == (garside, murasugi)
            lines += [form_display(gform), form_display(mform),
                      gcert.conjugator.display(), mcert.conjugator.display()]
        assert len(cases[-2][0]) == 30000
        assert verdicts == [True] * (2 * len(cases))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LONG_CONJUGATOR_DIGEST

    def test_delta_powers_cost_their_tail(self, monkeypatch):
        # D^k stays a number from parse through the oracle, so these take
        # well under a second although they expand to 3 * 10^6 letters
        monkeypatch.setenv("BRAID3_MAX_WORD_LEN", str(3 * 10**6 + 5))
        n = 10**6
        cases = [
            ("D^-1000000 a", GarsideA(-n // 2, 1), MurasugiPower(-n // 2, 1)),
            ("D^1000000 a^3 b^2", GarsideC(n // 2, ((3, 2),)),
             MurasugiGeneric(n // 2 + 1, ((2, 1),))),
        ]
        for text, garside, murasugi in cases:
            word = parse(text)
            gform, gcert = garside_normal_form(word)
            mform, mcert = murasugi_from_garside(gform, gcert)
            assert (gform, mform) == (garside, murasugi)
            assert gcert.verify() and mcert.verify()
            assert gcert.target.delta == delta_exponent(gform)
            assert form_display(gform) == text


def reference_extract_half_twists(n, positive, pieces):
    """_extract_half_twists as it was with a queue of (bit, exponent) runs
    still to push: the runs of the input first, then the rest of a run after
    an extraction, in front, or the bottom letter after a rotation."""
    bits, exps = deque(), deque()
    pending = deque((_BIT[g], e) for g, e in positive)
    idle = 0
    while True:
        while pending:
            g, e = pending.popleft()
            if bits and bits[-1] ^ (n & 1) == g:
                exps[-1] += e
            else:
                bits.append(g ^ (n & 1))
                exps.append(e)
            if len(exps) >= 3 and exps[-2] == 1:
                top, e = bits.pop(), exps.pop()
                del bits[-1], exps[-1]
                if exps[-1] == 1:
                    del bits[-1], exps[-1]
                else:
                    exps[-1] -= 1
                if e > 1:
                    pending.appendleft((top ^ (n & 1), e - 1))
                n += 1
                idle = 0
        if (
            len(exps) < 2
            or len(exps) % 2 != n % 2
            or (len(exps) == 2 and exps[0] + exps[1] < 3)
            or (exps[0] > 1 and exps[-1] > 1)
        ):
            break
        idle += 1
        if idle > 2:
            raise InternalInconsistencyError("expected half twist did not surface under rotation")
        bottom = bits[0]
        if exps[0] == 1:
            del bits[0], exps[0]
        else:
            exps[0] -= 1
        pending.append((bottom, 1))
        pieces.append(((_GEN[bottom], -1),))
    return n, [b ^ (n & 1) for b in bits], list(exps)


class TestHalfTwistExtraction:
    """The extraction reads the runs by index, keeps the one waiting run in
    two locals and one generator bit for its alternating stack; it must
    agree with the queue-based reference, which keeps a bit per run, on
    every run's generator and on the pieces."""

    @staticmethod
    def assert_matches_reference(word):
        split = delta_positive_split(word)
        got, want = [], []
        n, first, exps = _extract_half_twists(2 * split.k, split.positive_part, got)
        bits = [first ^ (i & 1) for i in range(len(exps))]
        assert ((n, bits, exps)
                == reference_extract_half_twists(2 * split.k, split.positive_part, want)), word
        assert got == want, word

    def test_every_short_reduced_word(self):
        for w in reduced_words(7):
            self.assert_matches_reference(w)

    def test_random_words(self, rng):
        for _ in range(500):
            self.assert_matches_reference(random_word(rng, rng.randrange(0, 61)))

    def test_long_inputs(self):
        for word, _, _ in long_cases():
            self.assert_matches_reference(word)


@pytest.fixture
def conversions(monkeypatch):
    """The pieces list of every _conjugator call, in order."""
    recorded = []
    conjugator = braid3.normal_form._conjugator

    def recording(pieces):
        recorded.append(list(pieces))
        return conjugator(pieces)

    monkeypatch.setattr(braid3.normal_form, "_conjugator", recording)
    return recorded


class TestMurasugiConjugator:
    """murasugi_from_garside merges the conversion onto the Garside
    conjugator at their seam only; the word must be the full merge of the
    conversion runs followed by the Garside conjugator's runs."""

    @staticmethod
    def assert_full_merge(word, conversions):
        gform, gcert = garside_normal_form(word)
        _, mcert = murasugi_from_garside(gform, gcert)
        conversion = itertools.chain.from_iterable(reversed(conversions[-1]))
        full = _word(itertools.chain(conversion, gcert.conjugator.syllables))
        assert mcert.conjugator.delta == 0
        assert mcert.conjugator.tail == full.tail, word
        assert mcert.conjugator.display() == full.display()

    def test_random_words(self, rng, conversions):
        for _ in range(300):
            self.assert_full_merge(random_word(rng, rng.randrange(0, 41)), conversions)

    def test_long_inputs(self, conversions):
        for word, _, _ in long_cases():
            self.assert_full_merge(word, conversions)


@pytest.fixture
def dropped_run(monkeypatch):
    """_unrotate mutated to drop the first run of every conjugator it builds;
    the list records, per call, whether there was a run to drop."""
    dropped = []
    unrotate = braid3.normal_form._unrotate

    def mutated(pairs):
        runs = unrotate(pairs)
        dropped.append(bool(runs))
        return runs[1:]

    monkeypatch.setattr(braid3.normal_form, "_unrotate", mutated)
    return dropped


class TestCertificatesAreProofs:
    """Making a ConjugacyCertificate runs the oracle, so a false claim
    cannot be made; murasugi_from_garside checks only its conversion, on
    the target of the Garside certificate it is given."""

    def test_false_claim_raises(self):
        with pytest.raises(InternalInconsistencyError, match="'a'"):
            ConjugacyCertificate(parse("a"), parse("a"), parse("b"))
        # D a D^-1 = b
        assert ConjugacyCertificate(parse("D"), parse("a"), parse("b")).verify()

    def test_mutated_conversion_raises(self, rng, dropped_run):
        raised = 0
        for _ in range(200):
            gform, gcert = garside_normal_form(random_word(rng, rng.randrange(0, 41)))
            del dropped_run[:]
            try:
                murasugi_from_garside(gform, gcert)
            except InternalInconsistencyError:
                raised += 1
                assert any(dropped_run)
            else:
                assert not any(dropped_run)
        assert raised > 0

    def test_mutated_conversion_exits_4(self, capsys, dropped_run):
        code = braid3.cli.main(["normalize", "--form", "murasugi", "a B^2"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "certificate failed" in captured.err

    def test_certificate_of_another_word_raises(self):
        gform, gcert = garside_normal_form(parse("a^3 b A^2 b^2"))
        _, other = garside_normal_form(parse("a^2 b^2 a^3 b^3"))
        assert other.verify()
        target = re.escape(repr(other.target.display()))
        with pytest.raises(InternalInconsistencyError, match=target):
            murasugi_from_garside(gform, other)
        # the certificate of the right word converts
        assert murasugi_from_garside(gform, gcert)[1].verify()
