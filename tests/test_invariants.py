
import random
import sys
from fractions import Fraction

import pytest

import braid3.invariants
import braid3.normal_form
from braid3.invariants import (
    IntInterval,
    NotAKnotError,
    alternating_distances,
    build_report,
    derived_concordance,
    fdtc,
    genus_tau,
    homogenized_upsilon,
    minimal_positive_switches,
    rasmussen_s,
    signature,
    upsilon,
    upsilon_upper_bound_slope,
)
from braid3.normal_form import (
    GarsideA,
    GarsideB,
    GarsideC,
    GarsideD,
    InternalInconsistencyError,
    MurasugiGeneric,
    MurasugiHalfTwist,
    MurasugiPower,
    MurasugiTorus,
    form_display,
    garside_normal_form,
    murasugi_from_garside,
    murasugi_normal_form,
    realize,
)
from braid3.words import BraidWord, delta_power, parse

from conftest import random_word, reduced_words

#: the invariants defined on knot closures only
KNOT_ONLY_INVARIANTS = (
    upsilon, signature, rasmussen_s, genus_tau, alternating_distances,
    minimal_positive_switches, upsilon_upper_bound_slope,
)


def _flag(value) -> str:
    """The flag of one report field, read off its value: the rule the
    report's flags are checked against."""
    if isinstance(value, tuple):  # a Rasmussen (value, provenance) pair
        return f"exact ({value[1]})"
    if isinstance(value, IntInterval) and not value.exact:
        return "interval"
    return "absent" if value is None else "exact"


def torus_word(q: int) -> BraidWord:
    """(ab)^q closes to the torus knot T(3, q) when gcd(q, 3) = 1."""
    return parse("ab") ** q


def garside(w) -> object:
    return garside_normal_form(w)[0]


class TestUpsilon:
    def test_braid_index_three_torus_values(self):
        assert upsilon(garside(torus_word(4))) == -2
        assert upsilon(garside(torus_word(5))) == -3
        assert upsilon(garside(torus_word(7))) == -4
        assert upsilon(garside(torus_word(8))) == -5

    def test_braid_index_two_torus_values(self):
        # a^q b closes to T(2, q) for odd q
        for ell in range(0, 7):
            q = 2 * ell + 1
            form = garside(parse(f"a^{q} b"))
            assert upsilon(form) == -ell

    def test_granny_knot_additivity(self):
        # closure of a^p b^q is T(2,p) # T(2,q) for odd p, q
        for p in range(1, 10, 2):
            for q in range(1, 10, 2):
                form = garside(BraidWord.from_runs([("a", p), ("b", q)]))
                assert upsilon(form) == -(p - 1) // 2 - (q - 1) // 2

    def test_quasialternating_eight_crossing_pair(self):
        assert upsilon(garside(parse("a^3 B a^-3 B"))) == 0
        assert upsilon(garside(parse("a^3 b A^2 b^2"))) == -1

    def test_murasugi_and_garside_formulas_agree(self, rng):
        for _ in range(300):
            w = random_word(rng, rng.randrange(0, 13))
            if not w.is_knot():
                continue
            gform, _ = garside_normal_form(w)
            mform, _ = murasugi_normal_form(w)
            assert upsilon(gform) == upsilon(mform), w.display()

    def test_mirror_antisymmetry(self, rng):
        for _ in range(200):
            w = random_word(rng, rng.randrange(0, 13))
            if not w.is_knot():
                continue
            assert upsilon(garside(w.mirror())) == -upsilon(garside(w))

    def test_links_rejected(self):
        with pytest.raises(NotAKnotError):
            upsilon(GarsideA(1, 2))
        with pytest.raises(NotAKnotError):
            upsilon(GarsideB(0, 2))


KNOWN_TORUS_SIGNATURES = {
    # classical values; the recursion sigma(T(3,q+6)) = sigma(T(3,q)) - 8
    # pins the whole family from the 8_19/10_124 values
    2: -2, 4: -6, 5: -8, 7: -8, 8: -10, 10: -14, 11: -16, 13: -16, 14: -18,
}


class TestSignature:
    def test_torus_family_against_classical_table(self):
        for q, sig in KNOWN_TORUS_SIGNATURES.items():
            assert signature(garside(torus_word(q))) == sig, q
            assert signature(garside(torus_word(q).mirror())) == -sig, q

    def test_alternating_trefoil(self):
        form, _ = murasugi_normal_form(parse("A b^3"))
        assert form == MurasugiGeneric(0, ((1, 3),))
        assert signature(form) == -2

    def test_eight_crossing_pair(self):
        assert signature(garside(parse("a^3 B a^-3 B"))) == 0
        assert signature(garside(parse("a^3 b A^2 b^2"))) == -2

    def test_twice_upsilon_on_generic_forms(self, rng):
        for _ in range(300):
            w = random_word(rng, rng.randrange(0, 13))
            if not w.is_knot():
                continue
            mform, _ = murasugi_normal_form(w)
            if isinstance(mform, MurasugiGeneric):
                assert signature(mform) == 2 * upsilon(mform)

    def test_upsilon_signature_gap_at_most_one(self, rng):
        for _ in range(300):
            w = random_word(rng, rng.randrange(0, 14))
            if not w.is_knot():
                continue
            form = garside(w)
            assert abs(upsilon(form) - signature(form) // 2) <= 1


class TestRasmussen:
    def test_eight_crossing_pair(self):
        s, src = rasmussen_s(murasugi_normal_form(parse("a^3 B a^-3 B"))[0])
        assert s == 0
        s, _ = rasmussen_s(murasugi_normal_form(parse("a^3 b A^2 b^2"))[0])
        assert s == -2

    def test_alternating_equals_signature(self, rng):
        for _ in range(200):
            w = random_word(rng, rng.randrange(0, 12))
            if not w.is_knot():
                continue
            mform, _ = murasugi_normal_form(w)
            if isinstance(mform, MurasugiGeneric) and mform.ell == 0:
                assert rasmussen_s(mform)[0] == signature(mform)

    def test_positive_extension_consistent_with_twist_formula(self, rng):
        # positive forms also have a Murasugi-side value; they must agree
        for _ in range(100):
            r = rng.randint(1, 3)
            pairs = tuple((rng.randint(2, 5), rng.randint(2, 5)) for _ in range(r))
            form = GarsideC(rng.randint(0, 2), pairs)
            w = realize(form)
            if not w.is_knot():
                continue
            mform, _ = murasugi_normal_form(w)
            s_pos = rasmussen_s(garside(w))
            s_twist = rasmussen_s(mform)
            assert s_pos is not None and s_twist is not None
            assert s_pos[0] == s_twist[0]

    def test_mirror_torus_has_no_formula(self):
        assert rasmussen_s(garside(torus_word(-4))) is None


class TestGenusTau:
    def test_positive_torus(self):
        assert genus_tau(garside(torus_word(4))) == (3, 3, 3)

    def test_granny(self):
        assert genus_tau(garside(parse("a^3 b^3"))) == (2, 2, 2)

    def test_alternating_tau_only(self):
        mform, _ = murasugi_normal_form(parse("A b^3"))
        assert genus_tau(mform) == (None, None, 1)

    def test_knot_test_and_genus_agree_with_realized_word(self):
        # both come from the form's tail; D^2 is pure and D has three crossings.
        # Every knot-only invariant rejects the link forms.
        shapes = (
            GarsideA(0, 3), GarsideB(0, 1), GarsideB(0, 2), GarsideB(0, 3),
            GarsideC(0, ((2, 3),)), GarsideC(0, ((3, 3), (2, 2))),
            GarsideD(0, (), 3), GarsideD(0, ((2, 2),), 3), MurasugiPower(0, -3),
            MurasugiHalfTwist(0), MurasugiTorus(0, "ab"), MurasugiTorus(0, "abab"),
            MurasugiGeneric(0, ((1, 2),)), MurasugiGeneric(0, ((2, 1), (1, 1))),
        )
        links = 0
        for shape in shapes:
            for ell in range(-3, 4):
                form = type(shape)(ell, *(getattr(shape, f) for f in shape._fields[1:]))
                word = realize(form)
                if not word.is_knot():
                    links += 1
                    for invariant in KNOT_ONLY_INVARIANTS:
                        with pytest.raises(NotAKnotError):
                            invariant(form)
                    continue
                gt = genus_tau(form)
                if gt is not None and gt[0] is not None:
                    assert gt[0] == (word.writhe() - 2) // 2
        assert links == 49  # 7 link shapes at 7 values of ell

    def test_upsilon_bounded_by_four_genus(self, rng):
        for _ in range(200):
            w = random_word(rng, rng.randrange(0, 12))
            if not w.is_knot():
                continue
            form = garside(w)
            gt = genus_tau(form)
            if gt is not None and gt[1] is not None:
                assert abs(upsilon(form)) <= gt[1]


class TestAlternatingDistances:
    def test_torus_exact(self):
        for q, expect in ((4, 1), (5, 1), (7, 2), (8, 2)):
            assert alternating_distances(garside(torus_word(q))) == IntInterval.point(expect)

    def test_granny_alternating(self):
        assert alternating_distances(garside(parse("a^3 b^3"))) == IntInterval.point(0)

    def test_eight_twenty_interval(self):
        dist = alternating_distances(garside(parse("a^3 B a^-3 B")))
        assert (dist.lo, dist.hi) == (0, 1)

    def test_positive_identity_alt_equals_genus_plus_upsilon(self, rng):
        for _ in range(150):
            r = rng.randint(1, 3)
            pairs = tuple((rng.randint(2, 5), rng.randint(2, 5)) for _ in range(r))
            form = GarsideC(rng.randint(0, 2), pairs)
            w = realize(form)
            if not w.is_knot():
                continue
            canon = garside(w)
            dist = alternating_distances(canon)
            g, _, _ = genus_tau(canon)
            assert dist == IntInterval.point(g + upsilon(canon))

    def test_intervals_well_formed(self, rng):
        for _ in range(200):
            w = random_word(rng, rng.randrange(0, 13))
            if not w.is_knot():
                continue
            dist = alternating_distances(garside(w))
            assert isinstance(dist, IntInterval) and dist.lo <= dist.hi


class TestMinimalSwitches:
    def test_examples(self):
        assert minimal_positive_switches(garside(torus_word(4))) == 2
        assert minimal_positive_switches(garside(parse("a^3 b^3"))) == 1
        # witness word for T(3,4) with two switch pairs
        assert garside(parse("a^3 b a^3 b")) == garside(torus_word(4))

    def test_torus_family(self):
        for ell in range(0, 3):
            form = GarsideB(ell, 1)
            if realize(form).is_knot():
                assert minimal_positive_switches(form) == ell + 1

    def test_equals_genus_plus_upsilon_plus_one(self, rng):
        for _ in range(100):
            r = rng.randint(1, 3)
            pairs = tuple((rng.randint(2, 5), rng.randint(2, 5)) for _ in range(r))
            form = GarsideC(rng.randint(0, 2), pairs)
            if not realize(form).is_knot():
                continue
            g, _, _ = genus_tau(form)
            assert minimal_positive_switches(form) == g + upsilon(form) + 1

    def test_absent_for_non_positive(self):
        assert minimal_positive_switches(garside(parse("a^3 B a^-3 B"))) is None


class TestQuasimorphisms:
    def test_fdtc_examples(self):
        assert fdtc(garside(delta_power(2))) == 1
        assert fdtc(garside(parse("aba"))) == Fraction(1, 2)
        assert fdtc(garside(parse("a^3 B a^-3 B"))) == -1
        assert fdtc(garside(parse("a^3"))) == 0
        assert fdtc(garside(torus_word(4))) == Fraction(4, 3)

    def test_homogenized_upsilon_examples(self):
        for ell in (-2, 0, 3):
            assert homogenized_upsilon(GarsideA(ell, 0)) == -2 * ell
        assert homogenized_upsilon(GarsideB(1, 1)) == Fraction(-8, 3)

    def test_homogenized_equals_upsilon_on_knot_classes(self, rng):
        for _ in range(200):
            w = random_word(rng, rng.randrange(0, 12))
            form = garside(w)
            if isinstance(form, (GarsideC, GarsideD)) and w.is_knot():
                assert homogenized_upsilon(form) == upsilon(form)

    def test_integer_upsilon_exhaustive(self):
        # the integer expression of each case against the quasimorphism (cases
        # C and D) and against the Murasugi side, on every knot up to length 7
        knots = 0
        for w in reduced_words(7):
            if not w.is_knot():
                continue
            knots += 1
            g, gcert = garside_normal_form(w)
            m, _ = murasugi_from_garside(g, gcert)
            if isinstance(g, (GarsideC, GarsideD)):
                assert upsilon(g) == homogenized_upsilon(g), w.display()
            assert upsilon(g) == upsilon(m), w.display()
        assert knots == 720

    def test_fdtc_identity_with_writhe(self, rng):
        for _ in range(300):
            w = random_word(rng, rng.randrange(0, 14))
            form = garside(w)
            assert fdtc(form) == homogenized_upsilon(form) + Fraction(
                realize(form).writhe(), 2
            )

    def test_homogeneity(self, rng):
        for _ in range(60):
            w = random_word(rng, rng.randrange(0, 9))
            base = fdtc(garside(w))
            for k in range(-3, 4):
                assert fdtc(garside(w**k)) == k * base

    def test_defect_at_most_one(self, rng):
        for _ in range(2000):
            u = random_word(rng, rng.randrange(0, 10))
            v = random_word(rng, rng.randrange(0, 10))
            defect = fdtc(garside(u * v)) - fdtc(garside(u)) - fdtc(garside(v))
            assert abs(defect) <= 1

    def test_mirror_antisymmetry(self, rng):
        for _ in range(150):
            w = random_word(rng, rng.randrange(0, 12))
            assert fdtc(garside(w.mirror())) == -fdtc(garside(w))


class TestDerivedConcordance:
    def test_examples(self):
        form = garside(torus_word(4))
        t, g4 = derived_concordance(upsilon(form), signature(form))
        assert (t, g4) == (4, 1)
        form = garside(parse("a^3 B a^-3 B"))
        assert derived_concordance(upsilon(form), signature(form)) == (0, 0)

    def test_generic_knots_have_zero_gap(self, rng):
        for _ in range(150):
            w = random_word(rng, rng.randrange(0, 12))
            if not w.is_knot():
                continue
            mform, _ = murasugi_normal_form(w)
            if isinstance(mform, MurasugiGeneric):
                _, g4 = derived_concordance(upsilon(mform), signature(mform))
                assert g4 == 0


class TestSlopeBound:
    def test_examples(self):
        assert upsilon_upper_bound_slope(garside(parse("a^3 b^3"))) == -2
        assert upsilon_upper_bound_slope(GarsideD(0, (), 3)) == -2
        assert upsilon_upper_bound_slope(GarsideC(1, ((3, 3),))) == -4

    def test_matches_upsilon_on_positive_knots(self, rng):
        for _ in range(100):
            form = GarsideC(
                rng.randint(0, 2),
                tuple((rng.randint(2, 5), rng.randint(2, 5)) for _ in range(rng.randint(1, 3))),
            )
            if not realize(form).is_knot():
                continue
            assert upsilon_upper_bound_slope(form) == upsilon(form)

    def test_absent_on_non_positive(self):
        assert upsilon_upper_bound_slope(garside(parse("a^3 B a^-3 B"))) is None


# The expressions each invariant had before every one of them read upsilon,
# kept as references for the expressions that replaced them.


def _ref_torus_family(form) -> tuple[int, int]:
    """(ell, k) with the closure +-T(3, 3*ell + k); k in {1, 2}."""
    if isinstance(form, GarsideB):
        k = 1 if form.p == 1 else 2
    else:
        k = 1 if form.variant == "ab" else 2
    return form.ell, k


def _ref_torus_upsilon(ell: int, k: int) -> int:
    if ell >= 0:
        return -2 * ell if k == 1 else -2 * ell - 1
    m = -ell - 1
    return 2 * m + 1 if k == 1 else 2 * m


def _ref_garside_total(form) -> int:
    total = sum(p + q for p, q in form.pairs)
    return total + form.p_r + 3 if isinstance(form, GarsideD) else total


def _ref_upsilon(form) -> int:
    if isinstance(form, MurasugiGeneric):
        diff = sum(p - q for p, q in form.pairs)
        assert diff % 2 == 0
        return diff // 2 - 2 * form.ell
    if isinstance(form, (GarsideB, MurasugiTorus)):
        return _ref_torus_upsilon(*_ref_torus_family(form))
    total = _ref_garside_total(form)
    assert total % 2 == 0
    return form.r - 2 * form.ell - total // 2


def _ref_signature(form) -> int:
    if isinstance(form, MurasugiGeneric):
        return sum(p - q for p, q in form.pairs) - 4 * form.ell
    if isinstance(form, (GarsideB, MurasugiTorus)):
        ell, k = _ref_torus_family(form)
        ups = _ref_torus_upsilon(ell, k)
        if ell > 0 and ell % 2 == 1:
            return 2 * ups - 2
        if ell < 0 and (-ell - 1) % 2 == 1:
            return 2 * ups + 2
        return 2 * ups
    return 2 * _ref_upsilon(form)


def _ref_generic_rasmussen_s(form) -> tuple[int, str]:
    diff = sum(p - q for p, q in form.pairs)
    if form.ell > 0:
        return diff - 6 * form.ell + 2, "quasipositive-twist"
    if form.ell < 0:
        return diff - 6 * form.ell - 2, "quasinegative-twist"
    return diff, "alternating"


def _ref_twist_interval(twist: int) -> IntInterval:
    return IntInterval.point(0) if twist == 0 else IntInterval(abs(twist) - 1, abs(twist))


def _ref_minimal_switches(form) -> int | None:
    if isinstance(form, (GarsideB, MurasugiTorus)) and form.ell >= 0:
        return form.ell + 1
    if isinstance(form, (GarsideC, GarsideD)) and form.ell >= 0:
        return form.r + form.ell
    return None


def _check_against_references(form) -> None:
    assert upsilon(form) == _ref_upsilon(form), form
    assert signature(form) == _ref_signature(form), form
    if isinstance(form, MurasugiGeneric):
        assert rasmussen_s(form) == _ref_generic_rasmussen_s(form), form
        if form.ell == 0:
            assert genus_tau(form) == (None, None, -_ref_signature(form) // 2), form
    if isinstance(form, (GarsideB, MurasugiTorus)):
        ell = form.ell
        expected = IntInterval.point(ell if ell >= 0 else -ell - 1)
        assert alternating_distances(form) == expected, form
    if isinstance(form, (GarsideC, GarsideD)):
        twice = 2 * form.r - 4 * form.ell - _ref_garside_total(form)
        assert homogenized_upsilon(form) == Fraction(twice, 2), form
        twist = form.ell + form.r
        expected = IntInterval.point(twist - 1) if form.ell >= 0 else _ref_twist_interval(twist)
        assert alternating_distances(form) == expected, form
    if isinstance(form, MurasugiGeneric):
        assert alternating_distances(form) == _ref_twist_interval(form.ell), form
    assert minimal_positive_switches(form) == _ref_minimal_switches(form), form


class TestAgainstReferenceExpressions:
    def test_both_forms_of_every_knot_up_to_length_8(self):
        knots = 0
        for w in reduced_words(8):
            if not w.is_knot():
                continue
            knots += 1
            gform, gcert = garside_normal_form(w)
            mform, _ = murasugi_from_garside(gform, gcert)
            _check_against_references(gform)
            _check_against_references(mform)
        assert knots == 6512

    def test_torus_families(self):
        # every one of these closes to a knot: upsilon raises on a link
        for ell in range(-40, 41):
            for form in (GarsideB(ell, 1), GarsideB(ell, 3),
                         MurasugiTorus(ell, "ab"), MurasugiTorus(ell, "abab")):
                _check_against_references(form)

    def test_random_c_d_and_generic_forms(self, rng):
        knots = 0
        for _ in range(600):
            ell = rng.randint(-20, 20)
            pairs = tuple((rng.randint(1, 7), rng.randint(1, 7)) for _ in range(rng.randint(1, 4)))
            big = tuple((p + 1, q + 1) for p, q in pairs)
            for form in (GarsideC(ell, big), GarsideD(ell, big[1:], big[0][0]),
                         MurasugiGeneric(ell, pairs)):
                if realize(form).is_knot():
                    knots += 1
                    _check_against_references(form)
        assert knots > 400


class TestReport:
    def test_knot_report(self):
        r = build_report(parse("abababab"))
        assert (r.upsilon, r.signature, r.rasmussen_s) == (-2, -6, -6)
        assert (r.genus3, r.genus4, r.tau) == (3, 3, 3)
        assert r.minimal_r == 2 and r.ballinger_t == 4
        assert r.nonorientable_g4_lower == 1
        assert r.fdtc == Fraction(4, 3)
        assert r.flags["upsilon"] == "exact"

    def test_link_report(self):
        r = build_report(parse("a^3"))
        assert r.components == 2 and not r.is_knot
        assert r.upsilon is None and r.signature is None
        assert r.fdtc == 0
        assert r.flags["upsilon"] == "absent"

    def test_link_report_calls_no_knot_invariant(self, monkeypatch):
        def refused(*args):
            raise AssertionError(f"a knot invariant was called on {args}")

        for name in ("upsilon", "signature", "rasmussen_s", "genus_tau", "alternating_distances",
                     "minimal_positive_switches", "derived_concordance"):
            monkeypatch.setattr(braid3.invariants, name, refused)
        links = 0
        # reduced_words starts with the identity, which closes to three unknots
        for w in (*reduced_words(4), parse("D"), parse("D^-3")):
            if w.is_knot():
                continue
            links += 1
            r = build_report(w)
            assert not r.is_knot and r.components > 1
            assert (r.upsilon, r.signature, r.rasmussen_s, r.genus3, r.genus4, r.tau, r.alt,
                    r.minimal_r, r.ballinger_t, r.nonorientable_g4_lower) == (None,) * 10
            assert r.flags is braid3.invariants._LINK_FLAGS
        assert links == 75

    def test_one_knot_decision_per_form(self, monkeypatch):
        # realize builds a form's word from tail_runs; count the builds, with
        # the function that asked for the word
        built = []
        tail_runs = braid3.normal_form.tail_runs

        def counted_tail_runs(form):
            built.append((form, sys._getframe(2).f_code.co_name))
            return tail_runs(form)

        # BraidWord.is_knot is the one knot decision; count its calls
        decided = []
        is_knot = BraidWord.is_knot

        def counted_is_knot(word):
            decided.append(word)
            return is_knot(word)

        monkeypatch.setattr(braid3.normal_form, "tail_runs", counted_tail_runs)
        monkeypatch.setattr(BraidWord, "is_knot", counted_is_knot)
        r = build_report(parse("a^2 b^2 a^3 b^3"))
        assert r.is_knot
        # each form's word is built once, for its certificate, and is that
        # certificate's target; the knot decision reads that same word once
        assert built == [(r.garside, "_certified"), (r.murasugi, "_certified")]
        words = [r.garside_certificate.target, r.murasugi_certificate.target]
        assert [realize(r.garside), realize(r.murasugi)] == words
        assert all(realize(f) is w for f, w in zip((r.garside, r.murasugi), words))
        assert len(decided) == 2 and all(d is w for d, w in zip(decided, words))
        for form in (r.garside, r.murasugi):
            for invariant in KNOT_ONLY_INVARIANTS:
                invariant(form)
        assert len(decided) == 2 and len(built) == 2
        link = GarsideA(0, 2)
        for _ in range(2):
            with pytest.raises(NotAKnotError):
                upsilon(link)
        assert len(decided) == 3 and built[2:] == [(link, "_require_knot")]
        # the genus of a positive form and the display of either form read the
        # word already built; neither builds it again
        del built[:]
        assert genus_tau(r.garside) == (r.genus3, r.genus4, r.tau) == (4, 4, 4)
        assert rasmussen_s(r.garside) == (-8, "positive-braid")
        assert [form_display(f) for f in (r.garside, r.murasugi)] == [
            "a^3 b^2 a^2 b^3", "D^4 A b A^3 b",
        ]
        assert built == [] and len(decided) == 3
        # the memos kept on a form leave its equality and hash alone
        fresh = garside(parse("a^2 b^2 a^3 b^3"))
        assert r.garside == fresh and hash(r.garside) == hash(fresh)

    def test_flags_follow_the_per_field_rule(self):
        link_flags = []
        for w in reduced_words(6):
            r = build_report(w)
            s_pair = rasmussen_s(r.murasugi) if r.is_knot else None
            assert (s_pair[0] if s_pair else None) == r.rasmussen_s
            expected = [(name, _flag(value)) for name, value in (
                ("fdtc", r.fdtc), ("homogenized_upsilon", r.homogenized_upsilon),
                ("upsilon", r.upsilon), ("signature", r.signature), ("s", s_pair),
                ("genus3", r.genus3), ("genus4", r.genus4), ("tau", r.tau),
                ("alt", r.alt), ("dalt", r.alt), ("turaev", r.alt),
                ("minimal_r", r.minimal_r),
            )]
            # the order is the order the JSON prints
            assert list(r.flags.items()) == expected, w
            if not r.is_knot:
                link_flags.append(r.flags)
        # every link report holds one flags object, and it stays read-only
        shared = link_flags[0]
        assert len(link_flags) > 700 and all(f is shared for f in link_flags)
        for mutate in (
            lambda f: f.__setitem__("upsilon", "exact"),
            lambda f: f.update(upsilon="exact"),
            lambda f: f.pop("upsilon"),
            lambda f: f.clear(),
        ):
            with pytest.raises(TypeError):
                mutate(shared)
        assert shared["upsilon"] == "absent" and len(shared) == 12

    def test_upsilon_cross_check_bites(self, monkeypatch):
        # a Murasugi-side upsilon one off the Garside side stops the report
        real = braid3.invariants.upsilon

        def skewed(form):
            return real(form) + isinstance(form, (MurasugiGeneric, MurasugiTorus))

        monkeypatch.setattr(braid3.invariants, "upsilon", skewed)
        for word in ("a^2 b^2 a^3 b^3", "abababab", "a^3 B a^-3 B"):
            with pytest.raises(InternalInconsistencyError, match="upsilon disagreement"):
                build_report(parse(word))

    def test_unknot_closure(self):
        r = build_report(parse("A b"))
        assert (r.upsilon, r.signature) == (0, 0)
