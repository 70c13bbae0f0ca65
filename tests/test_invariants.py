
import random
import re
from fractions import Fraction
from functools import cached_property

import pytest

import braid3.invariants
import braid3.normal_form
from braid3.cli import report_json
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

from conftest import KNOWN_TORUS_SIGNATURES, random_word, reduced_words

#: the knot invariants that read a Murasugi form and refuse a Garside one
MURASUGI_ONLY_INVARIANTS = (
    signature, rasmussen_s, genus_tau, alternating_distances, minimal_positive_switches,
    upsilon_upper_bound_slope,
)

#: the invariants defined on knot closures only; upsilon reads either family
KNOT_ONLY_INVARIANTS = (upsilon, *MURASUGI_ONLY_INVARIANTS)

GARSIDE_SHAPES = (GarsideA, GarsideB, GarsideC, GarsideD)


def _flag(value) -> str:
    """The flag of one report field, read off its value: the rule the
    flags of a report's JSON are checked against."""
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


def murasugi(w) -> object:
    return murasugi_normal_form(w)[0]


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


class TestTheoremChecks:
    # on a knot form each check holds; with the knot test passed over, a
    # link form reaches it and it raises rather than return a wrong value
    def test_odd_half_sum(self, monkeypatch):
        monkeypatch.setattr(braid3.invariants, "_require_knot", lambda form: None)
        odd = re.escape("upsilon has the odd half-sum -1/2")
        with pytest.raises(InternalInconsistencyError, match=odd):
            upsilon(MurasugiGeneric(0, ((1, 2),)))

    def test_odd_writhe(self, monkeypatch):
        # a positive Murasugi knot form whose word reports an odd writhe
        monkeypatch.setattr(BraidWord, "writhe", lambda word: 3)
        with pytest.raises(InternalInconsistencyError, match="odd writhe on a knot closure"):
            genus_tau(MurasugiTorus(0, "ab"))


class TestSignature:
    def test_torus_family_against_classical_table(self):
        for q, sig in KNOWN_TORUS_SIGNATURES.items():
            assert signature(murasugi(torus_word(q))) == sig, q
            assert signature(murasugi(torus_word(q).mirror())) == -sig, q

    def test_alternating_trefoil(self):
        form, _ = murasugi_normal_form(parse("A b^3"))
        assert form == MurasugiGeneric(0, ((1, 3),))
        assert signature(form) == -2

    def test_eight_crossing_pair(self):
        assert signature(murasugi(parse("a^3 B a^-3 B"))) == 0
        assert signature(murasugi(parse("a^3 b A^2 b^2"))) == -2

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
            form = murasugi(w)
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
        # a positive generic form takes s from the twist formula; it must be
        # the positive-braid value -2g
        for _ in range(100):
            r = rng.randint(1, 3)
            pairs = tuple((rng.randint(2, 5), rng.randint(2, 5)) for _ in range(r))
            form = GarsideC(rng.randint(0, 2), pairs)
            w = realize(form)
            if not w.is_knot():
                continue
            mform, _ = murasugi_normal_form(w)
            s_twist = rasmussen_s(mform)
            assert s_twist is not None
            assert s_twist[0] == -2 * genus_tau(mform)[0]

    def test_mirror_torus_has_no_formula(self):
        assert rasmussen_s(murasugi(torus_word(-4))) is None


class TestGenusTau:
    def test_positive_torus(self):
        assert genus_tau(murasugi(torus_word(4))) == (3, 3, 3)

    def test_granny(self):
        assert genus_tau(murasugi(parse("a^3 b^3"))) == (2, 2, 2)

    def test_alternating_tau_only(self):
        mform, _ = murasugi_normal_form(parse("A b^3"))
        assert genus_tau(mform) == (None, None, 1)

    def test_knot_test_and_genus_agree_with_realized_word(self):
        # both come from the form's tail; D^2 is pure and D has three crossings.
        # Every knot-only invariant rejects the link forms, and every one but
        # upsilon rejects every Garside form, link or knot, by its family first
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
                garside_shape = isinstance(form, GARSIDE_SHAPES)
                if garside_shape:
                    for invariant in MURASUGI_ONLY_INVARIANTS:
                        with pytest.raises(TypeError, match=re.escape(repr(form))):
                            invariant(form)
                if not word.is_knot():
                    links += 1
                    for invariant in (upsilon,) if garside_shape else KNOT_ONLY_INVARIANTS:
                        with pytest.raises(NotAKnotError):
                            invariant(form)
                    continue
                if garside_shape:
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
            form = murasugi(w)
            gt = genus_tau(form)
            if gt is not None and gt[1] is not None:
                assert abs(upsilon(form)) <= gt[1]


class TestAlternatingDistances:
    def test_torus_exact(self):
        for q, expect in ((4, 1), (5, 1), (7, 2), (8, 2)):
            assert alternating_distances(murasugi(torus_word(q))) == IntInterval.point(expect)

    def test_granny_alternating(self):
        assert alternating_distances(murasugi(parse("a^3 b^3"))) == IntInterval.point(0)

    def test_eight_twenty_interval(self):
        dist = alternating_distances(murasugi(parse("a^3 B a^-3 B")))
        assert (dist.lo, dist.hi) == (0, 1)

    def test_positive_identity_alt_equals_genus_plus_upsilon(self, rng):
        for _ in range(150):
            r = rng.randint(1, 3)
            pairs = tuple((rng.randint(2, 5), rng.randint(2, 5)) for _ in range(r))
            form = GarsideC(rng.randint(0, 2), pairs)
            w = realize(form)
            if not w.is_knot():
                continue
            canon = murasugi(w)
            dist = alternating_distances(canon)
            g, _, _ = genus_tau(canon)
            assert dist == IntInterval.point(g + upsilon(canon))

    def test_intervals_well_formed(self, rng):
        for _ in range(200):
            w = random_word(rng, rng.randrange(0, 13))
            if not w.is_knot():
                continue
            dist = alternating_distances(murasugi(w))
            assert isinstance(dist, IntInterval) and dist.lo <= dist.hi


class TestMinimalSwitches:
    def test_examples(self):
        assert minimal_positive_switches(murasugi(torus_word(4))) == 2
        assert minimal_positive_switches(murasugi(parse("a^3 b^3"))) == 1
        # witness word for T(3,4) with two switch pairs
        assert garside(parse("a^3 b a^3 b")) == garside(torus_word(4))

    def test_torus_family(self):
        for ell in range(0, 3):
            form = MurasugiTorus(ell, "ab")
            if realize(form).is_knot():
                assert minimal_positive_switches(form) == ell + 1

    def test_equals_genus_plus_upsilon_plus_one(self, rng):
        for _ in range(100):
            r = rng.randint(1, 3)
            pairs = tuple((rng.randint(2, 5), rng.randint(2, 5)) for _ in range(r))
            form = GarsideC(rng.randint(0, 2), pairs)
            if not realize(form).is_knot():
                continue
            form = murasugi(realize(form))
            g, _, _ = genus_tau(form)
            assert minimal_positive_switches(form) == g + upsilon(form) + 1

    def test_absent_for_non_positive(self):
        assert minimal_positive_switches(murasugi(parse("a^3 B a^-3 B"))) is None


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

    @pytest.mark.parametrize("form", [
        MurasugiPower(0, 3), MurasugiHalfTwist(1), MurasugiTorus(0, "ab"), MurasugiGeneric(0, ((1, 2),)),
    ], ids=["power", "half-twist", "torus", "generic"])
    def test_murasugi_forms_rejected(self, form):
        for quasimorphism in (fdtc, homogenized_upsilon):
            with pytest.raises(TypeError, match=re.escape(repr(form))):
                quasimorphism(form)

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
        form = murasugi(torus_word(4))
        t, g4 = derived_concordance(upsilon(form), signature(form))
        assert (t, g4) == (4, 1)
        form = murasugi(parse("a^3 B a^-3 B"))
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
        assert upsilon_upper_bound_slope(murasugi(parse("a^3 b^3"))) == -2
        assert upsilon_upper_bound_slope(murasugi(realize(GarsideD(0, (), 3)))) == -2
        assert upsilon_upper_bound_slope(murasugi(realize(GarsideC(1, ((3, 3),))))) == -4

    def test_matches_upsilon_on_positive_knots(self, rng):
        for _ in range(100):
            form = GarsideC(
                rng.randint(0, 2),
                tuple((rng.randint(2, 5), rng.randint(2, 5)) for _ in range(rng.randint(1, 3))),
            )
            if not realize(form).is_knot():
                continue
            form = murasugi(realize(form))
            assert upsilon_upper_bound_slope(form) == upsilon(form)

    def test_absent_on_non_positive(self):
        assert upsilon_upper_bound_slope(murasugi(parse("a^3 B a^-3 B"))) is None


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


def _check_against_references(gform, mform) -> None:
    """Both forms of one knot: upsilon on each, and the Murasugi form's
    knot invariants against the references of the Garside form, which read
    its positivity off l >= 0 and its twisting degree off l + r."""
    for form in (gform, mform):
        assert upsilon(form) == _ref_upsilon(form), form
    assert signature(mform) == _ref_signature(mform) == _ref_signature(gform), mform
    if isinstance(mform, MurasugiGeneric):
        assert rasmussen_s(mform) == _ref_generic_rasmussen_s(mform), mform
        if mform.ell == 0:
            assert genus_tau(mform) == (None, None, -_ref_signature(mform) // 2), mform
    if isinstance(gform, GarsideB):
        ell = gform.ell
        expected = IntInterval.point(ell if ell >= 0 else -ell - 1)
        assert alternating_distances(mform) == expected, mform
    if isinstance(gform, (GarsideC, GarsideD)):
        twice = 2 * gform.r - 4 * gform.ell - _ref_garside_total(gform)
        assert homogenized_upsilon(gform) == Fraction(twice, 2), gform
        twist = gform.ell + gform.r
        expected = IntInterval.point(twist - 1) if gform.ell >= 0 else _ref_twist_interval(twist)
        assert alternating_distances(mform) == expected, mform
    assert minimal_positive_switches(mform) == _ref_minimal_switches(gform), mform


def _both_forms(word) -> tuple:
    gform, gcert = garside_normal_form(word)
    return gform, murasugi_from_garside(gform, gcert)[0]


class TestAgainstReferenceExpressions:
    def test_both_forms_of_every_knot_up_to_length_8(self):
        knots = 0
        for w in reduced_words(8):
            if not w.is_knot():
                continue
            knots += 1
            _check_against_references(*_both_forms(w))
        assert knots == 6512

    def test_torus_families(self):
        # every one of these closes to a knot: upsilon raises on a link
        for ell in range(-40, 41):
            for p, variant in ((1, "ab"), (3, "abab")):
                gform, mform = GarsideB(ell, p), MurasugiTorus(ell, variant)
                assert _both_forms(realize(gform)) == (gform, mform)
                _check_against_references(gform, mform)

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
                    _check_against_references(*_both_forms(realize(form)))
        assert knots > 400


class TestReport:
    def test_knot_report(self):
        r = build_report(parse("abababab"))
        assert (r.upsilon, r.signature, r.rasmussen_s) == (-2, -6, -6)
        assert (r.genus3, r.genus4, r.tau) == (3, 3, 3)
        assert r.minimal_r == 2 and r.ballinger_t == 4
        assert r.nonorientable_g4_lower == 1
        assert r.fdtc == Fraction(4, 3)
        assert report_json(r)["flags"]["upsilon"] == "exact"

    def test_link_report(self):
        r = build_report(parse("a^3"))
        assert r.components == 2 and not r.is_knot
        assert r.upsilon is None and r.signature is None
        assert r.fdtc == 0
        assert report_json(r)["flags"]["upsilon"] == "absent"

    def test_link_report_calls_no_knot_invariant(self, monkeypatch):
        def refused(*args):
            raise AssertionError(f"a knot invariant was called on {args}")

        for name in ("upsilon", "signature", "rasmussen_s", "genus_tau", "alternating_distances",
                     "minimal_positive_switches", "derived_concordance"):
            monkeypatch.setattr(braid3.invariants, name, refused)
        links = 0
        # only the two quasimorphisms apply to a link
        link_flags = {"fdtc": "exact", "homogenized_upsilon": "exact", **dict.fromkeys((
            "upsilon", "signature", "s", "genus3", "genus4", "tau", "alt", "dalt", "turaev",
            "minimal_r"), "absent")}
        # reduced_words starts with the identity, which closes to three unknots
        for w in (*reduced_words(4), parse("D"), parse("D^-3")):
            if w.is_knot():
                continue
            links += 1
            r = build_report(w)
            assert not r.is_knot and r.components > 1
            assert (r.upsilon, r.signature, r.rasmussen_s, r.genus3, r.genus4, r.tau, r.alt,
                    r.minimal_r, r.ballinger_t, r.nonorientable_g4_lower) == (None,) * 10
            assert r.s_provenance is None and report_json(r)["flags"] == link_flags
        assert links == 75

    def test_source_word_folded_once(self, monkeypatch):
        # the Garside check folds the word; the Murasugi conversion is checked
        # on the Garside target, and the composed certificate is not refolded
        sources = []
        conjugates_to = braid3.normal_form.conjugates_to

        def recording(conjugator, source, target):
            sources.append(source)
            return conjugates_to(conjugator, source, target)

        monkeypatch.setattr(braid3.normal_form, "conjugates_to", recording)
        w = parse("a^3 B a^-3 B a^2 b^5")
        r = build_report(w)
        assert len(sources) == 2
        assert [s is w for s in sources] == [True, False]
        assert sources[1] is r.garside_certificate.target
        assert r.murasugi_certificate.source is w

    def test_one_knot_decision_per_form(self, monkeypatch):
        # a word computes its permutation, the one knot decision, on first
        # use and keeps it; count the computations, with the word computed
        computed = []
        permutation = BraidWord._permutation.func

        def counted_permutation(word):
            computed.append(word)
            return permutation(word)

        counting = cached_property(counted_permutation)
        counting.__set_name__(BraidWord, "_permutation")
        monkeypatch.setattr(BraidWord, "_permutation", counting)
        w = parse("a^2 b^2 a^3 b^3")
        r = build_report(w)
        assert r.is_knot
        # each form is made with its word, which is its certificate's target;
        # the report reads its components off the Garside word, and each form's
        # knot test computes once; the input word's permutation is never computed
        words = [r.garside_certificate.target, r.murasugi_certificate.target]
        assert all(realize(f) is t for f, t in zip((r.garside, r.murasugi), words))
        assert len(computed) == 2 and all(c is x for c, x in zip(computed, words))
        assert not any(c is w for c in computed)
        upsilon(r.garside)
        for invariant in KNOT_ONLY_INVARIANTS:
            invariant(r.murasugi)
        assert len(computed) == 2
        link = GarsideA(0, 2)
        for _ in range(2):
            with pytest.raises(NotAKnotError):
                upsilon(link)
        assert len(computed) == 3 and computed[2] is realize(link)
        # the genus of a positive form and the display of either form read the
        # word the form was made with
        assert genus_tau(r.murasugi) == (r.genus3, r.genus4, r.tau) == (4, 4, 4)
        assert rasmussen_s(r.murasugi) == (-8, "quasipositive-twist")
        assert [form_display(f) for f in (r.garside, r.murasugi)] == [
            "a^3 b^2 a^2 b^3", "D^4 A b A^3 b",
        ]
        assert len(computed) == 3
        assert all(realize(f) is t for f, t in zip((r.garside, r.murasugi), words))
        # the word a form is made with leaves its equality and hash alone
        fresh = garside(parse("a^2 b^2 a^3 b^3"))
        assert r.garside == fresh and hash(r.garside) == hash(fresh)

    def test_upsilon_is_evaluated_once_per_form(self, monkeypatch):
        # the cross-check's two calls, Garside form first; every other field
        # is read off their value, so no public invariant runs upsilon again
        calls = []
        real = braid3.invariants.upsilon

        def recorded(form):
            calls.append(form)
            return real(form)

        monkeypatch.setattr(braid3.invariants, "upsilon", recorded)
        knots = 0
        for w in reduced_words(8):
            if not w.is_knot():
                continue
            knots += 1
            del calls[:]
            r = build_report(w)
            assert len(calls) == 2 and calls[0] is r.garside and calls[1] is r.murasugi, w
        assert knots == 6512

    def test_report_fields_are_the_public_functions(self):
        # the report reads every knot field off its Murasugi form, and each
        # public knot invariant of that form is one of those fields
        for w in reduced_words(8):
            if not w.is_knot():
                continue
            r = build_report(w)
            m = r.murasugi
            sig = signature(m)
            assert r.upsilon == upsilon(m) == upsilon(r.garside), w
            assert r.signature == sig, w
            assert (r.rasmussen_s, r.s_provenance) == (rasmussen_s(m) or (None, None)), w
            assert (r.genus3, r.genus4, r.tau) == (genus_tau(m) or (None, None, None)), w
            assert r.alt == alternating_distances(m), w
            assert r.minimal_r == minimal_positive_switches(m), w
            slope = upsilon_upper_bound_slope(m)
            assert slope == (None if r.genus3 is None else r.upsilon), w
            assert (r.ballinger_t, r.nonorientable_g4_lower) == derived_concordance(
                upsilon(m), sig), w

    def test_components_are_read_on_the_garside_word(self):
        # conjugate braids have conjugate permutations, so the Garside word's
        # count is the input word's
        for w in [*reduced_words(6), parse("D"), parse("D^-3")]:
            assert build_report(w).components == w.closure_components(), w

    def test_a_form_is_not_written_after_construction(self):
        # every form class, knots and links
        forms = [
            GarsideA(0, 2), GarsideB(1, 1), GarsideB(0, 2), GarsideC(0, ((3, 2), (2, 3))),
            GarsideD(0, ((2, 2),), 2), GarsideD(-1, ((3, 2),), 2), MurasugiPower(1, -3),
            MurasugiHalfTwist(-1), MurasugiTorus(-2, "abab"), MurasugiTorus(1, "ab"),
            MurasugiGeneric(1, ((1, 2), (3, 1))), MurasugiGeneric(0, ((1, 1),)),
        ]
        garside_only = (fdtc, homogenized_upsilon)
        for form in forms:
            made = {*form._fields, "_word"}
            assert set(vars(form)) == made, form
            word = realize(form)
            garside_shape = isinstance(form, GARSIDE_SHAPES)
            for invariant in (upsilon, *garside_only) if garside_shape else KNOT_ONLY_INVARIANTS:
                try:
                    invariant(form)
                except NotAKnotError:
                    assert not word.is_knot()
            form_display(form)
            assert realize(form) is word and set(vars(form)) == made, form

    def test_flags_follow_the_per_field_rule(self):
        seen = set()
        for w in reduced_words(6):
            r = build_report(w)
            s_pair = rasmussen_s(r.murasugi) if r.is_knot else None
            assert (s_pair[0] if s_pair else None) == r.rasmussen_s
            assert r.s_provenance == (s_pair[1] if s_pair else None)
            expected = [(name, _flag(value)) for name, value in (
                ("fdtc", r.fdtc), ("homogenized_upsilon", r.homogenized_upsilon),
                ("upsilon", r.upsilon), ("signature", r.signature), ("s", s_pair),
                ("genus3", r.genus3), ("genus4", r.genus4), ("tau", r.tau),
                ("alt", r.alt), ("dalt", r.alt), ("turaev", r.alt),
                ("minimal_r", r.minimal_r),
            )]
            # the order is the order the JSON prints
            assert list(report_json(r)["flags"].items()) == expected, w
            seen.update(flag for _, flag in expected)
        # every branch of the rule is taken
        assert seen == {"exact", "interval", "absent", "exact (positive-braid)",
                        "exact (alternating)", "exact (quasipositive-twist)",
                        "exact (quasinegative-twist)"}

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
