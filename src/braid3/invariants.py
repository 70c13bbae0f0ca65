"""
Closed-form knot invariants of 3-braid closures, keyed off normal forms.

Every formula here consumes a normal form (module normal_form) and
produces exact integers or rationals: fdtc and homogenized upsilon read
a Garside form, the knot invariants a Murasugi form, and upsilon either,
for the cross-check between the two.  Values are exact
unless explicitly an interval; absence (None) means no closed form applies
to the form at hand, which is information, not an error.

Sign conventions, fixed across the package:
  * signature: sigma(T(3,2)) = -2 (positive torus knots are negative);
  * upsilon: upsilon(T(2,3)) = -1, and upsilon(-K) = -upsilon(K);
  * Rasmussen s is reported with s = sigma = 2*upsilon on quasialternating
    closures (so s(T(2,3)) = -2 here); this is the orientation convention
    pinned by the slice and quasialternating 8-crossing examples in the
    acceptance suite, and it is the mirror of the other common convention.
"""

from __future__ import annotations

from fractions import Fraction

from .normal_form import (
    ConjugacyCertificate,
    GarsideA,
    GarsideB,
    GarsideC,
    GarsideD,
    GarsideForm,
    InternalInconsistencyError,
    MurasugiForm,
    MurasugiGeneric,
    MurasugiTorus,
    garside_normal_form,
    murasugi_from_garside,
    realize,
)
from .words import BraidWord, Value


class NotAKnotError(ValueError):
    """The closure of the given braid is a link, not a knot."""


class IntInterval(Value):
    """Integer interval [lo, hi]; exact when the endpoints agree."""

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise ValueError("empty interval")
        self.__dict__.update(lo=lo, hi=hi)

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @staticmethod
    def point(value: int) -> IntInterval:
        return IntInterval(value, value)


def _require_knot(form: GarsideForm | MurasugiForm) -> None:
    # this rejects cases A and power, the half twist and case B with p = 2, so the
    # knot invariants below see only B, C, D, torus and generic forms.  The form's
    # word caches its permutation, so the test is made once per form
    if not realize(form).is_knot():
        raise NotAKnotError(f"closure of {form} is not a knot")


def _halved(total: int) -> int:
    # each sum halved below is even on a knot closure
    if total % 2:
        raise InternalInconsistencyError(f"upsilon has the odd half-sum {total}/2")
    return total // 2


def _twice_garside_upsilon(form: GarsideC | GarsideD) -> int:
    """2r - 4l - Sum(p + q), less p_r + 3 for case D: twice upsilon on C and D."""
    twice = 2 * form.r - 4 * form.ell - sum(p + q for p, q in form.pairs)
    return twice - form.p_r - 3 if isinstance(form, GarsideD) else twice


def _torus(form: GarsideForm | MurasugiForm) -> tuple[int, int, int] | None:
    """(m, j, sign) with the closure sign * T(3, 3m + j), m >= 0 and j in
    {1, 2}, on a case B or torus knot form; None on every other form."""
    # knot forms only: case B with p = 2 is the half-twist class, a link
    if isinstance(form, GarsideB):
        k = 1 if form.p == 1 else 2
    elif isinstance(form, MurasugiTorus):
        k = 1 if form.variant == "ab" else 2
    else:
        return None
    if form.ell >= 0:
        return form.ell, k, 1
    # for ell < 0 the closure is the mirror of the complementary family
    return -form.ell - 1, 3 - k, -1


def upsilon(form: GarsideForm | MurasugiForm) -> int:
    """The concordance invariant upsilon of the knot closure."""
    _require_knot(form)
    if isinstance(form, MurasugiGeneric):
        return _halved(sum(p - q for p, q in form.pairs)) - 2 * form.ell
    if isinstance(form, (GarsideC, GarsideD)):
        return _halved(_twice_garside_upsilon(form))
    # upsilon(T(3, 3m + 1)) = -2m, upsilon(T(3, 3m + 2)) = -2m - 1
    m, j, sign = _torus(form)
    return -sign * (2 * m + j - 1)


def _knot_fields(form: MurasugiForm) -> dict:
    """Every knot field of InvariantReport, by name, on a Murasugi knot
    form.  Each is read off three facts of the form: its upsilon, its torus
    parameters and its positive genus (writhe - 2)/2, None where it does
    not apply.  A generic form is positive when 2l >= Sum p: the Garside
    form's l >= 0 carried through the conversion, as l' = l + r and Sum p
    is 2r on case C and 2r - 1 on case D."""
    if not isinstance(form, MurasugiForm):
        raise TypeError(f"knot invariants expect a Murasugi form, got {form!r}")
    ups, torus = upsilon(form), _torus(form)
    generic = isinstance(form, MurasugiGeneric)
    genus = None
    if form.ell >= 0 and (not generic or 2 * form.ell >= sum(p for p, _ in form.pairs)):
        # slice-Bennequin on a positive braid closure
        wr = realize(form).writhe()
        if wr % 2:
            raise InternalInconsistencyError("odd writhe on a knot closure")
        genus = (wr - 2) // 2
    sig = 2 * ups if torus is None else 2 * ups - 2 * torus[2] * (torus[0] % 2)
    s_val = provenance = None
    if generic:
        s_val, provenance = 2 * ups - 2 * form.ell, "alternating"
        if form.ell > 0:
            s_val, provenance = s_val + 2, "quasipositive-twist"
        elif form.ell < 0:
            s_val, provenance = s_val - 2, "quasinegative-twist"
    elif genus is not None:
        s_val, provenance = -2 * genus, "positive-braid"
    if genus is not None:
        alt = IntInterval.point(genus + ups)
    elif torus is not None:
        alt = IntInterval.point(torus[0])
    else:
        alt = IntInterval(max(abs(form.ell) - 1, 0), abs(form.ell))
    t_val, gamma4 = derived_concordance(ups, sig)
    return dict(
        upsilon=ups, signature=sig, rasmussen_s=s_val, s_provenance=provenance,
        genus3=genus, genus4=genus, tau=-ups if generic and form.ell == 0 else genus,
        alt=alt, minimal_r=None if genus is None else alt.lo + 1,
        ballinger_t=t_val, nonorientable_g4_lower=gamma4,
    )


# Each public knot invariant below is one field of _knot_fields: it takes a
# Murasugi form and raises TypeError on a Garside form.


def signature(form: MurasugiForm) -> int:
    """Classical knot signature of the closure, sigma(T(3,2)) = -2.

    Read off upsilon.  Upsilon is sigma/2 on alternating knots
    (Ozsvath-Stipsicz-Szabo 2017).  That sigma = 2 upsilon on the other
    non-torus forms is braid3's own formula, which the tests check against
    an independent Seifert-matrix signature.  On the torus knots T(3, 3m + j)
    with m odd, sigma is 2 further from 0.
    """
    return _knot_fields(form)["signature"]


def rasmussen_s(form: MurasugiForm) -> tuple[int, str] | None:
    """Rasmussen invariant of the closure, or None when no formula applies.

    Returns (value, provenance); provenance 'positive-braid' marks the
    extension s = -2g beyond the Murasugi-generic and alternating cases.
    """
    fields = _knot_fields(form)
    s_val = fields["rasmussen_s"]
    return None if s_val is None else (s_val, fields["s_provenance"])


def genus_tau(form: MurasugiForm) -> tuple[int | None, int | None, int] | None:
    """(3-genus, 4-genus, tau) where a closed form exists.

    Positive braid closures get the full slice-Bennequin triple; an
    alternating closure (generic form with no twisting) determines tau
    alone.  None otherwise.
    """
    fields = _knot_fields(form)
    return None if fields["tau"] is None else (fields["genus3"], fields["genus4"], fields["tau"])


def alternating_distances(form: MurasugiForm) -> IntInterval:
    """Alternation number, dealternating number and Turaev genus.

    All three lie in the one interval returned: g + upsilon on positive
    braid closures, m on a mirrored torus closure -T(3, 3m + j), and
    otherwise the two-point interval of the twisting degree |l|.
    """
    return _knot_fields(form)["alt"]


def minimal_positive_switches(form: MurasugiForm) -> int | None:
    """Minimal r so the closure is that of a^p1 b^q1 ... a^pr b^qr, all
    exponents positive: g + upsilon + 1 on positive braid closures, None
    on every other closure."""
    return _knot_fields(form)["minimal_r"]


def fdtc(form: GarsideForm) -> Fraction:
    """Fractional Dehn twist coefficient; defined for every braid."""
    if isinstance(form, GarsideA):
        return Fraction(form.ell)
    if isinstance(form, GarsideB):
        return Fraction(form.p + 1 + 6 * form.ell, 6)
    if isinstance(form, (GarsideC, GarsideD)):
        return Fraction(form.r + form.ell)
    raise TypeError(f"fdtc expects a Garside form, got {form!r}")


def homogenized_upsilon(form: GarsideForm) -> Fraction:
    """Homogenized upsilon quasimorphism, exact rational."""
    if isinstance(form, GarsideA):
        return Fraction(-form.p - 4 * form.ell, 2)
    if isinstance(form, GarsideB):
        return Fraction(-form.p - 1 - 6 * form.ell, 3)
    if isinstance(form, (GarsideC, GarsideD)):
        return Fraction(_twice_garside_upsilon(form), 2)
    raise TypeError(f"homogenized_upsilon expects a Garside form, got {form!r}")


def derived_concordance(ups: int, sig: int) -> tuple[int, int]:
    """(Ballinger t, lower bound for the nonorientable 4-genus)."""
    return -2 * ups, abs(ups - sig // 2)


def upsilon_upper_bound_slope(form: MurasugiForm) -> Fraction | None:
    """Fraction(upsilon) on positive braid closures, where the cobordism
    slope bound on upsilon is tight; None otherwise.  Nothing in braid3
    calls it: it stays only while bench/pipeline.py lists it (ROADMAP
    item 1), so build no new code on it; read upsilon instead."""
    fields = _knot_fields(form)
    return None if fields["genus3"] is None else Fraction(fields["upsilon"])


class InvariantReport(Value):
    """Everything the pipeline can say about one braid word.

    None means no closed form applies; on a link every knot invariant is
    None.  `alt` bounds the alternation number, the dealternating number
    and the Turaev genus alike.  `s_provenance` names the case that gives
    the Rasmussen value, as `rasmussen_s` returns it, and is None exactly
    when `rasmussen_s` is.  The flags that say whether a field is exact
    are read off its value where the JSON is built (cli.report_json).
    """

    def __init__(
        self, word: BraidWord, garside: GarsideForm, murasugi: MurasugiForm,
        garside_certificate: ConjugacyCertificate, murasugi_certificate: ConjugacyCertificate,
        components: int, fdtc: Fraction, homogenized_upsilon: Fraction,
        upsilon: int | None = None, signature: int | None = None,
        rasmussen_s: int | None = None, s_provenance: str | None = None,
        genus3: int | None = None, genus4: int | None = None, tau: int | None = None,
        alt: IntInterval | None = None, minimal_r: int | None = None,
        ballinger_t: int | None = None, nonorientable_g4_lower: int | None = None,
    ):
        self.__dict__.update(
            word=word, garside=garside, murasugi=murasugi,
            garside_certificate=garside_certificate, murasugi_certificate=murasugi_certificate,
            components=components, fdtc=fdtc,
            homogenized_upsilon=homogenized_upsilon, upsilon=upsilon, signature=signature,
            rasmussen_s=rasmussen_s, s_provenance=s_provenance, genus3=genus3, genus4=genus4,
            tau=tau, alt=alt, minimal_r=minimal_r, ballinger_t=ballinger_t,
            nonorientable_g4_lower=nonorientable_g4_lower,
        )

    @property
    def is_knot(self) -> bool:
        return self.components == 1


def build_report(word: BraidWord) -> InvariantReport:
    """Run the full pipeline on one braid word.

    Classifies into both normal forms, each certificate checked once by
    the exact oracle, evaluates every applicable invariant, and
    cross-checks the Garside-side and Murasugi-side upsilon formulas
    against each other.  Upsilon is evaluated once per form, and every
    knot field is read off the Murasugi form by _knot_fields, which each
    public knot invariant returns one field of.
    """
    gform, gcert = garside_normal_form(word)
    mform, mcert = murasugi_from_garside(gform, gcert)
    components = realize(gform).closure_components()
    fdtc_value, h_upsilon = fdtc(gform), homogenized_upsilon(gform)
    if components != 1:
        return InvariantReport(word, gform, mform, gcert, mcert, components, fdtc_value, h_upsilon)
    ups = upsilon(gform)
    fields = _knot_fields(mform)
    if ups != fields["upsilon"]:
        raise InternalInconsistencyError(
            f"upsilon disagreement {ups} vs {fields['upsilon']} on {word.display()!r}"
        )
    return InvariantReport(
        word, gform, mform, gcert, mcert, components, fdtc_value, h_upsilon, **fields
    )
