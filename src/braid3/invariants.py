"""
Closed-form knot invariants of 3-braid closures, keyed off normal forms.

Every formula here consumes a Garside or Murasugi normal form (module
normal_form) and produces exact integers or rationals.  Values are exact
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
    # word decides once per form object; kept on the form, the answer dies with it
    attrs = vars(form)
    knot = attrs.get("_knot")
    if knot is None:
        knot = attrs["_knot"] = realize(form).is_knot()
    if not knot:
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


def _torus(form: GarsideB | MurasugiTorus) -> tuple[int, int, int]:
    """(m, j, sign) with the closure sign * T(3, 3m + j); m >= 0, j in {1, 2}."""
    # callers run _require_knot first, which rejects the half-twist class p = 2
    if isinstance(form, GarsideB):
        k = 1 if form.p == 1 else 2
    else:
        k = 1 if form.variant == "ab" else 2
    if form.ell >= 0:
        return form.ell, k, 1
    # for ell < 0 the closure is the mirror of the complementary family
    return -form.ell - 1, 3 - k, -1


def upsilon(form: GarsideForm | MurasugiForm) -> int:
    """The concordance invariant upsilon of the knot closure."""
    _require_knot(form)
    if isinstance(form, MurasugiGeneric):
        return _halved(sum(p - q for p, q in form.pairs)) - 2 * form.ell
    if isinstance(form, (GarsideB, MurasugiTorus)):
        # upsilon(T(3, 3m + 1)) = -2m, upsilon(T(3, 3m + 2)) = -2m - 1
        m, j, sign = _torus(form)
        return -sign * (2 * m + j - 1)
    return _halved(_twice_garside_upsilon(form))


def signature(form: GarsideForm | MurasugiForm) -> int:
    """Classical knot signature of the closure, sigma(T(3,2)) = -2.

    Read off upsilon.  Upsilon is sigma/2 on alternating knots
    (Ozsvath-Stipsicz-Szabo 2017).  That sigma = 2 upsilon on the other
    non-torus forms is braid3's own formula, to be checked against an
    independent Seifert-matrix signature.  On the torus knots T(3, 3m + j)
    with m odd, sigma is 2 further from 0.
    """
    sig = 2 * upsilon(form)
    if isinstance(form, (GarsideB, MurasugiTorus)):
        m, _, sign = _torus(form)
        sig -= 2 * sign * (m % 2)
    return sig


def _is_positive_form(form: GarsideForm | MurasugiForm) -> bool:
    return (
        isinstance(form, (GarsideA, GarsideB, GarsideC, GarsideD, MurasugiTorus))
        and form.ell >= 0
    )


def _positive_genus(form) -> int:
    # slice-Bennequin for positive 3-braid knot closures: g = (writhe - 2)/2
    wr = realize(form).writhe()
    if wr % 2:
        raise InternalInconsistencyError("odd writhe on a knot closure")
    return (wr - 2) // 2


def rasmussen_s(form: GarsideForm | MurasugiForm) -> tuple[int, str] | None:
    """Rasmussen invariant of the closure, or None when no formula applies.

    Returns (value, provenance); provenance 'positive-braid' marks the
    extension s = -2g beyond the Murasugi-generic and alternating cases.
    """
    _require_knot(form)
    if isinstance(form, MurasugiGeneric):
        s = 2 * upsilon(form) - 2 * form.ell
        if form.ell > 0:
            return s + 2, "quasipositive-twist"
        if form.ell < 0:
            return s - 2, "quasinegative-twist"
        return s, "alternating"
    if _is_positive_form(form):
        return -2 * _positive_genus(form), "positive-braid"
    return None


def genus_tau(form: GarsideForm | MurasugiForm) -> tuple[int | None, int | None, int] | None:
    """(3-genus, 4-genus, tau) where a closed form exists.

    Positive braid closures get the full slice-Bennequin triple; an
    alternating closure (generic form with no twisting) determines tau
    alone.  None otherwise.
    """
    _require_knot(form)
    if _is_positive_form(form):
        g = _positive_genus(form)
        return g, g, g
    if isinstance(form, MurasugiGeneric) and form.ell == 0:
        return None, None, -upsilon(form)
    return None


def alternating_distances(form: GarsideForm | MurasugiForm) -> IntInterval:
    """Alternation number, dealternating number and Turaev genus.

    All three lie in the one interval returned: g + upsilon on positive
    braid closures, m on a mirrored torus closure -T(3, 3m + j), and
    otherwise the two-point interval of the twisting degree.
    """
    _require_knot(form)
    if _is_positive_form(form):
        return IntInterval.point(_positive_genus(form) + upsilon(form))
    if isinstance(form, (GarsideB, MurasugiTorus)):
        return IntInterval.point(_torus(form)[0])
    twist = abs(form.ell + form.r if isinstance(form, (GarsideC, GarsideD)) else form.ell)
    return IntInterval(max(twist - 1, 0), twist)


def minimal_positive_switches(form: GarsideForm | MurasugiForm) -> int | None:
    """Minimal r so the closure is that of a^p1 b^q1 ... a^pr b^qr, all
    exponents positive: g + upsilon + 1 on positive braid closures, None
    on every other closure."""
    _require_knot(form)
    return _positive_genus(form) + upsilon(form) + 1 if _is_positive_form(form) else None


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


def upsilon_upper_bound_slope(form: GarsideForm | MurasugiForm) -> Fraction | None:
    """Fraction(upsilon) on positive braid closures, where the cobordism
    slope bound on upsilon is tight; None otherwise.  Nothing in braid3
    calls it: it stays only while bench/pipeline.py lists it (ROADMAP
    item 1), so build no new code on it; read upsilon instead."""
    _require_knot(form)
    return Fraction(upsilon(form)) if _is_positive_form(form) else None


class _Flags(dict):
    """Read-only flags that print as a JSON object and hash over their items."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("report flags are read-only")

    __setitem__ = __delitem__ = update = pop = popitem = clear = setdefault = __ior__ = _read_only

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __reduce__(self):
        return _Flags, (dict(self),)


class InvariantReport(Value):
    """Everything the pipeline can say about one braid word.

    None means no closed form applies; on a link every knot invariant is
    None.  `alt` bounds the alternation number, the dealternating number
    and the Turaev genus alike.  The read-only `flags` record, per reported field,
    'exact', 'interval' or 'absent', plus the provenance of the Rasmussen
    value; every link report holds the same flags object.
    """

    def __init__(
        self, word: BraidWord, garside: GarsideForm, murasugi: MurasugiForm,
        garside_certificate: ConjugacyCertificate, murasugi_certificate: ConjugacyCertificate,
        components: int, is_knot: bool, fdtc: Fraction, homogenized_upsilon: Fraction,
        upsilon: int | None = None, signature: int | None = None,
        rasmussen_s: int | None = None, genus3: int | None = None, genus4: int | None = None,
        tau: int | None = None, alt: IntInterval | None = None, minimal_r: int | None = None,
        ballinger_t: int | None = None, nonorientable_g4_lower: int | None = None,
        flags: _Flags | None = None,
    ):
        self.__dict__.update(
            word=word, garside=garside, murasugi=murasugi,
            garside_certificate=garside_certificate, murasugi_certificate=murasugi_certificate,
            components=components, is_knot=is_knot, fdtc=fdtc,
            homogenized_upsilon=homogenized_upsilon, upsilon=upsilon, signature=signature,
            rasmussen_s=rasmussen_s, genus3=genus3, genus4=genus4, tau=tau, alt=alt,
            minimal_r=minimal_r, ballinger_t=ballinger_t,
            nonorientable_g4_lower=nonorientable_g4_lower, flags=flags,
        )


#: the flags of every link report, where only the two quasimorphisms apply;
#: a knot report's flags override the rest and keep this key order
_LINK_FLAGS = _Flags(
    fdtc="exact", homogenized_upsilon="exact", upsilon="absent", signature="absent",
    s="absent", genus3="absent", genus4="absent", tau="absent", alt="absent",
    dalt="absent", turaev="absent", minimal_r="absent",
)


def build_report(word: BraidWord) -> InvariantReport:
    """Run the full pipeline on one braid word.

    Classifies into both normal forms, each certificate checked once by
    the exact oracle, evaluates every applicable invariant, and
    cross-checks the Garside-side and Murasugi-side upsilon formulas
    against each other.
    """
    gform, gcert = garside_normal_form(word)
    mform, mcert = murasugi_from_garside(gform, gcert)
    components = word.closure_components()
    common = dict(
        word=word, garside=gform, murasugi=mform, garside_certificate=gcert,
        murasugi_certificate=mcert, components=components, is_knot=components == 1,
        fdtc=fdtc(gform), homogenized_upsilon=homogenized_upsilon(gform),
    )
    if components != 1:
        return InvariantReport(**common, flags=_LINK_FLAGS)
    ups = upsilon(gform)
    ups_m = upsilon(mform)
    if ups != ups_m:
        raise InternalInconsistencyError(
            f"upsilon disagreement {ups} vs {ups_m} on {word.display()!r}"
        )
    sig = signature(mform)
    # a Murasugi torus form comes only from a Garside B form with the same
    # ell, so the Garside side has no s value when the Murasugi side has none
    s_val, provenance = rasmussen_s(mform) or (None, None)
    g3, g4, tau = genus_tau(gform) or genus_tau(mform) or (None, None, None)
    alt = alternating_distances(gform)
    min_r = minimal_positive_switches(gform)
    t_val, gamma4 = derived_concordance(ups, sig)
    bound = "exact" if alt.exact else "interval"
    flags = _Flags(
        _LINK_FLAGS, upsilon="exact", signature="exact",
        s="absent" if provenance is None else f"exact ({provenance})",
        genus3="absent" if g3 is None else "exact",
        genus4="absent" if g4 is None else "exact",
        tau="absent" if tau is None else "exact",
        alt=bound, dalt=bound, turaev=bound,
        minimal_r="absent" if min_r is None else "exact",
    )
    return InvariantReport(
        **common, upsilon=ups, signature=sig, rasmussen_s=s_val, genus3=g3, genus4=g4,
        tau=tau, alt=alt, minimal_r=min_r, ballinger_t=t_val,
        nonorientable_g4_lower=gamma4, flags=flags,
    )
