"""
Acceptance suite: one test per shipped criterion, each at its stated
tolerance (exact integer/rational arithmetic everywhere -- there are no
floating-point comparisons anywhere in this package).  Each test prints a
single PASS line on success; run with `pytest -v -s tests/test_acceptance.py`
to see them.

The heavyweight shared computation is the exhaustive classification sweep:
every freely reduced word of letter length <= 10 (the 4^10 sign patterns,
deduplicated by free reduction) plus 1000 random words of length <= 40,
each classified into both normal forms.  Every certificate is checked by
two independent exact oracles: braid3's own SL2(Z) x writhe oracle, which
the classifier runs on every certificate it returns, and the generic-t
Burau reference in burau_reference.py.  Its results feed criteria 4, 5
and 8.  The words are split between at most two worker processes, which
regenerate their share from indices; the mirror check over the exhaustive
set runs on the merged results.  The exhaustive set's knots also make a
census: one report per conjugacy class, whose per-field and per-shape
counts are pinned, and whose reported genera are checked against the
Alexander polynomial of alexander_reference.py.
"""

import itertools
import multiprocessing
import os
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from fractions import Fraction

import pytest

from braid3.burau import words_equal
from braid3.cobordism import torus_sum_cobordism, verify as verify_cobordism
from braid3.invariants import (
    alternating_distances,
    build_report,
    fdtc,
    genus_tau,
    homogenized_upsilon,
    signature,
    upsilon,
)
from braid3.normal_form import (
    GarsideB,
    GarsideC,
    GarsideD,
    InternalInconsistencyError,
    MurasugiGeneric,
    MurasugiTorus,
    form_display,
    garside_normal_form,
    murasugi_from_garside,
    realize,
)
from braid3.words import BraidWord, delta_power, parse

import alexander_reference
import burau_reference
from conftest import random_word, reduced_words

EXHAUSTIVE_LEN = 10
RANDOM_WORDS = 1000
RANDOM_LEN = 40


def _announce(message: str) -> None:
    # visible with `pytest -s`; under plain -v the per-criterion verdict is
    # the PASSED/FAILED line pytest itself prints for each test
    print(message, flush=True)


@dataclass
class SweepStats:
    words: int = 0
    knots: int = 0
    certificates: int = 0  # checked by both oracles
    cert_failures: list = field(default_factory=list)
    upsilon_mismatches: list = field(default_factory=list)
    fdtc_identity_failures: list = field(default_factory=list)
    sigma_generic_failures: list = field(default_factory=list)
    sigma_gap_failures: list = field(default_factory=list)
    genus_bound_failures: list = field(default_factory=list)
    # knots whose Murasugi form reports a positive genus where the Garside
    # form is not positive (l >= 0 on case B, C or D), or the reverse
    positivity_mismatches: list = field(default_factory=list)
    positive_knots: int = 0  # in the exhaustive set
    mirror_failures: list = field(default_factory=list)
    # word-key -> (upsilon | None, signature | None, fdtc)
    values: dict = field(default_factory=dict)
    # the Garside forms of the exhaustive set's knots, one per conjugacy class
    knot_forms: set = field(default_factory=set)


def _key(word: BraidWord):
    return word.syllables


def _examine(word: BraidWord, stats: SweepStats, record: bool):
    """Run every per-word check; return the word's Garside form, or None
    when classifying it failed, which cert_failures records."""
    stats.words += 1
    try:
        gform, gcert = garside_normal_form(word)
        mform, mcert = murasugi_from_garside(gform, gcert)
    except InternalInconsistencyError as exc:  # braid3's oracle rejected one
        stats.cert_failures.append(("braid3", word.display(), str(exc)))
        return None
    for name, cert in (("garside", gcert), ("murasugi", mcert)):
        if burau_reference.conjugates(cert.conjugator, cert.source, cert.target):
            stats.certificates += 1
        else:
            stats.cert_failures.append((name, word.display()))

    omega = fdtc(gform)
    if omega != homogenized_upsilon(gform) + Fraction(word.writhe(), 2):
        stats.fdtc_identity_failures.append(word.display())

    ups = sig = None
    if word.is_knot():
        stats.knots += 1
        ups = upsilon(mform)
        ups_g = upsilon(gform)
        if ups != ups_g:
            stats.upsilon_mismatches.append((word.display(), ups, ups_g))
        sig = signature(mform)
        if isinstance(mform, MurasugiGeneric) and sig != 2 * ups:
            stats.sigma_generic_failures.append(word.display())
        if abs(ups - sig // 2) > 1:
            stats.sigma_gap_failures.append(word.display())
        gt = genus_tau(mform)
        if gt is not None and gt[1] is not None and abs(ups) > gt[1]:
            stats.genus_bound_failures.append(word.display())
        positive = gt is not None and gt[0] is not None
        if positive != (isinstance(gform, (GarsideB, GarsideC, GarsideD)) and gform.ell >= 0):
            stats.positivity_mismatches.append(word.display())
        stats.positive_knots += record and positive
    if record:
        stats.values[_key(word)] = (ups, sig, omega)
        if ups is not None:
            stats.knot_forms.add(gform)
    return gform


def _random_words():
    rng = random.Random(424242)
    for _ in range(RANDOM_WORDS):
        yield random_word(rng, rng.randrange(0, RANDOM_LEN + 1))


def _sweep_share(share: int, shares: int) -> SweepStats:
    """Examine the sweep's words whose index is share modulo shares."""
    stats = SweepStats()
    for word in itertools.islice(reduced_words(EXHAUSTIVE_LEN), share, None, shares):
        _examine(word, stats, record=True)
    for word in itertools.islice(_random_words(), share, None, shares):
        gform = _examine(word, stats, record=False)
        if gform is None:  # its classification failed, see cert_failures
            continue
        # pair each random word with its mirror so antisymmetry is covered
        mform, _ = garside_normal_form(word.mirror())
        if fdtc(mform) != -fdtc(gform):
            stats.mirror_failures.append(("fdtc", word.display()))
        if word.is_knot() and upsilon(mform) != -upsilon(gform):
            stats.mirror_failures.append(("upsilon", word.display()))
    return stats


@pytest.fixture(scope="session")
def sweep() -> SweepStats:
    stats = SweepStats()
    shares = min(2, os.cpu_count() or 1)
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(shares, mp_context=spawn) as pool:
        futures = [pool.submit(_sweep_share, share, shares) for share in range(shares)]
        for future in futures:
            part = future.result()
            for f in fields(SweepStats):
                total, more = getattr(stats, f.name), getattr(part, f.name)
                merged = total | more if isinstance(total, (dict, set)) else total + more
                setattr(stats, f.name, merged)
    # mirror antisymmetry across the (mirror-closed) exhaustive set
    for key, (ups, sig, omega) in stats.values.items():
        mkey = tuple((g, -e) for g, e in key)
        if mkey not in stats.values:  # its classification failed, see cert_failures
            continue
        mups, msig, momega = stats.values[mkey]
        if momega != -omega:
            stats.mirror_failures.append(("fdtc", key))
        if ups is not None and (mups != -ups or msig != -sig):
            stats.mirror_failures.append(("upsilon/signature", key))
    return stats


def _positive_sweep_forms(max_ell=2, max_r=3, max_exp=5):
    for ell in range(0, max_ell + 1):
        for r in range(1, max_r + 1):
            for exps in itertools.product(range(2, max_exp + 1), repeat=2 * r):
                pairs = tuple((exps[2 * i], exps[2 * i + 1]) for i in range(r))
                yield GarsideC(ell, pairs)
                yield GarsideD(ell, pairs[:-1], pairs[-1][0])


def test_criterion_1_torus_values():
    """Torus-knot upsilon values through the whole pipeline."""
    assert build_report(parse("ab") ** 4).upsilon == -2
    assert build_report(parse("ab") ** 5).upsilon == -3
    assert build_report(parse("ab") ** 7).upsilon == -4
    for ell in range(0, 7):
        report = build_report(parse(f"a^{2 * ell + 1} b"))
        assert report.upsilon == -ell, f"T(2,{2*ell+1})"
        assert isinstance(report.upsilon, int)
    _announce("\n[criterion 1] PASS: torus upsilon values exact from braid input")


def test_criterion_2_worked_examples():
    """The slice and quasialternating 8-crossing braids, string-exact."""
    g20, _ = garside_normal_form(parse("a^3 B a^-3 B"))
    assert form_display(g20) == "D^-3 a^7"
    g21, _ = garside_normal_form(parse("a^3 b A^2 b^2"))
    assert form_display(g21) == "D^-2 a^3 b^2 a^2 b^3"

    r20 = build_report(parse("a^3 B a^-3 B"))
    assert (r20.upsilon, r20.signature, r20.rasmussen_s) == (0, 0, 0)
    r21 = build_report(parse("a^3 b A^2 b^2"))
    assert (r21.upsilon, r21.signature, r21.rasmussen_s) == (-1, -2, -2)
    _announce("[criterion 2] PASS: 8-crossing worked examples, string-exact forms")


def test_criterion_3_positive_alternating_identity():
    """alt = dalt = Turaev genus = g + upsilon = r + l - 1 on the positive sweep."""
    checked = 0
    for form in _positive_sweep_forms():
        word = realize(form)
        if not word.is_knot():
            continue
        canon, _ = murasugi_from_garside(*garside_normal_form(word))
        expect = form.r + form.ell - 1
        dist = alternating_distances(canon)
        g, _, _ = genus_tau(canon)
        ups = upsilon(canon)
        assert g + ups == expect, form
        assert dist.exact and dist.lo == expect, form
        checked += 1
    assert checked > 3000

    for q, expect in ((4, 1), (5, 1)):
        form, _ = murasugi_from_garside(*garside_normal_form(parse("ab") ** q))
        dist = alternating_distances(form)
        assert dist.exact and dist.lo == expect
    _announce(f"[criterion 3] PASS: alternating-distance identity on {checked} positive knots")


def test_criterion_4_exhaustive_oracle_equivalence(sweep):
    """Certificates and cross-form upsilon agreement, zero tolerance."""
    assert sweep.words == 118097 + RANDOM_WORDS, sweep.words
    assert sweep.cert_failures == []
    assert sweep.certificates == 2 * sweep.words
    assert sweep.upsilon_mismatches == []
    _announce(
        f"[criterion 4] PASS: {sweep.words} words classified, {sweep.knots} knots, "
        f"{sweep.certificates} certificates checked by both oracles, "
        "upsilon cross-checks exact"
    )


def test_criterion_5_fdtc_suite(sweep):
    """Twist-coefficient values, the writhe identity, homogeneity, defect."""
    d2, _ = garside_normal_form(delta_power(2))
    assert fdtc(d2) == 1
    d1, _ = garside_normal_form(delta_power(1))
    assert fdtc(d1) == Fraction(1, 2)
    assert sweep.fdtc_identity_failures == []

    rng = random.Random(5151)
    for _ in range(200):
        word = random_word(rng, rng.randrange(0, 13))
        base = fdtc(garside_normal_form(word)[0])
        for k in range(-3, 4):
            form, _ = garside_normal_form(word**k)
            assert fdtc(form) == k * base, (word.display(), k)

    pool = [random_word(rng, rng.randrange(0, 11)) for _ in range(120)]
    omegas = [fdtc(garside_normal_form(w)[0]) for w in pool]
    pairs = 0
    for i, j in itertools.product(range(len(pool)), repeat=2):
        if pairs >= 10000:
            break
        uv = pool[i] * pool[j]
        omega_uv = fdtc(garside_normal_form(uv)[0])
        assert abs(omega_uv - omegas[i] - omegas[j]) <= 1, (i, j)
        pairs += 1
    assert pairs == 10000
    _announce(
        "[criterion 5] PASS: twist coefficients, writhe identity on the sweep, "
        f"homogeneity (200 words), defect <= 1 on {pairs} pairs"
    )


def test_criterion_6_identity_certificates():
    """Braid identities certified by the Burau oracle for n <= 4."""
    for n in range(1, 5):
        lhs = parse("ab") ** (3 * n + 1)
        assert words_equal(lhs, parse("ab") * delta_power(2 * n))
        rhs = (
            parse("a^2 b a^3")
            * parse("a b a^3") ** (n - 1)
            * parse("b")
            * parse(f"a^{n}")
        )
        assert words_equal(lhs, rhs), f"square-cube rearrangement, n={n}"
    for n in range(1, 5):
        lhs = parse("ab") ** (3 * n - 1)
        rhs = parse(f"a^{2 * n} b") * parse("a^2 b^2") ** (n - 1) * parse("a")
        assert words_equal(lhs, rhs), f"even-power rearrangement, n={n}"
    for n in range(0, 5):
        assert words_equal(
            parse(f"a^{2 * n + 1} b") * parse("a^2 b^2") ** n,
            parse("ab") ** (3 * n + 1),
        )
        assert words_equal(
            parse(f"b^{2 * n + 1} a") * parse("b^2 a^2") ** n,
            parse("ba") ** (3 * n + 1),
        )
    _announce("[criterion 6] PASS: braid identity certificates for n <= 4")


def test_criterion_7_cobordism_suite():
    """Certificates verify; genus formula and upsilon gap on the sweep."""
    checked = 0
    for form in _positive_sweep_forms():
        word = realize(form)
        if not word.is_knot():
            continue
        cert = torus_sum_cobordism(word)
        result = verify_cobordism(cert)
        assert result, (form, result.reasons)
        r = len(cert.start.syllables) // 2
        eps = sum(1 for m in cert.moves if m.kind == "insert_generator")
        assert cert.genus == Fraction(r - 1 + eps, 2), form
        canon, _ = garside_normal_form(word)
        assert abs(upsilon(canon) - cert.end.upsilon()) <= cert.genus, form
        checked += 1
    assert checked > 3000

    tight = torus_sum_cobordism(parse("a^2 b^2 a^3 b^3"))
    canon, _ = garside_normal_form(parse("a^2 b^2 a^3 b^3"))
    gap = abs(upsilon(canon) - tight.end.upsilon())
    assert tight.genus == 1 and gap == 1
    _announce(f"[criterion 7] PASS: {checked} cobordism certificates, tight example attained")


def test_criterion_8_structural_properties(sweep):
    """Mirror antisymmetry, signature identities, genus bounds -- exact."""
    assert sweep.mirror_failures == []
    assert sweep.sigma_generic_failures == []
    assert sweep.sigma_gap_failures == []
    assert sweep.genus_bound_failures == []
    # the Murasugi form's positivity, l >= 0 on a torus form and 2l >= Sum p
    # on a generic one, is the Garside form's l >= 0 on every sweep knot
    assert sweep.positivity_mismatches == []
    assert sweep.positive_knots == 9438
    _announce(
        "[criterion 8] PASS: mirror antisymmetry, sigma = 2*upsilon on generic "
        "knots, |upsilon - sigma/2| <= 1, |upsilon| <= g4 and one positivity "
        "rule on both forms across the sweep"
    )


# ---------------------------------------------------------------------------
# Census: one report per knot class of the exhaustive set.  A count here
# moves only with a reason: it falls when a wrong claim is removed, and it
# rises when a new closed form is proved.

#: report field -> the number of census classes that report it
CENSUS_FIELDS = {"genus3": 13, "genus4": 13, "tau": 116, "rasmussen_s": 179, "minimal_r": 13}

#: shape -> the number of census classes of that shape
CENSUS_SHAPES = {"positive braid": 13, "generic, ell = 0": 103, "torus, ell < 0": 4, "other": 63}


def _shape(report) -> str:
    # a Garside form is a positive word exactly when its class holds one
    if all(exp > 0 for _, exp in realize(report.garside).syllables):
        return "positive braid"
    mform = report.murasugi
    if isinstance(mform, MurasugiGeneric) and mform.ell == 0:
        return "generic, ell = 0"
    if isinstance(mform, MurasugiTorus) and mform.ell < 0:
        return "torus, ell < 0"
    return "other"


@pytest.fixture(scope="module")
def census(sweep):
    return [build_report(realize(form)) for form in sweep.knot_forms]


def test_census_of_knot_classes(census):
    """Which knot classes of length <= 10 get which invariant, pinned."""
    assert len(census) == 183
    for name, count in CENSUS_FIELDS.items():
        assert sum(getattr(r, name) is not None for r in census) == count, name
    assert sum(r.alt.exact for r in census) == 120
    assert Counter(_shape(r) for r in census) == CENSUS_SHAPES
    # the positive classes are exactly the ones with a reported genus
    assert all((r.genus3 is not None) == (_shape(r) == "positive braid") for r in census)
    _announce(f"[census] PASS: {len(census)} knot classes, field and shape counts as pinned")


def test_alexander_reference_examples():
    assert alexander_reference.alexander(parse("a^3 b")) == (1, -1, 1)
    assert alexander_reference.alexander(parse("a B a B")) == (-1, 3, -1)
    assert alexander_reference.alexander(parse("abababab")) == (1, -1, 0, 1, 0, -1, 1)
    assert alexander_reference.alexander(parse("a b")) == (1,)


def test_census_genus_bounds(census):
    """span Delta <= 2 g3 (equal on positive braids, which are fibred), and
    the concordance values within the reported 4-genus."""
    for r in census:
        delta = alexander_reference.alexander(r.word)
        assert delta == delta[::-1], r.word  # symmetric, as on every knot
        if r.genus3 is not None:
            assert len(delta) - 1 <= 2 * r.genus3, r.word
        if _shape(r) == "positive braid":
            assert len(delta) - 1 == 2 * r.genus3, r.word
        if r.genus4 is not None:
            assert abs(r.upsilon) <= r.genus4, r.word
            assert r.tau is None or abs(r.tau) <= r.genus4, r.word
            assert r.rasmussen_s is None or abs(r.rasmussen_s) <= 2 * r.genus4, r.word
    _announce(f"[census] PASS: Alexander span and 4-genus bounds on {len(census)} classes")
