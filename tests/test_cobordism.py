import itertools
from fractions import Fraction

import pytest

import braid3.cobordism
from braid3.cobordism import (
    CobordismCertificate,
    ConnectedSum,
    PreconditionError,
    SaddleMove,
    TorusFactor,
    VerificationResult,
    torus_sum_cobordism,
    twist_trick,
    verify,
)
from braid3.invariants import genus_tau, minimal_positive_switches, upsilon
from braid3.normal_form import (
    GarsideB,
    GarsideC,
    GarsideD,
    GarsideForm,
    InternalInconsistencyError,
    garside_normal_form,
    realize,
)
from braid3.words import GEN_A, GEN_B, BraidWord, _word, parse

from conftest import random_word


def positive_forms(max_r=3, max_exp=5, max_ell=2):
    for ell in range(0, max_ell + 1):
        for r in range(1, max_r + 1):
            ranges = [range(2, max_exp + 1)] * (2 * r)
            for exps in itertools.product(*ranges):
                pairs = tuple(
                    (exps[2 * i], exps[2 * i + 1]) for i in range(r)
                )
                yield GarsideC(ell, pairs)
                yield GarsideD(ell, pairs[:-1], pairs[-1][0])


def knot_upsilon(word):
    form, _ = garside_normal_form(word)
    return upsilon(form)


class TestTorusSum:
    def test_granny_is_already_a_connected_sum(self):
        cert = torus_sum_cobordism(parse("a^3 b^3"))
        assert cert.genus == 0
        assert cert.end.display() == "T(2,3) # T(2,3)"
        assert verify(cert)

    def test_spec_tight_example(self):
        cert = torus_sum_cobordism(parse("a^2 b^2 a^3 b^3"))
        assert cert.genus == 1
        assert cert.end.display() == "T(2,5) # T(2,3) # T(2,3)"
        gap = abs(knot_upsilon(cert.start) - cert.end.upsilon())
        assert gap == 1  # the bound is attained here

    def test_odd_exponent_pairs_need_no_repair(self):
        for p in range(1, 10, 2):
            for q in range(1, 10, 2):
                w = BraidWord.from_runs([("a", p), ("b", q)])
                if not w.is_knot():
                    continue
                cert = torus_sum_cobordism(w)
                assert cert.genus == 0

    def test_rejects_non_knots_and_non_positive(self):
        with pytest.raises(PreconditionError):
            torus_sum_cobordism(parse("a^3"))
        with pytest.raises(PreconditionError):
            torus_sum_cobordism(parse("a^2 b^2"))
        with pytest.raises(PreconditionError):
            torus_sum_cobordism(parse("A b"))

    def test_genus_formula_and_upsilon_gap_on_sweep(self):
        checked = 0
        for form in positive_forms(max_r=2, max_exp=4, max_ell=1):
            word = realize(form)
            if not word.is_knot():
                continue
            cert = torus_sum_cobordism(word)
            pairs = [exp for _, exp in cert.start.syllables]
            r = len(pairs) // 2
            eps = sum(1 for m in cert.moves if m.kind == "insert_generator")
            assert cert.genus == Fraction(r - 1 + eps, 2)
            assert abs(knot_upsilon(word) - cert.end.upsilon()) <= cert.genus
            checked += 1
        assert checked > 100


class TestTwistTrick:
    def test_unknot_base_gives_trefoil_both_ends(self):
        cert = twist_trick(parse("ab"), 1)
        assert cert.euler_char == -2 and cert.genus == 1
        assert knot_upsilon(cert.start) == cert.end.upsilon() == -1

    def test_inequality_over_samples(self, rng):
        checked = 0
        while checked < 25:
            gamma = random_word(rng, rng.randrange(1, 9))
            if not gamma.is_knot():
                continue
            for n in range(1, 5):
                cert = twist_trick(gamma, n)
                assert verify(cert)
                alpha = gamma * BraidWord.from_runs([("b", 2 * n)])
                assert knot_upsilon(gamma) >= knot_upsilon(alpha) + n - 1
            checked += 1

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            twist_trick(parse("a"), 1)  # 2-component closure
        with pytest.raises(PreconditionError):
            twist_trick(parse("ab"), 0)


def changed(cert: CobordismCertificate, **change) -> CobordismCertificate:
    """cert rebuilt by its class with the given fields changed."""
    fields = {name: getattr(cert, name) for name in cert._fields}
    return CobordismCertificate(**{**fields, **change})


class TestVerify:
    def make(self):
        return torus_sum_cobordism(parse("a^2 b^2 a^3 b^3"))

    def test_fresh_certificates_verify(self):
        assert verify(self.make())
        assert verify(twist_trick(parse("a^3 b"), 2))

    def test_idempotent(self):
        cert = self.make()
        assert verify(cert) and verify(cert)

    def test_genus_tampering(self):
        cert = changed(self.make(), genus=Fraction(0))
        result = verify(cert)
        assert not result
        assert "genus mismatch" in result.reasons
        assert "upsilon gap exceeds genus" in result.reasons

    def test_euler_char_tampering(self):
        result = verify(changed(self.make(), euler_char=-1))
        assert "euler characteristic mismatch" in result.reasons

    def test_dropped_move(self):
        cert = self.make()
        result = verify(changed(cert, moves=cert.moves[1:]))
        assert not result
        assert "move sequence does not match construction" in result.reasons

    def test_end_tampering(self):
        cert = self.make()
        factors = (TorusFactor(7),) + cert.end.factors[1:]
        result = verify(changed(cert, end=ConnectedSum(factors)))
        assert not result
        assert "end expression does not match construction" in result.reasons

    def test_start_tampering(self):
        cert = self.make()
        result = verify(changed(cert, start=parse("a^2 b^2 a^3 b^5")))
        assert not result

    def test_odd_saddle_count_between_knots(self):
        cert = CobordismCertificate(
            kind="torus-sum",
            start=parse("a^3 b^3"),
            end=ConnectedSum((TorusFactor(3), TorusFactor(3))),
            moves=(SaddleMove("insert_generator", 0, "a"),),
            euler_char=-1,
            genus=Fraction(1, 2),
        )
        result = verify(cert)
        assert not result
        assert "non-integral genus" in result.reasons

    def test_unknown_kind(self):
        cert = changed(self.make(), kind="mystery")
        assert "unknown certificate kind 'mystery'" in verify(cert).reasons


def moved_first(cert: CobordismCertificate) -> CobordismCertificate:
    first = cert.moves[0]
    moved = SaddleMove(first.kind, first.position + 1, first.generator)
    return changed(cert, moves=(moved,) + cert.moves[1:])


def torus_bumped(cert: CobordismCertificate, i: int) -> CobordismCertificate:
    factors = cert.end.factors
    bumped = TorusFactor(factors[i].q + 2)
    return changed(cert, end=ConnectedSum(factors[:i] + (bumped,) + factors[i + 1:]))


GENUS = "genus mismatch"
GAP = "upsilon gap exceeds genus"
NOT_KNOTS = "boundary components are not knots"
START = "start word does not match construction"
MOVES = "move sequence does not match construction"
END = "end expression does not match construction"

#: (tamper, reasons on a^2 b^2 a^3 b^3 torus-sum, reasons on the twist of a b with n = 2)
TAMPERS = [
    (lambda c: changed(c, genus=c.genus + 1), (GENUS,), (GENUS,)),
    (lambda c: changed(c, genus=c.genus - 1), (GENUS, GAP), (GENUS,)),
    (lambda c: changed(c, genus=c.genus + Fraction(1, 2)), (GENUS,), (GENUS,)),
    (lambda c: changed(c, genus=c.genus - Fraction(1, 2)), (GENUS, GAP), (GENUS,)),
    (moved_first, (MOVES,), (MOVES,)),
    (lambda c: torus_bumped(c, 0 if c.kind == "torus-sum" else 1), (END, GAP), (START,)),
    (lambda c: changed(c, start=parse("a^2 b^2 a^3 b^5" if c.kind == "torus-sum" else "a b^3")),
     (END,), (START,)),
    (lambda c: changed(c, start=c.start * parse("b")), (NOT_KNOTS, MOVES, END), (NOT_KNOTS, START)),
    (lambda c: changed(c, euler_char=c.euler_char - 1),
     ("euler characteristic mismatch",), ("euler characteristic mismatch",)),
]


@pytest.mark.parametrize("tamper, torus_sum_reasons, twist_reasons", TAMPERS, ids=[
    "genus+1", "genus-1", "genus+1/2", "genus-1/2", "first-position", "torus-q",
    "start", "start-link", "euler-char",
])
def test_tampered_certificates_keep_their_reasons(tamper, torus_sum_reasons, twist_reasons):
    torus_sum = torus_sum_cobordism(parse("a^2 b^2 a^3 b^3"))
    twist = twist_trick(parse("a b"), 2)
    assert verify(tamper(torus_sum)) == VerificationResult(torus_sum_reasons)
    assert verify(tamper(twist)) == VerificationResult(twist_reasons)


def test_builder_self_check_bites(monkeypatch):
    # with upsilon pinned far from every end factor, the gap exceeds the genus
    monkeypatch.setattr(braid3.cobordism, "upsilon", lambda form: 100)
    with pytest.raises(InternalInconsistencyError, match=GAP):
        torus_sum_cobordism(parse("a^2 b^2 a^3 b^3"))
    with pytest.raises(InternalInconsistencyError, match=GAP):
        twist_trick(parse("a b"), 2)


class TestSlopeBoundReproduction:
    def test_upsilon_bounded_by_switch_count(self):
        # every positive alternating-shape word gives ups <= -g + r - 1,
        # with equality exactly at the minimal switch count g + ups + 1
        for form in positive_forms(max_r=2, max_exp=4, max_ell=1):
            word = realize(form)
            if not word.is_knot():
                continue
            canon, _ = garside_normal_form(word)
            ups = upsilon(canon)
            g = genus_tau(canon)[0]
            cert = torus_sum_cobordism(word)
            r_word = len(cert.start.syllables) // 2
            assert ups <= -g + r_word - 1
            if r_word == canon.r + canon.ell:
                assert ups == -g + r_word - 1


def _witness_word(form: GarsideForm) -> BraidWord:
    """A positive braid word conjugate to the form with the minimal number
    of switch pairs (r + l for cases C/D, l + 1 for the torus case)."""
    runs: list[tuple[str, int]] = []
    if isinstance(form, GarsideB):
        runs = [(GEN_A, 2 * form.ell + form.p), (GEN_B, 1)]
        runs += [(GEN_A, 2), (GEN_B, 2)] * form.ell
    elif isinstance(form, GarsideC):
        (p1, q1), rest = form.pairs[0], form.pairs[1:]
        if form.ell == 0:
            for p, q in form.pairs:
                runs += [(GEN_A, p), (GEN_B, q)]
        else:
            runs = [(GEN_A, 2 * form.ell), (GEN_B, 1)]
            runs += [(GEN_A, 2), (GEN_B, 2)] * (form.ell - 1)
            runs += [(GEN_A, p1 + 2), (GEN_B, q1)]
            for p, q in rest:
                runs += [(GEN_A, p), (GEN_B, q)]
            runs[-1] = (GEN_B, runs[-1][1] + 1)
    else:  # GarsideD; the caller admits cases B, C and D only
        if form.ell == 0:
            if not form.pairs:
                # both exponent bumps land on the single a-run
                runs = [(GEN_A, form.p_r + 2), (GEN_B, 1)]
            else:
                for p, q in form.pairs:
                    runs += [(GEN_A, p), (GEN_B, q)]
                runs[0] = (GEN_A, runs[0][1] + 1)
                runs += [(GEN_A, form.p_r + 1), (GEN_B, 1)]
        else:
            runs = [(GEN_A, form.p_r + 2), (GEN_B, 1)]
            runs += [(GEN_A, 4), (GEN_B, 1)] * (form.ell - 1)
            runs += [(GEN_A, 3), (GEN_B, 1)]
            if form.pairs:
                (p1, q1), rest = form.pairs[0], form.pairs[1:]
                runs += [(GEN_A, p1 + form.ell + 1), (GEN_B, q1)]
                for p, q in rest:
                    runs += [(GEN_A, p), (GEN_B, q)]
            else:
                runs += [(GEN_A, form.ell + 1)]
    return _word(runs)


class TestAlternatingGenusBounds:
    """minimal_positive_switches is attained: a positive word with that many
    a/b pairs closes to the form's knot, and its torus-sum certificate, a
    cobordism to alternating T(2, odd) sums, verifies with genus at least
    (pairs - 1) / 2."""

    def witness_certificate(self, form):
        witness = _witness_word(form)
        canonical, _ = garside_normal_form(realize(form))
        assert garside_normal_form(witness)[0] == canonical
        cert = torus_sum_cobordism(witness)
        pairs = minimal_positive_switches(form)
        assert len(cert.start.syllables) == 2 * pairs
        assert Fraction(pairs - 1, 2) <= cert.genus
        assert verify(cert)
        return cert

    def test_granny(self):
        assert self.witness_certificate(GarsideC(0, ((3, 3),))).genus == 0

    def test_parity_repair_example(self):
        assert self.witness_certificate(GarsideC(0, ((2, 2), (3, 3)))).genus == 1

    def test_torus_family_witnesses(self):
        for ell in range(0, 4):
            for p in (1, 3):
                assert self.witness_certificate(GarsideB(ell, p)).genus <= ell

    def test_witnesses_agree_across_sweep(self):
        checked = 0
        for form in positive_forms(max_r=2, max_exp=4, max_ell=2):
            if realize(form).is_knot():
                self.witness_certificate(form)
                checked += 1
        assert checked == 171
