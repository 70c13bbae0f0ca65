"""
Explicit saddle-move cobordisms between 3-braid closures and connected
sums of T(2, odd) torus knots, with Euler-characteristic bookkeeping.

A certificate records the starting braid word, a symbolic end state (a
connected sum of torus knots, possibly together with a braid closure),
and the saddle moves in between.  Each saddle changes the Euler
characteristic by -1; with knots on both ends the genus is -chi/2.
verify() recomputes that from scratch, rebuilds the certificate with its
kind's construction and compares the two, and checks the concordance
inequality |upsilon(start) - upsilon(end)| <= genus, so a tampered
certificate is rejected with a reason.
"""

from __future__ import annotations

from fractions import Fraction

from .invariants import upsilon
from .normal_form import InternalInconsistencyError, garside_normal_form
from .words import GEN_A, GEN_B, BraidWord, Value, _word


class PreconditionError(ValueError):
    """The construction's hypotheses are not met by the input."""


INSERT = "insert_generator"
SPLIT = "split_to_connected_sum"

_KINDS = frozenset((INSERT, SPLIT))


class SaddleMove(Value):
    """One 1-handle attachment; every kind costs Euler characteristic 1."""

    def __init__(self, kind: str, position: int, generator: str):
        # a kind read from JSON may be a list, which a set cannot look up
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ValueError(f"unknown saddle kind {kind}")
        if generator not in (GEN_A, GEN_B):
            raise ValueError(f"unknown generator {generator!r}")
        self.__dict__.update(kind=kind, position=position, generator=generator)


class TorusFactor(Value):
    """T(2, q) for odd q >= 1; q = 1 is the unknot."""

    def __init__(self, q: int):
        if q < 1 or q % 2 == 0:
            raise ValueError("torus factor parameter must be odd and positive")
        self.__dict__["q"] = q

    def upsilon(self) -> int:
        return -(self.q - 1) // 2

    def display(self) -> str:
        return f"T(2,{self.q})"


class ClosureFactor(Value):
    """The closure of an explicit braid word (must be a knot)."""

    def __init__(self, word: BraidWord):
        self.__dict__["word"] = word

    def upsilon(self) -> int:
        form, _ = garside_normal_form(self.word)
        return upsilon(form)

    def display(self) -> str:
        return f"closure({self.word.display()})"


class ConnectedSum(Value):
    """Connected sum of knot factors; upsilon adds over factors."""

    def __init__(self, factors: tuple):
        self.__dict__["factors"] = factors

    def upsilon(self) -> int:
        total = 0
        for f in self.factors:
            total += f.upsilon()
        return total

    def is_knot(self) -> bool:
        for f in self.factors:
            if not isinstance(f, TorusFactor) and not f.word.is_knot():
                return False
        return True

    def display(self) -> str:
        return " # ".join(f.display() for f in self.factors)


class CobordismCertificate(Value):
    def __init__(
        self, kind: str, start: BraidWord, end: ConnectedSum,  # kind "torus-sum" | "twist"
        moves: tuple[SaddleMove, ...], euler_char: int, genus: Fraction,
    ):
        self.__dict__.update(
            kind=kind, start=start, end=end, moves=moves, euler_char=euler_char, genus=genus,
        )


class VerificationResult(Value):
    def __init__(self, reasons: tuple[str, ...]):
        self.__dict__["reasons"] = reasons

    def __bool__(self) -> bool:
        return not self.reasons


def _alternating_pairs(word: BraidWord) -> list[tuple[int, int]]:
    """Exponent pairs of a positive word of shape a^p1 b^q1 ... a^pr b^qr."""
    syl = word.syllables
    pairs = [(p, q) for (g, p), (h, q) in zip(syl[::2], syl[1::2])
             if g == GEN_A and h == GEN_B and p > 0 and q > 0]
    if not syl or len(syl) != 2 * len(pairs):
        raise PreconditionError("word is not an alternating positive a/b word")
    return pairs


def _cyclic_positive_normalize(word: BraidWord) -> BraidWord:
    """Rotate a positive word whose closure is a knot, so that it uses both
    generators, into the shape a^p1 b^q1 ... a^pr b^qr (a conjugation, so
    the closure is unchanged)."""
    runs = word.syllables
    if any(e < 0 for _, e in runs):
        raise PreconditionError("word must be positive")
    (first, p), (last, q) = runs[0], runs[-1]
    if first == last:  # the seam of the rotation merges them
        runs = ((first, p + q),) + runs[1:-1]
    if first == GEN_B:
        runs = runs[1:] + runs[:1]
    return BraidWord(runs)


def torus_sum_cobordism(word: BraidWord) -> CobordismCertificate:
    """Cobordism from the closure of a positive alternating-shape word to a
    connected sum of T(2, odd) torus knots.

    With r switch pairs, the parity of each b-run (and of the merged
    a-total) is repaired by inserting single generators, one saddle each;
    r - 1 further saddles split the b-runs off as their own factors while
    the a-runs coalesce.  genus = (r - 1 + inserts) / 2.
    """
    if not word.is_knot():
        raise PreconditionError("closure is not a knot")
    return _checked(_torus_sum(_cyclic_positive_normalize(word)))


def _torus_sum(start: BraidWord) -> CobordismCertificate:
    """The torus-sum certificate on start = a^p1 b^q1 ... a^pr b^qr: an
    insert for the a-total and for each b-run that is even, then r - 1
    splits.  Raises PreconditionError on a start word of another shape."""
    pairs = _alternating_pairs(start)
    a_total = sum(p for p, _ in pairs)
    moves = [SaddleMove(INSERT, 0, GEN_A)] if a_total % 2 == 0 else []
    moves += [SaddleMove(INSERT, 2 * i + 1, GEN_B) for i, (_, q) in enumerate(pairs) if q % 2 == 0]
    moves += [SaddleMove(SPLIT, 2 * i + 1, GEN_B) for i in range(len(pairs) - 1)]
    totals = [a_total] + [q for _, q in pairs]
    end = ConnectedSum(tuple(TorusFactor(x + (x + 1) % 2) for x in totals))
    return CobordismCertificate(
        kind="torus-sum", start=start, end=end,
        moves=tuple(moves), euler_char=-len(moves), genus=Fraction(len(moves), 2),
    )


def _checked(cert: CobordismCertificate) -> CobordismCertificate:
    result = _replay(cert, cert)  # what its kind builds from its input: its own rebuild
    if not result:
        raise InternalInconsistencyError(f"freshly built certificate failed: {result.reasons}")
    return cert


def twist_trick(gamma: BraidWord, n: int) -> CobordismCertificate:
    """Genus-1 cobordism from the closure of gamma * b^(2n) to
    closure(gamma) # T(2, 2n+1): one inserted generator completes the
    even twist region to an odd one, one split peels it off."""
    if n < 1:
        raise PreconditionError("twist count n must be >= 1")
    if not gamma.is_knot():
        raise PreconditionError("closure of gamma is not a knot")
    return _checked(_twist(gamma, n))


def _twist(gamma: BraidWord, n: int) -> CobordismCertificate:
    """The twist certificate: start gamma b^(2n), insert and split on its last run."""
    start = gamma * _word([(GEN_B, 2 * n)])
    pos = len(start.syllables) - 1
    end = ConnectedSum((ClosureFactor(gamma), TorusFactor(2 * n + 1)))
    return CobordismCertificate(
        kind="twist", start=start, end=end,
        moves=(SaddleMove(INSERT, pos, GEN_B), SaddleMove(SPLIT, pos, GEN_B)),
        euler_char=-2, genus=Fraction(1),
    )


def _rebuilt(cert: CobordismCertificate, reasons: list[str]) -> CobordismCertificate | None:
    """What cert's kind builds from cert's start word (torus-sum) or end factors
    (twist); None, with a reason appended, when they do not fit it."""
    if cert.kind == "torus-sum":
        try:
            return _torus_sum(cert.start)
        except PreconditionError:
            reasons.append("start word does not fit the construction")
    elif cert.kind == "twist":
        factors = cert.end.factors
        if [type(f) for f in factors] != [ClosureFactor, TorusFactor]:
            reasons.append("end expression does not match construction")
        elif factors[1].q < 3:
            reasons.append("twist region must have n >= 1")
        else:
            return _twist(factors[0].word, (factors[1].q - 1) // 2)
    else:
        reasons.append(f"unknown certificate kind {cert.kind!r}")
    return None


def verify(cert: CobordismCertificate) -> VerificationResult:
    """Replay a certificate against its kind's construction; collects every failed check."""
    return _replay(cert, None)


def _replay(cert: CobordismCertificate, built: CobordismCertificate | None) -> VerificationResult:
    """verify's checks, comparing cert with built, or with _rebuilt(cert) when built is None."""
    reasons: list[str] = []

    chi = -len(cert.moves)
    if cert.euler_char != chi:
        reasons.append("euler characteristic mismatch")

    num, den = cert.genus.numerator, cert.genus.denominator  # lowest terms, den > 0
    knots = cert.start.is_knot() and cert.end.is_knot()
    if not knots:
        reasons.append("boundary components are not knots")
    elif chi % 2:
        reasons.append("non-integral genus")
    elif 2 * num != -chi * den:
        reasons.append("genus mismatch")

    if built is None:
        built = _rebuilt(cert, reasons)
    if built is not None:
        if cert.start != built.start:
            reasons.append("start word does not match construction")
        if tuple(cert.moves) != built.moves:
            reasons.append("move sequence does not match construction")
        if cert.end.factors != built.end.factors:
            reasons.append("end expression does not match construction")

    if knots:
        form, _ = garside_normal_form(cert.start)
        gap = abs(upsilon(form) - cert.end.upsilon())
        if gap * den > num:
            reasons.append("upsilon gap exceeds genus")

    return VerificationResult(tuple(reasons))
