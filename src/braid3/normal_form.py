"""
Conjugacy normal forms for 3-braids, with checkable certificates.

Every braid in B3 is conjugate to exactly one of four Garside shapes
(up to cyclic rotation of the exponent sequence):

  case A   D^(2l) a^p                          l in Z, p >= 0
  case B   D^(2l) a^p b                        l in Z, p in {1,2,3}
  case C   D^(2l) a^p1 b^q1 ... a^pr b^qr      l in Z, r >= 1, all p_i, q_i >= 2
  case D   D^(2l+1) a^p1 b^q1 ... a^p_r        l in Z, trailing and all inner >= 2

and to exactly one classical (Murasugi) shape

  power      D^(2l) a^p                        p in Z
  half twist D^(2l+1)
  torus      D^(2l) ab   or   D^(2l) (ab)^2
  generic    D^(2l) a^-p1 b^q1 ... a^-pr b^qr  all p_i, q_i >= 1.

The classifier works constructively: eliminate inverse letters through the
central substitution a^-1 = D^-2 babab (and the b analogue), greedily pull
half twists out of the positive remainder, then sort the residue into its
case with explicit conjugations.  Every step either preserves the group
element on the nose or conjugates by a recorded word, so each result ships
with a ConjugacyCertificate.  The exact word-problem oracle of module burau
(the SL2(Z) image of the braid paired with its writhe) checks every
certificate before it is returned.

Canonical rotation: among all cyclic rotations of the exponent sequence
(2r of them for case C, 2r-1 for case D -- odd shifts exchange the roles
of a and b, which is a conjugation by the half twist), take those with the
largest leading exponent and break ties by the lexicographically smallest
full sequence.  Murasugi generic forms rotate by whole (a^-p, b^q) pairs
and take the lexicographically smallest flattened sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .burau import conjugates_to, words_equal
from .words import GEN_A, GEN_B, BraidWord, _OTHER, delta_power


class InternalInconsistencyError(RuntimeError):
    """A theorem-level sanity check failed; indicates a classifier bug."""


# ---------------------------------------------------------------------------
# Garside forms


@dataclass(frozen=True)
class GarsideA:
    """D^(2l) a^p with p >= 0; closures are links, never knots."""

    ell: int
    p: int

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("case A needs p >= 0")

    case = "A"


@dataclass(frozen=True)
class GarsideB:
    """D^(2l) a^p b with p in {1, 2, 3}; the torus-closure cases."""

    ell: int
    p: int

    def __post_init__(self):
        if self.p not in (1, 2, 3):
            raise ValueError("case B needs p in {1,2,3}")

    case = "B"


@dataclass(frozen=True)
class GarsideC:
    """D^(2l) a^p1 b^q1 ... a^pr b^qr with every exponent >= 2."""

    ell: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("case C needs r >= 1")
        if any(p < 2 or q < 2 for p, q in self.pairs):
            raise ValueError("case C needs all exponents >= 2")

    case = "C"

    @property
    def r(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class GarsideD:
    """D^(2l+1) a^p1 b^q1 ... a^p_{r-1} b^q_{r-1} a^p_r, exponents >= 2.

    r counts the a-runs, so r = len(pairs) + 1.
    """

    ell: int
    pairs: tuple[tuple[int, int], ...]
    p_r: int

    def __post_init__(self):
        if self.p_r < 2 or any(p < 2 or q < 2 for p, q in self.pairs):
            raise ValueError("case D needs all exponents >= 2")

    case = "D"

    @property
    def r(self) -> int:
        return len(self.pairs) + 1


GarsideForm = GarsideA | GarsideB | GarsideC | GarsideD


# ---------------------------------------------------------------------------
# Murasugi forms


@dataclass(frozen=True)
class MurasugiPower:
    """D^(2l) a^p, p in Z; 2- or 3-component links."""

    ell: int
    p: int

    case = "power"


@dataclass(frozen=True)
class MurasugiHalfTwist:
    """D^(2l+1); a 2-component link."""

    ell: int

    case = "half-twist"


@dataclass(frozen=True)
class MurasugiTorus:
    """D^(2l) ab or D^(2l) (ab)^2; the braid-index-3 torus closures."""

    ell: int
    variant: str  # "ab" | "abab"

    def __post_init__(self):
        if self.variant not in ("ab", "abab"):
            raise ValueError("variant must be 'ab' or 'abab'")

    case = "torus"


@dataclass(frozen=True)
class MurasugiGeneric:
    """D^(2l) a^-p1 b^q1 ... a^-pr b^qr with every p_i, q_i >= 1."""

    ell: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("generic form needs r >= 1")
        if any(p < 1 or q < 1 for p, q in self.pairs):
            raise ValueError("generic form needs all exponents >= 1")

    case = "generic"

    @property
    def r(self) -> int:
        return len(self.pairs)


MurasugiForm = MurasugiPower | MurasugiHalfTwist | MurasugiTorus | MurasugiGeneric


def _pair_runs(pairs: tuple[tuple[int, int], ...], sign: int) -> list[tuple[str, int]]:
    return [run for p, q in pairs for run in ((GEN_A, sign * p), (GEN_B, q))]


#: the runs each normal-form shape displays after its D^k prefix
_TAIL_RUNS = {
    GarsideA: lambda f: [(GEN_A, f.p)],
    GarsideB: lambda f: [(GEN_A, f.p), (GEN_B, 1)],
    GarsideC: lambda f: _pair_runs(f.pairs, 1),
    GarsideD: lambda f: _pair_runs(f.pairs, 1) + [(GEN_A, f.p_r)],
    MurasugiPower: lambda f: [(GEN_A, f.p)],
    MurasugiHalfTwist: lambda f: [],
    MurasugiTorus: lambda f: [(GEN_A, 1), (GEN_B, 1)] * (1 if f.variant == "ab" else 2),
    MurasugiGeneric: lambda f: _pair_runs(f.pairs, -1),
}


def delta_exponent(form: GarsideForm | MurasugiForm) -> int:
    """The power of the half twist D displayed by the form."""
    if isinstance(form, (GarsideD, MurasugiHalfTwist)):
        return 2 * form.ell + 1
    return 2 * form.ell


def form_tail(form: GarsideForm | MurasugiForm) -> BraidWord:
    """The word the form displays after its D^k prefix, k = delta_exponent(form)."""
    return BraidWord.from_runs(_TAIL_RUNS[type(form)](form))


def realize(form: GarsideForm | MurasugiForm) -> BraidWord:
    """The literal braid word displayed by a normal form (D expanded)."""
    return delta_power(delta_exponent(form)) * form_tail(form)


def form_display(form: GarsideForm | MurasugiForm) -> str:
    """Input-grammar rendering, D-power first, e.g. 'D^-3 a^7'."""
    k = delta_exponent(form)
    parts = [] if k == 0 else ["D" if k == 1 else f"D^{k}"]
    body = form_tail(form).display()
    if body:
        parts.append(body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class ConjugacyCertificate:
    """Witness that conjugator * source * conjugator^-1 = target in B3."""

    conjugator: BraidWord
    source: BraidWord
    target: BraidWord

    def verify(self) -> bool:
        return conjugates_to(self.conjugator, self.source, self.target)


@dataclass(frozen=True)
class DeltaSplit:
    """Witness that source = D^(2k) * positive_part with k <= 0."""

    k: int
    positive_part: BraidWord
    source: BraidWord

    def verify(self) -> bool:
        return words_equal(
            self.source, delta_power(2 * self.k) * self.positive_part
        )


_NEG_A = BraidWord.from_runs([(GEN_B, 1), (GEN_A, 1), (GEN_B, 1), (GEN_A, 1), (GEN_B, 1)])
_NEG_B = BraidWord.from_runs([(GEN_A, 1), (GEN_B, 1), (GEN_A, 1), (GEN_B, 1), (GEN_A, 1)])


def delta_positive_split(word: BraidWord) -> DeltaSplit:
    """Rewrite word = D^(2k) * P with k <= 0 and P a positive word.

    Each inverse letter is replaced through the central identities
    a^-1 = D^-2 babab and b^-1 = D^-2 ababa, and the D^-2 factors are
    pulled to the front.  Pure word arithmetic, no conjugation.
    """
    k = 0
    runs: list[tuple[str, int]] = []
    for s in word:
        if s.exp > 0:
            runs.append((s.gen, s.exp))
        else:
            k -= -s.exp
            rep = _NEG_A if s.gen == GEN_A else _NEG_B
            for _ in range(-s.exp):
                runs.extend((t.gen, t.exp) for t in rep)
    return DeltaSplit(k=k, positive_part=BraidWord.from_runs(runs), source=word)


# ---------------------------------------------------------------------------
# The classifier


class _State:
    """Working state: the braid D^n * (positive word in `runs`) together
    with the conjugator accumulated so far, so that

        D^n * runs  =  conj * original * conj^-1   in B3.

    Runs are mutable [gen, exp] pairs with exp >= 1, adjacent generators
    distinct.
    """

    __slots__ = ("n", "runs", "conj_runs")

    def __init__(self, n: int, positive: BraidWord):
        self.n = n
        self.runs: list[list] = [[s.gen, s.exp] for s in positive]
        self.conj_runs: list[tuple[str, int]] = []

    # -- conjugator bookkeeping (left-composed) --

    def _conjugate(self, runs: list[tuple[str, int]]) -> None:
        self.conj_runs = runs + self.conj_runs

    def conjugator(self) -> BraidWord:
        return BraidWord.from_runs(self.conj_runs)

    # -- primitive moves --

    def letter_length(self) -> int:
        return sum(e for _, e in self.runs)

    def swap(self) -> None:
        """Conjugate by D: exchanges the two generators in the tail."""
        self.runs = [[_OTHER[g], e] for g, e in self.runs]
        self._conjugate([(GEN_A, 1), (GEN_B, 1), (GEN_A, 1)])

    def rotate_letter(self) -> None:
        """Move the first letter past D^n to the end of the tail."""
        g, e = self.runs[0]
        if e > 1:
            self.runs[0][1] = e - 1
        else:
            self.runs.pop(0)
        moved = g if self.n % 2 == 0 else _OTHER[g]
        if self.runs and self.runs[-1][0] == moved:
            self.runs[-1][1] += 1
        else:
            self.runs.append([moved, 1])
        self._conjugate([(moved, -1)])

    def fold_tail(self) -> None:
        """Move the whole last run to the front of the tail (through D^n)."""
        g, e = self.runs.pop()
        front = g if self.n % 2 == 0 else _OTHER[g]
        if self.runs and self.runs[0][0] == front:
            self.runs[0][1] += e
        else:
            self.runs.insert(0, [front, e])
        self._conjugate([(g, e)])

    def set_tail(self, runs: list[list], delta_shift: int, conj: list[tuple[str, int]]):
        """Replace the tail wholesale; used by the small fix-up cases."""
        self.n += delta_shift
        self.runs = runs
        self._conjugate(conj)

    # -- half-twist extraction --

    def _extract_at(self, j: int) -> None:
        """Extract g.h.g = D at the single-letter run j (interior)."""
        runs = self.runs
        left = runs[: j - 1]
        if runs[j - 1][1] > 1:
            left = left + [[runs[j - 1][0], runs[j - 1][1] - 1]]
        right = runs[j + 2 :]
        if runs[j + 1][1] > 1:
            right = [[runs[j + 1][0], runs[j + 1][1] - 1]] + right
        # u D v = D tau(u) v
        flipped = [[_OTHER[g], e] for g, e in left]
        merged: list[list] = []
        for g, e in flipped + right:
            if merged and merged[-1][0] == g:
                merged[-1][1] += e
            else:
                merged.append([g, e])
        self.runs = merged
        self.n += 1

    def _find_interior_single(self) -> int | None:
        for j in range(1, len(self.runs) - 1):
            if self.runs[j][1] == 1:
                return j
        return None

    def _cyclically_extractable(self) -> bool:
        """Whether some conjugate of the tail still contains a half twist.

        Rotating the tail through D^n wraps it onto itself, with the
        generators exchanged when n is odd.  A half twist is available
        exactly when that periodic word has a run of length 1, which --
        once interior singles are exhausted -- can only happen at the
        seam, and only when the seam does not merge the boundary runs.
        """
        if self.letter_length() < 3 or len(self.runs) < 2:
            return False
        if len(self.runs) % 2 != self.n % 2:
            return False  # boundary runs merge across the seam
        return self.runs[0][1] == 1 or self.runs[-1][1] == 1

    def extract_half_twists(self) -> None:
        """Pull out D factors until no rotation of the tail exposes one."""
        while True:
            j = self._find_interior_single()
            while j is not None:
                self._extract_at(j)
                j = self._find_interior_single()
            if not self._cyclically_extractable():
                return
            # rotate until the seam single becomes interior; only the runs
            # near the end can newly turn interior after each step
            for _ in range(2 * self.letter_length() + 2):
                self.rotate_letter()
                if len(self.runs) >= 3 and self.runs[-2][1] == 1:
                    break
            else:
                raise InternalInconsistencyError(
                    "expected half twist did not surface under rotation"
                )


def _flatten_C(pairs: list[tuple[int, int]]) -> list[int]:
    seq = []
    for p, q in pairs:
        seq.append(p)
        seq.append(q)
    return seq


def _canonical_shift(seq: list[int]) -> int:
    """Index of the canonical rotation: maximal leading exponent, then
    lexicographically smallest full sequence."""
    m = len(seq)
    rots = [tuple(seq[i:] + seq[:i]) for i in range(m)]
    best = min(range(m), key=lambda i: (-rots[i][0], rots[i]))
    return best


def _rotate_exponent_C(state: _State) -> None:
    """One exponent-shift of a case-C tail: conjugate the leading a-run to
    the back, then swap generators to restore the a-leading shape."""
    g, e = state.runs.pop(0)
    state.runs.append([g, e])
    state._conjugate([(g, -e)])
    state.swap()


def _rotate_exponent_D(state: _State) -> None:
    """One exponent-shift of a case-D tail (odd half-twist power)."""
    g, e = state.runs.pop(0)
    state.runs.append([_OTHER[g], e])
    state._conjugate([(_OTHER[g], -e)])
    state.swap()


def _classify(state: _State) -> GarsideForm:
    """Sort a fully extracted state into its case, canonically rotated."""
    runs = state.runs
    n = state.n

    if not runs:
        if n % 2 == 0:
            return GarsideA(n // 2, 0)
        # D^(2l+1) = a (D^2l a^2 b) a^-1
        state.set_tail([[GEN_A, 2], [GEN_B, 1]], -1, [(GEN_A, 1)])
        return GarsideB((n - 1) // 2, 2)

    if len(runs) == 1:
        if runs[0][0] == GEN_B:
            state.swap()
        p = state.runs[0][1]
        if n % 2 == 0:
            return GarsideA(n // 2, p)
        if p == 1:
            # D^(2l+1) a = a^2 (D^2l a^3 b) a^-2
            state.set_tail([[GEN_A, 3], [GEN_B, 1]], -1, [(GEN_A, 2)])
            return GarsideB((n - 1) // 2, 3)
        return GarsideD((n - 1) // 2, (), p)

    if state.runs[0][0] == GEN_B:
        state.swap()

    if n % 2 == 0:
        if state.letter_length() == 2:
            return GarsideB(n // 2, 1)
        if state.runs[-1][0] == GEN_A:
            state.fold_tail()
        pairs = [
            (state.runs[i][1], state.runs[i + 1][1])
            for i in range(0, len(state.runs), 2)
        ]
        seq = _flatten_C(pairs)
        for _ in range(_canonical_shift(seq)):
            _rotate_exponent_C(state)
        pairs = tuple(
            (state.runs[i][1], state.runs[i + 1][1])
            for i in range(0, len(state.runs), 2)
        )
        return GarsideC(n // 2, pairs)

    # odd power of D
    if state.runs[-1][0] == GEN_B:
        state.fold_tail()
    if len(state.runs) == 1:
        return GarsideD((n - 1) // 2, (), state.runs[0][1])
    seq = [e for _, e in state.runs]
    for _ in range(_canonical_shift(seq)):
        _rotate_exponent_D(state)
    pairs = tuple(
        (state.runs[i][1], state.runs[i + 1][1])
        for i in range(0, len(state.runs) - 1, 2)
    )
    return GarsideD((n - 1) // 2, pairs, state.runs[-1][1])


def garside_normal_form(word: BraidWord) -> tuple[GarsideForm, ConjugacyCertificate]:
    """Classify a 3-braid word up to conjugacy; total on all inputs.

    Returns the canonical form together with an explicit conjugator taking
    the input word to the realized normal form.  The certificate is checked
    by the exact oracle before it is returned; a failed check raises
    InternalInconsistencyError.
    """
    split = delta_positive_split(word)
    state = _State(2 * split.k, split.positive_part)
    state.extract_half_twists()
    form = _classify(state)

    target = realize(form)
    cert = ConjugacyCertificate(
        conjugator=state.conjugator(), source=word, target=target
    )
    if not cert.verify():
        raise InternalInconsistencyError(
            f"normal-form certificate failed for {word.display()!r}"
        )
    return form, cert


# ---------------------------------------------------------------------------
# Murasugi normal form via the Garside classification


def _generic_from_slots(ell: int, slots: list[int]) -> tuple[MurasugiForm, int]:
    """Cyclic merge of the slot word a^-1 b^e1 a^-1 b^e2 ... into generic
    pairs.  Returns the form plus the slot shift applied, so the caller can
    record the matching rotation conjugator."""
    m = len(slots)
    nonzero = [j for j, e in enumerate(slots) if e > 0]
    if not nonzero:
        return MurasugiPower(ell, -m), 0
    shift = (nonzero[-1] + 1) % m
    pairs = []
    prev = nonzero[-1] - m
    for j in nonzero:
        pairs.append((j - prev, slots[j]))
        prev = j
    return MurasugiGeneric(ell, tuple(pairs)), shift


def _rotate_generic(form: MurasugiGeneric) -> tuple[MurasugiGeneric, int]:
    """Canonical pair rotation (lexicographically smallest flattening)."""
    r = form.r
    flats = []
    for i in range(r):
        rot = form.pairs[i:] + form.pairs[:i]
        flats.append(tuple(x for pq in rot for x in pq))
    best = min(range(r), key=lambda i: flats[i])
    rotated = form.pairs[best:] + form.pairs[:best]
    return MurasugiGeneric(form.ell, rotated), best


def murasugi_normal_form(word: BraidWord) -> tuple[MurasugiForm, ConjugacyCertificate]:
    """Classical conjugacy normal form, computed from the Garside form.

    Cases A and B map across directly; cases C and D are rewritten through
    the conversion                     (with l' = l + r)

      D^(2l) prod a^pi b^qi        ~  D^(2l') prod a^-1 b^(pi-2) a^-1 b^(qi-2)
      D^(2l+1) prod ... a^p_r      ~  D^(2l') prod ... a^-1 b^(p_r - 2)

    followed by a cyclic merge of the empty b-runs.  The conversion itself
    is the conjugation by b (case C) or b D^-1 (case D).
    """
    return murasugi_from_garside(*garside_normal_form(word))


def murasugi_from_garside(
    gform: GarsideForm, gcert: ConjugacyCertificate
) -> tuple[MurasugiForm, ConjugacyCertificate]:
    """Convert an already classified Garside form; see murasugi_normal_form.

    The conversion certificate is checked like the Garside one.
    """
    word = gcert.source
    conj = gcert.conjugator

    if isinstance(gform, GarsideA):
        mform: MurasugiForm = MurasugiPower(gform.ell, gform.p)
    elif isinstance(gform, GarsideB):
        if gform.p == 1:
            mform = MurasugiTorus(gform.ell, "ab")
        elif gform.p == 2:
            mform = MurasugiHalfTwist(gform.ell)
            conj = BraidWord.from_runs([(GEN_A, -1)]) * conj
        else:
            mform = MurasugiTorus(gform.ell, "abab")
            conj = BraidWord.from_runs([(GEN_A, -1)]) * conj
    else:
        if isinstance(gform, GarsideC):
            slots = [x - 2 for pq in gform.pairs for x in pq]
            ell2 = gform.ell + gform.r
            conv = BraidWord.from_runs([(GEN_B, 1)])
        else:
            slots = [x - 2 for pq in gform.pairs for x in pq] + [gform.p_r - 2]
            ell2 = gform.ell + gform.r
            conv = BraidWord.from_runs([(GEN_B, 1)]) * delta_power(-1)
        conj = conv * conj
        mform, shift = _generic_from_slots(ell2, slots)
        if shift:
            # rotate the raw slot word left by `shift` slots
            prefix_runs: list[tuple[str, int]] = []
            for e in slots[:shift]:
                prefix_runs.append((GEN_A, -1))
                if e:
                    prefix_runs.append((GEN_B, e))
            prefix = BraidWord.from_runs(prefix_runs)
            conj = prefix.inverse() * conj
        if isinstance(mform, MurasugiGeneric):
            mform, steps = _rotate_generic(mform)
            if steps:
                # rotating k pairs to the back conjugates by their inverse
                head_runs: list[tuple[str, int]] = []
                rotated_back = mform.pairs[-steps:] if steps else ()
                # the pairs moved to the back are the first `steps` of the
                # pre-rotation list, i.e. the last `steps` of the rotated one
                for p, q in rotated_back:
                    head_runs.append((GEN_A, -p))
                    head_runs.append((GEN_B, q))
                head = BraidWord.from_runs(head_runs)
                conj = head.inverse() * conj

    cert = ConjugacyCertificate(conjugator=conj, source=word, target=realize(mform))
    if not cert.verify():
        raise InternalInconsistencyError(
            f"conversion certificate failed for {word.display()!r}"
        )
    return mform, cert
