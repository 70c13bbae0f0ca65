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

The classifier works constructively: delta_positive_split eliminates
inverse letters through a^-1 = D^-1 ab and b^-1 = D^-1 ba,
_extract_half_twists pulls half twists out of the positive remainder in
one stack pass, and _classify sorts the residue into its case.  Merged runs
alternate generators, so a tail is held as one generator and exponents.
Every step preserves the group element or conjugates by a word appended
to one list of pieces, and the Murasugi conversion appends its own pieces
the same way, so each result ships with a ConjugacyCertificate, a proof
by construction: making one runs the exact word-problem oracle of module
burau (the SL2(Z) image of the braid paired with its writhe).  The
Murasugi one composes the Garside one with the checked conversion.  Each
stage is linear in the letter count of the split word.

Canonical rotation: among all cyclic rotations of the exponent sequence
(2r of them for case C, 2r-1 for case D -- odd shifts exchange the roles
of a and b, which is a conjugation by the half twist), take those with the
largest leading exponent and break ties by the lexicographically smallest
full sequence.  Murasugi generic forms rotate by whole (a^-p, b^q) pairs
and take the lexicographically smallest flattened sequence.  One linear
two-pointer scan, _least_rotation, finds both, the Garside one among the
rotations that start at the largest exponent; on a periodic sequence it
takes the first least rotation, which fixes the conjugator.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import chain, cycle

from .burau import conjugates_to
from .words import GEN_A, GEN_B, BraidWord, Value, _word, delta_runs, display_runs


class InternalInconsistencyError(RuntimeError):
    """A theorem-level sanity check failed; indicates a classifier bug."""


def _made(form, delta: int, runs, **fields) -> None:
    """Store a form's checked fields with the word it displays, D^delta
    times runs that alternate generators and have nonzero exponents, so
    they need no merge; nothing is written into the form afterwards."""
    form.__dict__.update(fields, _word=BraidWord(tuple(runs), delta))


def _pair_runs(pairs: tuple[tuple[int, int], ...], sign: int) -> list[tuple[str, int]]:
    return [run for p, q in pairs for run in ((GEN_A, sign * p), (GEN_B, q))]


# ---------------------------------------------------------------------------
# Garside forms


class GarsideA(Value):
    """D^(2l) a^p with p >= 0; closures are links, never knots."""

    case = "A"

    def __init__(self, ell: int, p: int):
        if p < 0:
            raise ValueError("case A needs p >= 0")
        _made(self, 2 * ell, [(GEN_A, p)] if p else [], ell=ell, p=p)


class GarsideB(Value):
    """D^(2l) a^p b with p in {1, 2, 3}; the torus-closure cases."""

    case = "B"

    def __init__(self, ell: int, p: int):
        if p not in (1, 2, 3):
            raise ValueError("case B needs p in {1,2,3}")
        _made(self, 2 * ell, [(GEN_A, p), (GEN_B, 1)], ell=ell, p=p)


class GarsideC(Value):
    """D^(2l) a^p1 b^q1 ... a^pr b^qr with every exponent >= 2."""

    case = "C"

    def __init__(self, ell: int, pairs: tuple[tuple[int, int], ...]):
        if not pairs:
            raise ValueError("case C needs r >= 1")
        if min(chain(*pairs)) < 2:
            raise ValueError("case C needs all exponents >= 2")
        _made(self, 2 * ell, _pair_runs(pairs, 1), ell=ell, pairs=pairs)

    @property
    def r(self) -> int:
        return len(self.pairs)


class GarsideD(Value):
    """D^(2l+1) a^p1 b^q1 ... a^p_{r-1} b^q_{r-1} a^p_r, exponents >= 2.

    r counts the a-runs, so r = len(pairs) + 1.
    """

    case = "D"

    def __init__(self, ell: int, pairs: tuple[tuple[int, int], ...], p_r: int):
        if min(chain((p_r,), *pairs)) < 2:
            raise ValueError("case D needs all exponents >= 2")
        _made(self, 2 * ell + 1, _pair_runs(pairs, 1) + [(GEN_A, p_r)],
              ell=ell, pairs=pairs, p_r=p_r)

    @property
    def r(self) -> int:
        return len(self.pairs) + 1


GarsideForm = GarsideA | GarsideB | GarsideC | GarsideD


# ---------------------------------------------------------------------------
# Murasugi forms


class MurasugiPower(Value):
    """D^(2l) a^p, p in Z; 2- or 3-component links."""

    case = "power"

    def __init__(self, ell: int, p: int):
        _made(self, 2 * ell, [(GEN_A, p)] if p else [], ell=ell, p=p)


class MurasugiHalfTwist(Value):
    """D^(2l+1); a 2-component link."""

    case = "half-twist"

    def __init__(self, ell: int):
        _made(self, 2 * ell + 1, [], ell=ell)


class MurasugiTorus(Value):
    """D^(2l) ab or D^(2l) (ab)^2; the braid-index-3 torus closures."""

    case = "torus"

    def __init__(self, ell: int, variant: str):  # variant "ab" | "abab"
        if variant not in ("ab", "abab"):
            raise ValueError("variant must be 'ab' or 'abab'")
        _made(self, 2 * ell, [(GEN_A, 1), (GEN_B, 1)] * (1 if variant == "ab" else 2),
              ell=ell, variant=variant)


class MurasugiGeneric(Value):
    """D^(2l) a^-p1 b^q1 ... a^-pr b^qr with every p_i, q_i >= 1."""

    case = "generic"

    def __init__(self, ell: int, pairs: tuple[tuple[int, int], ...]):
        if not pairs:
            raise ValueError("generic form needs r >= 1")
        if min(chain(*pairs)) < 1:
            raise ValueError("generic form needs all exponents >= 1")
        _made(self, 2 * ell, _pair_runs(pairs, -1), ell=ell, pairs=pairs)


MurasugiForm = MurasugiPower | MurasugiHalfTwist | MurasugiTorus | MurasugiGeneric


def delta_exponent(form: GarsideForm | MurasugiForm) -> int:
    """The power of the half twist D displayed by the form."""
    return realize(form).delta


def realize(form: GarsideForm | MurasugiForm) -> BraidWord:
    """The braid word displayed by a normal form, its D^k kept as the
    word's delta; its syllables are those of the expanded word.  The form
    is made with it, so every call returns the same word object."""
    return form._word


def form_display(form: GarsideForm | MurasugiForm) -> str:
    """Input-grammar rendering, D-power first, e.g. 'D^-3 a^7'."""
    word = realize(form)
    k = word.delta
    parts = [] if k == 0 else ["D" if k == 1 else f"D^{k}"]
    body = display_runs(word.tail)
    if body:
        parts.append(body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Certificates


class ConjugacyCertificate(Value):
    """Proof that conjugator * source * conjugator^-1 = target in B3: making
    one runs the oracle, and a false claim raises InternalInconsistencyError."""

    def __init__(self, conjugator: BraidWord, source: BraidWord, target: BraidWord):
        self.__dict__.update(conjugator=conjugator, source=source, target=target)
        if not self.verify():
            raise InternalInconsistencyError(f"certificate failed for {source.display()!r}")

    def verify(self) -> bool:
        return conjugates_to(self.conjugator, self.source, self.target)


class DeltaSplit(Value):
    """A word as D^(2k) * positive_part with positive_part a positive word.
    k is positive only when the word's own leading D power outweighs its
    inverse letters."""

    def __init__(self, k: int, positive_part: BraidWord):
        self.__dict__.update(k=k, positive_part=positive_part)


#: generator <-> bit, so that exchanging a and b (tau) is an XOR with 1
_BIT = {GEN_A: 0, GEN_B: 1}
_GEN = (GEN_A, GEN_B)

#: one period of the alternating generators from a (index 0) and from b (index 1)
_GEN_FLIP = (_GEN, _GEN[::-1])

#: the half twist D = aba, as conjugator runs
_D_RUNS = delta_runs(1)


def delta_positive_split(word: BraidWord) -> DeltaSplit:
    """Rewrite word = D^(2k) * P with P a positive word.

    Each inverse letter of the tail is replaced through a^-1 = D^-1 ab and
    b^-1 = D^-1 ba, and each D^-1 is pulled to the front through
    u D^-1 = D^-1 tau(u), where tau exchanges a and b.  A letter is stored
    as its generator XOR the parity of the D^-1 emitted so far, so pulling
    one through the whole prefix costs nothing; the generators are read off
    against the total m at the end.  The word's own D^delta is already in
    front, so the power is e = delta - m; D^(2j) is central, and when e is
    odd, D^e = D^(e-1) aba puts one D into P.  P has 2 letters per inverse
    letter of the tail, plus 3 when e is odd, whatever delta is.  Pure word
    arithmetic, no conjugation.

    One pass merges the runs of P into a list of exponents and keeps the
    stored bit of the last run only: merged runs alternate generators, so
    P's first letter fixes them all.  Every exponent is positive, so nothing
    cancels.  An inverse run g^-n gives the letters x1 y1 x2 y2 ... xn yn
    with y_i = x_(i+1), which merge into n + 1 runs x1^1 x2^2 ... xn^2 y_n^1.
    """
    tail = word.tail
    if not tail:  # D^delta alone: P is D^(delta & 1)
        return DeltaSplit(k=word.delta >> 1, positive_part=BraidWord(delta_runs(word.delta & 1)))
    exps: list[int] = []
    last = m = 0  # last: the stored bit of the last run, a generator bit XOR parity of m
    for gen, exp in tail:
        x = _BIT[gen] ^ (m & 1)
        n = 0
        if exp < 0:  # the first letter counts its own D^-1
            n, exp, x = -exp, 1, x ^ 1
            m += n
        if exps and last == x:
            exps[-1] += exp
        else:
            exps.append(exp)
        if n:  # n - 1 squares, then a single, alternating from x ^ 1
            exps += [2] * (n - 1)
            exps.append(1)
        last = x ^ (n & 1)
    e = word.delta - m
    first = _BIT[tail[0][0]] ^ (tail[0][1] < 0) ^ (m & 1)  # P's first generator bit
    front = ()
    if e & 1:  # D = a b a in front; its last a merges into a leading a-run of P
        front = _D_RUNS
        if not first:
            front = _D_RUNS[:2]
            exps[0] += 1
    runs = zip(cycle(_GEN_FLIP[first]), exps)
    return DeltaSplit(k=e >> 1, positive_part=BraidWord(front + tuple(runs)))


# ---------------------------------------------------------------------------
# The classifier: the working braid is D^n times a positive tail, and each
# conjugation appends its word to `pieces`, so that D^n * tail is
# conj * original * conj^-1 with conj the pieces multiplied last first.


def _extract_half_twists(n: int, positive: BraidWord, pieces: list) -> tuple[int, int, list]:
    """Pull D factors out of D^n * positive until no rotation of the tail
    exposes one; return the new n, the generator bit of the tail's first
    run and the tail's exponents, its runs alternating generators from it.

    One left-to-right pass reads the runs by index and pushes their
    exponents onto a stack whose runs alternate from the generator of its
    bottom run; at most one run waits outside it, as a bit and an exponent.
    Every stack run strictly between the bottom and the one below the top
    has exponent >= 2, so when the run below the top is a single h between
    g-runs, g h g = D is extracted there: u D v = D tau(u) v moves it to
    the front and exchanges the generators of the stack below, which flips
    the bottom generator.  The rest of the extracted top run waits.

    When the input is used up, the tail still has a half twist exactly
    when its rotation through D^n does: a single at the bottom or the top
    of the stack whose seam does not merge the two boundary runs.  The pass
    then continues by rotating the bottom letter onto the top, conjugating
    it through D^n; that letter waits.  Each extraction removes three letters
    and follows at most two such rotations, so the work is linear in the
    letter count.  The stack is a deque because a rotation deletes at the
    bottom.
    """
    exps: deque[int] = deque()
    runs = positive.tail
    i, count = 0, len(runs)
    first = 0  # the generator bit of the bottom run
    g = wait = 0  # the waiting run, pushed before runs[i] when wait > 0: bit, exponent
    idle = 0  # rotations since the last extraction
    while True:
        while True:
            if wait:
                e, wait = wait, 0
            elif i < count:
                gen, e = runs[i]
                g = _BIT[gen]
                i += 1
            else:
                break
            if exps and first ^ ((len(exps) - 1) & 1) == g:  # the top run is on g
                exps[-1] += e
            else:
                first = first if exps else g  # g starts an empty stack
                exps.append(e)
            if len(exps) >= 3 and exps[-2] == 1:
                wait = exps.pop() - 1  # the rest of the top run waits on g
                del exps[-1]
                if exps[-1] == 1:
                    del exps[-1]
                else:
                    exps[-1] -= 1
                first ^= 1
                n += 1
                idle = 0
        # a seam that merges the boundary runs, or a tail of at most two
        # letters, exposes no half twist
        if (
            len(exps) < 2
            or len(exps) % 2 != n % 2
            or (len(exps) == 2 and exps[0] + exps[1] < 3)
            or (exps[0] > 1 and exps[-1] > 1)
        ):
            break
        idle += 1
        if idle > 2:
            raise InternalInconsistencyError(
                "expected half twist did not surface under rotation"
            )
        g, wait = first ^ (n & 1), 1  # the bottom letter, conjugated through D^n
        if exps[0] == 1:
            del exps[0]
            first ^= 1
        else:
            exps[0] -= 1
        pieces.append(((_GEN[g], -1),))
    return n, first, list(exps)


def _least_rotation(seq: list, top=None) -> int:
    """Smallest index of the lexicographically least rotation of seq, among
    the rotations that begin with top, or among all of them when top is None.

    Candidates i < j stand, and every other candidate below j loses to some
    candidate.  When their rotations agree on k entries and i's is larger
    in the next one, each candidate i + t, t < k, loses to the candidate
    j + t, and so does i + k when every index is a candidate; likewise with
    i and j exchanged.  Each mismatch moves a pointer past the k entries it
    compared, so the scan makes O(len(seq)) element comparisons.  Agreement
    on all n entries means seq is periodic, and i is the first least start.
    """
    n = len(seq)
    starts = range(n) if top is None else [x for x, e in enumerate(seq) if e == top]
    past = top is None  # whether the mismatched start itself loses
    s = seq + seq
    a, b, k = 0, 1, 0  # i = starts[a], j = starts[b]
    while b < len(starts) and k < n:
        i, j = starts[a], starts[b]
        x, y = s[i + k], s[j + k]
        if x == y:
            k += 1
            continue
        if x < y:
            b = bisect_left(starts, j + k + past, b)
        else:
            a = bisect_left(starts, i + k + past, b)
            b = a + 1
        k = 0
    return starts[a]


def _rotate_canonically(n: int, exps: list[int], pieces: list) -> list[int]:
    """Rotate the exponents of an a-leading alternating tail left by the
    canonical shift and return them.  Each leading a-run is conjugated to
    the back through D^n, where it reads as b when n is odd, and a
    conjugation by D makes the tail a-leading again."""
    shift = _least_rotation(exps, max(exps))
    moved = _GEN[n & 1]
    for e in exps[:shift]:
        pieces.append(((moved, -e),))
        pieces.append(_D_RUNS)
    return exps[shift:] + exps[:shift]


def _classify(n: int, first: int, exps: list[int], pieces: list) -> GarsideForm:
    """Sort the extracted D^n * tail into its case, canonically rotated;
    the tail alternates generators from the bit first with exponents exps."""
    if not exps:
        if n % 2 == 0:
            return GarsideA(n // 2, 0)
        # D^(2l+1) = a (D^2l a^2 b) a^-1
        pieces.append(((GEN_A, 1),))
        return GarsideB((n - 1) // 2, 2)

    if first:
        # conjugating by D exchanges the generators: the tail leads with a
        pieces.append(_D_RUNS)

    if len(exps) == 1:
        if n % 2 == 0:
            return GarsideA(n // 2, exps[0])
        if exps[0] == 1:
            # D^(2l+1) a = a^2 (D^2l a^3 b) a^-2
            pieces.append(((GEN_A, 2),))
            return GarsideB((n - 1) // 2, 3)
        # a^p with p >= 2 is case D without pairs, below

    if n % 2 == 0 and sum(exps) == 2:
        return GarsideB(n // 2, 1)
    if len(exps) % 2 != n % 2:
        # the last run, a for even n and b for odd, reads as a through D^n:
        # conjugating it to the front merges it into the first run
        e = exps.pop()
        exps[0] += e
        pieces.append(((_GEN[n & 1], e),))
    exps = _rotate_canonically(n, exps, pieces)
    if n % 2 == 0:
        return GarsideC(n // 2, tuple(zip(exps[::2], exps[1::2])))
    return GarsideD((n - 1) // 2, tuple(zip(exps[:-1:2], exps[1::2])), exps[-1])


def garside_normal_form(word: BraidWord) -> tuple[GarsideForm, ConjugacyCertificate]:
    """Classify a 3-braid word up to conjugacy; total on all inputs.

    Returns the canonical form and the certificate, checked when it is made,
    of an explicit conjugator taking the input word to the realized form.
    """
    split = delta_positive_split(word)
    pieces: list[tuple[tuple[str, int], ...]] = []  # conjugating words, in order
    form = _classify(*_extract_half_twists(2 * split.k, split.positive_part, pieces), pieces)
    return form, ConjugacyCertificate(_conjugator(pieces), word, realize(form))


def _conjugator(pieces: list) -> BraidWord:
    """The pieces multiplied last first, merged."""
    return _word(chain.from_iterable(reversed(pieces)))


# ---------------------------------------------------------------------------
# Murasugi normal form via the Garside classification


def _unrotate(pairs: list[tuple[int, int]]) -> list[tuple[str, int]]:
    """(prod a^-p b^q over pairs)^-1, the conjugator that rotates it to the back."""
    return [run for p, q in reversed(pairs) for run in ((GEN_B, -q), (GEN_A, p))]


def _generic_from_slots(ell: int, slots: list[int], pieces: list) -> MurasugiForm:
    """Cyclic merge of the slot word a^-1 b^e1 a^-1 b^e2 ... into generic
    pairs, then the canonical pair rotation (lexicographically smallest
    flattening).  Both rotations append their conjugator to pieces."""
    # one walk merges the slot word up to its last nonzero b-run into pairs
    pairs = []
    last = -1
    for j, e in enumerate(slots):
        if e:
            pairs.append((j - last, e))
            last = j
    if not pairs:
        return MurasugiPower(ell, -len(slots))
    # start the slot word just after its last nonzero b-run: the a^-1 after
    # it merge into the first pair
    trailing = len(slots) - 1 - last
    if trailing:
        pieces.append(_unrotate(pairs))
        pairs[0] = (pairs[0][0] + trailing, pairs[0][1])
    # the flattenings compare like the pair sequences, pairs as tuples
    best = _least_rotation(pairs)
    pieces.append(_unrotate(pairs[:best]))
    return MurasugiGeneric(ell, tuple(pairs[best:] + pairs[:best]))


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
    gcert is a proof, so only the conversion is checked, on gcert's target."""
    pieces: list = []  # the conversion, which conjugates on top of gcert's
    if isinstance(gform, GarsideA):
        mform: MurasugiForm = MurasugiPower(gform.ell, gform.p)
    elif isinstance(gform, GarsideB):
        if gform.p == 1:
            mform = MurasugiTorus(gform.ell, "ab")
        else:
            pieces.append(((GEN_A, -1),))
            mform = (MurasugiHalfTwist(gform.ell) if gform.p == 2
                     else MurasugiTorus(gform.ell, "abab"))
    else:
        slots = [x - 2 for pq in gform.pairs for x in pq]
        if isinstance(gform, GarsideD):
            slots.append(gform.p_r - 2)
            pieces.append(delta_runs(-1))
        pieces.append(((GEN_B, 1),))  # the conversion is b, or b D^-1 for case D
        mform = _generic_from_slots(gform.ell + gform.r, slots, pieces)
    conv = ConjugacyCertificate(_conjugator(pieces), gcert.target, realize(mform))
    # c s c^-1 = t and d t d^-1 = u give (dc) s (dc)^-1 = u, unchecked; both
    # conjugators are merged, so only their seam can merge
    cert = ConjugacyCertificate.__new__(ConjugacyCertificate)
    vars(cert).update(conjugator=conv.conjugator * gcert.conjugator,
                      source=gcert.source, target=conv.target)
    return mform, cert
