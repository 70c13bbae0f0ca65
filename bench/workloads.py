"""
Seeded input generators for the braid3 benchmark workloads.

Every generator is a pure function of (workload, seed): inputs are produced
as the text a user would type, item by item, from one `random.Random`
stream, so the same seed always yields the same sequence.

The parameters that set an item's cost (word length, exponents, twist
depth) are not drawn per item but follow a fixed low-discrepancy design,
the Kronecker sequence R_4 of Roberts, so every run covers their ranges
evenly; the seed draws everything else (the letters of each word, the
exponents of the cobordism words, and a jitter on the large exponents).  Item costs spread over a factor of 30 on
some workloads, and with freely drawn sizes one seed's run measured a
different mix than another's.

This module imports nothing from braid3.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import oracle

LETTERS = "aAbB"
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}

# Steps of the R_4 sequence: powers of 1/g, where g is the real root of
# x^5 = x + 1.  One coordinate per cost parameter of a workload.
_G = 1.1673039782614187
_STEPS = tuple(_G ** -(k + 1) for k in range(4))


@dataclass(frozen=True)
class ReportItem:
    """One word for the parse -> build_report -> JSON pipeline."""

    text: str


@dataclass(frozen=True)
class CobordismItem:
    """One certificate round trip.

    kind is "torus-sum" (word is the positive alternating-shape input) or
    "twist" (word is gamma, n the twist count).  tamper names the field
    altered in a second, tampered replay, or is None.
    """

    kind: str
    text: str
    n: int
    tamper: str | None


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "report" | "cobordism"
    #: items in the batch that every pass replays; their output makes the digest
    batch: int
    #: items timed together, about a tenth of a second of work
    chunk: int
    make: Callable[[random.Random], Iterator]


def _design(i: int, k: int) -> float:
    """Coordinate k of point i of the R_4 sequence, in [0, 1)."""
    return ((i + 1) * _STEPS[k]) % 1.0


def _scaled(u: float, lo: int, hi: int) -> int:
    """Map u in [0, 1) onto the integers lo..hi evenly."""
    return lo + int(u * (hi - lo + 1))


def reduced_word(rng: random.Random, length: int) -> str:
    """A uniformly random freely reduced word over a A b B."""
    out = [rng.choice(LETTERS)]
    while len(out) < length:
        ch = rng.choice(LETTERS)
        if ch != _INVERSE[out[-1]]:
            out.append(ch)
    return "".join(out)


def _syllables_text(exponents: list[int]) -> str:
    parts = []
    for idx, e in enumerate(exponents):
        letter = "a" if idx % 2 == 0 else "b"
        parts.append(f"{letter}^{e}")
    return " ".join(parts)


def _reports_short(rng) -> Iterator[ReportItem]:
    for i in itertools.count():
        yield ReportItem(reduced_word(rng, _scaled(_design(i, 0), 1, 16)))


def _oracle_long(rng) -> Iterator[ReportItem]:
    # all four exponents set the cost: the tail a^p b^q and the order of n
    # and m decide the form's class and with it the conjugator's length, so
    # one jitter moves both n and m and keeps their order
    for i in itertools.count():
        jitter = rng.randint(-10, 10)
        n = _scaled(_design(i, 0), 110, 590) + jitter
        m = _scaled(_design(i, 1), 110, 590) + jitter
        p, q = _scaled(_design(i, 2), 1, 5), _scaled(_design(i, 3), 1, 5)
        yield ReportItem(f"a^{n} b^{m} a^{p} b^{q}")


def _twisted_negative(rng) -> Iterator[ReportItem]:
    for i in itertools.count():
        m = _scaled(_design(i, 0), 10, 60)
        w = reduced_word(rng, _scaled(_design(i, 1), 2, 12))
        yield ReportItem(f"D^-{2 * m} {w}")


def _knot_exponents(rng, pairs: int, negate_one: bool) -> list[int]:
    while True:
        exps = [rng.randint(1, 9) for _ in range(2 * pairs)]
        if negate_one:
            exps[rng.randrange(len(exps))] *= -1
        if oracle.components(_syllables_text(exps)) == 1:
            return exps


_TAMPER_FIELDS = ("genus", "move", "end_factor")


def _cobordism_roundtrip(rng) -> Iterator[CobordismItem]:
    for i in itertools.count():
        # every fifth certificate is also replayed once with one field altered
        tamper = _TAMPER_FIELDS[(i // 5) % 3] if i % 5 == 0 else None
        if i % 4 == 3:
            exps = _knot_exponents(rng, _scaled(_design(i, 0), 1, 3), negate_one=True)
            yield CobordismItem("twist", _syllables_text(exps), _scaled(_design(i, 1), 1, 4), tamper)
        else:
            exps = _knot_exponents(rng, _scaled(_design(i, 0), 1, 5), negate_one=False)
            yield CobordismItem("torus-sum", _syllables_text(exps), 0, tamper)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reports-short", "report", 3000, 150, _reports_short),
        Workload("oracle-long", "report", 24, 1, _oracle_long),
        Workload("twisted-negative", "report", 80, 2, _twisted_negative),
        Workload("cobordism-roundtrip", "cobordism", 1200, 50, _cobordism_roundtrip),
    )
}


def items(workload: str, seed: int) -> Iterator:
    """The endless, seed-determined input sequence of a workload."""
    return WORKLOADS[workload].make(random.Random(f"{workload}:{seed}"))
