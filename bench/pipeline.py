"""
The per-item pipelines the benchmark drives through braid3's public API,
and the tracing of a traced pass.

A report item is `braid3 batch` without the CSV:
parse -> build_report (oracle check on) -> report_json -> json.dumps.

A cobordism item is `braid3 certify` followed by `braid3 verify --cert`:
build -> certificate_json -> json text -> certificate_from_json -> verify,
plus, for a fixed share of items, a replay of a tampered copy.

Both run the same code.  An untraced pass hands it NO_TRACE, which
records nothing.  A traced pass hands it a Tracer: the calls the
benchmark makes are wrapped in spans, and `instrumented` swaps, for the
length of the pass, the public layer functions that build_report and
cobordism call for span-recording wrappers under the names those modules
look them up by.  braid3 itself is not changed.  The traced item must
print the same lines as the untraced one, which measure.py checks item by
item.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from time import perf_counter

import braid3.cobordism
import braid3.invariants
import braid3.normal_form
from braid3 import (
    InvariantReport,
    build_report,
    parse,
    torus_sum_cobordism,
    twist_trick,
    verify_cobordism,
)
from braid3.cli import certificate_from_json, certificate_json, report_json
from braid3.normal_form import ConjugacyCertificate, delta_exponent

LAYERS = ("words", "normal_form", "burau", "invariants", "cli", "cobordism")

#: the invariant functions build_report calls, by their names in braid3.invariants
INVARIANTS = (
    "upsilon", "signature", "rasmussen_s", "genus_tau", "alternating_distances",
    "minimal_positive_switches", "fdtc", "homogenized_upsilon",
    "derived_concordance", "upsilon_upper_bound_slope",
)


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, item id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = -1
        self._open: list[int] = []
        self._split_k = 0

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_times(self) -> Counter:
        """Per span name: duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[idx]
        return out

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(result) updates the counters."""
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out)
            return out
        return traced

    # counters, taken from what the wrapped calls return

    def _split(self, split) -> None:
        self.counts["normal_form.split_letters"] += len(split.positive_part)
        self._split_k = split.k

    def _garside(self, result) -> None:
        form, cert = result
        # the split made inside this call is the last one recorded
        self.counts["normal_form.delta_gain"] += delta_exponent(form) - 2 * self._split_k
        self.counts["normal_form.conjugator_letters"] += len(cert.conjugator)

    def _murasugi(self, result) -> None:
        self.counts["normal_form.conjugator_letters"] += len(result[1].conjugator)

    def _verify(self, cert, ok: bool) -> None:
        count = self.counts
        count["burau.calls"] += 1
        # the Burau check multiplies out conjugator*source and target*conjugator
        count["burau.letters"] += 2 * len(cert.conjugator) + len(cert.source) + len(cert.target)
        count["burau.passed"] += ok


class _NoTrace:
    """Stands in for a Tracer in untraced passes: no spans, counts dropped."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def span(self, name: str):
        return _NO_SPAN


_NO_SPAN = nullcontext()
NO_TRACE = _NoTrace()


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tr = self.tracer
        self.idx = len(tr.spans)
        parent = tr._open[-1] if tr._open else -1
        tr.spans.append([self.name, perf_counter(), 0.0, parent, tr.item])
        tr._open.append(self.idx)

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        tr.spans[self.idx][2] = perf_counter()
        tr._open.pop()


@contextmanager
def instrumented(tr: Tracer):
    """Within the block, the layer functions below record spans in tr.

    Each is replaced where its caller resolves it: the split in
    normal_form (garside_normal_form calls it), the classifiers in
    invariants (build_report) and cobordism (replays), the certificate
    check on its class, and the invariant functions in invariants.
    """
    nf, inv, cob = braid3.normal_form, braid3.invariants, braid3.cobordism
    garside = tr.wrap("normal_form.garside", nf.garside_normal_form, tr._garside)
    verify = ConjugacyCertificate.verify

    def traced_verify(cert):
        with tr.span("burau.verify"):
            ok = verify(cert)
        tr._verify(cert, ok)
        return ok

    patches = [
        (nf, "delta_positive_split", tr.wrap("normal_form.split", nf.delta_positive_split, tr._split)),
        (inv, "garside_normal_form", garside),
        (cob, "garside_normal_form", garside),
        (inv, "murasugi_from_garside",
         tr.wrap("normal_form.murasugi", nf.murasugi_from_garside, tr._murasugi)),
        (ConjugacyCertificate, "verify", traced_verify),
    ]
    # one that build_report stops calling would count in its own self time,
    # which is invariants.eval too
    patches += [(inv, name, tr.wrap("invariants.eval", getattr(inv, name)))
                for name in INVARIANTS if hasattr(inv, name)]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, fn in patches:
            setattr(owner, name, fn)
        yield tr
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


# ---------------------------------------------------------------------------
# reports


def report_item(item, tr) -> tuple[list[str], InvariantReport]:
    """parse -> build_report -> report_json -> json.dumps; tr is NO_TRACE
    or a Tracer, in which case run it inside instrumented(tr)."""
    count = tr.counts
    with tr.span("words.parse"):
        word = parse(item.text)
    count["words.letters"] += len(word)
    count["words.syllables"] += len(word.syllables)
    # build_report's own work, the report's assembly, counts as invariants
    with tr.span("invariants.eval"):
        report = build_report(word)
    count["invariants.reports"] += 1
    count["invariants.knots"] += report.is_knot
    with tr.span("cli.json"):
        line = json.dumps(report_json(report))
    count["cli.json_bytes"] += len(line)
    return [line], report


# ---------------------------------------------------------------------------
# cobordism certificates


def _build(item, word):
    # both constructions replay their certificate and raise unless it
    # verifies, so what they return is emitted as verified
    if item.kind == "twist":
        return twist_trick(word, item.n)
    return torus_sum_cobordism(word)


def tampered(data: dict, field: str) -> dict:
    """Certificate JSON with one field altered, in place."""
    if field == "genus":
        num, den = (int(x) for x in data["genus"].split("/"))
        g = Fraction(num, den) + 1
        data["genus"] = f"{g.numerator}/{g.denominator}"
    elif field == "move":
        if data["moves"]:
            data["moves"][0]["position"] += 1
        else:
            data["moves"].append({"kind": "insert_generator", "position": 0, "generator": "a"})
    else:
        torus = next(f for f in data["end_factors"] if f["type"] == "torus")
        torus["q"] += 2
    return data


def _verdict(result) -> str:
    return json.dumps({"verified": bool(result), "reasons": list(result.reasons)})


def cobordism_item(item, tr) -> tuple[list[str], dict]:
    """build -> certificate JSON round trip -> verify, and the tampered
    replay; tr as for report_item."""
    count = tr.counts
    with tr.span("words.parse"):
        word = parse(item.text)
    count["words.letters"] += len(word)
    count["words.syllables"] += len(word.syllables)
    with tr.span("cobordism.build"):
        cert = _build(item, word)
    with tr.span("cli.json"):
        text = json.dumps(certificate_json(cert, True))
        back = certificate_from_json(json.loads(text))
    count["cli.json_bytes"] += len(text)
    with tr.span("cobordism.verify"):
        result = verify_cobordism(back)
    count["cobordism.built"] += 1
    count["cobordism.moves"] += len(cert.moves)
    count["cobordism.passed"] += bool(result)
    lines = [text, _verdict(result)]
    facts = {"cert": cert, "back": back, "ok": bool(result), "rejected": None}
    if item.tamper:
        altered = tampered(json.loads(text), item.tamper)
        with tr.span("cli.json"):
            bad_cert = certificate_from_json(altered)
        with tr.span("cobordism.verify"):
            bad = verify_cobordism(bad_cert)
        count["cobordism.tampered"] += 1
        count["cobordism.rejected"] += not bad
        lines.append(_verdict(bad))
        facts["rejected"] = not bad
    return lines, facts
