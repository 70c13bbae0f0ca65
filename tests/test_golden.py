"""Frozen report output: the JSON report of every short word must not change.

tests/golden_reports.jsonl holds json.dumps(report_json(build_report(w)))
for every freely reduced word of length <= 4 followed by the README example
words, one per line.  The words of length <= 7 are pinned by a digest over
the same lines instead of a file, and so are the Garside and Murasugi
forms of those words with the conjugators of their certificates.  A third
digest pins cobordism certificates and the verdicts, reasons in order, on
them and on tampered copies.
"""

import copy
import hashlib
import json
from fractions import Fraction
from pathlib import Path

from braid3 import build_report, garside_normal_form, murasugi_from_garside, parse
from braid3.cli import certificate_from_json, certificate_json, report_json
from braid3.cobordism import torus_sum_cobordism, twist_trick, verify
from braid3.normal_form import form_display

from conftest import reduced_words

GOLDEN = Path(__file__).with_name("golden_reports.jsonl")

README_EXAMPLES = (
    "a^3 B a^-3 B", "a^3 b A^2 b^2", "b a^3 b a^-3", "abababab",
    "a^2 b^2 a^3 b^3", "a b",
)

#: sha256 of the report lines for every reduced word of length <= 7, then the examples
DIGEST_LEN_7 = "e5fae5edc5c78176699e2602eb9f38adb5fba09af39aecc4ce6a730025833d6f"

#: sha256 of the certificate lines for the same words
CONJUGATOR_DIGEST_LEN_7 = "679d8059ac9de6858593020307597eb9b6f29c8f40d83b4e33d273dcbe305e56"

#: sha256 of the cobordism certificate and verdict lines, see _cobordism_lines
COBORDISM_DIGEST = "06a53007509f63918812b4ae4c2a4300aa38defd15101b4adddd185a50ee4e00"


def _words(max_len: int) -> list:
    return [*reduced_words(max_len), *map(parse, README_EXAMPLES)]


def _lines(max_len: int) -> list[str]:
    return [json.dumps(report_json(build_report(w))) + "\n" for w in _words(max_len)]


def test_reports_match_golden_file():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
    got = _lines(4)
    assert len(got) == len(expected) == 167
    for want, line in zip(expected, got):
        assert line == want


def test_reports_match_length_7_digest():
    lines = _lines(7)
    assert len(lines) == 4379
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == DIGEST_LEN_7


def _certificate_line(word) -> str:
    g, gcert = garside_normal_form(word)
    m, mcert = murasugi_from_garside(g, gcert)
    fields = [form_display(g), gcert.conjugator.display(), form_display(m), mcert.conjugator.display()]
    return json.dumps(fields) + "\n"


def test_certificates_match_length_7_digest():
    lines = [_certificate_line(w) for w in _words(7)]
    assert len(lines) == 4379
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == CONJUGATOR_DIGEST_LEN_7


def _tampered(data: dict):
    """The certificate dict, then copies with genus + 1, the first move
    shifted (or an extra insert when there is none), a longer start word and
    the first torus factor's q + 2."""
    yield data
    d = copy.deepcopy(data)
    genus = Fraction(d["genus"]) + 1
    d["genus"] = f"{genus.numerator}/{genus.denominator}"
    yield d
    d = copy.deepcopy(data)
    if d["moves"]:
        d["moves"][0]["position"] += 1
    else:
        d["moves"].append({"kind": "insert_generator", "position": 0, "generator": "a"})
    yield d
    d = copy.deepcopy(data)
    d["start"] += " a^2"
    yield d
    d = copy.deepcopy(data)
    next(f for f in d["end_factors"] if f["type"] == "torus")["q"] += 2
    yield d


def _cobordism_lines() -> list[str]:
    """Torus-sum certificates of the positive knot words of length <= 7 on
    both generators, then twist certificates of the knot words of length
    <= 5 with n = 1, 2: each certificate's JSON, then [verdict, reasons]
    for it and each tampered copy."""
    certs = [
        torus_sum_cobordism(w) for w in reduced_words(7)
        if w.is_knot() and all(exp > 0 for _, exp in w) and len({gen for gen, _ in w}) == 2
    ]
    certs += [twist_trick(w, n) for w in reduced_words(5) if w.is_knot() for n in (1, 2)]
    assert len(certs) == 54 + 176
    lines = []
    for cert in certs:
        data = certificate_json(cert, True)
        lines.append(json.dumps(data))
        for d in _tampered(data):
            result = verify(certificate_from_json(d))
            lines.append(json.dumps([bool(result), list(result.reasons)]))
    return lines


def test_cobordism_certificates_match_digest():
    lines = _cobordism_lines()
    assert len(lines) == 1380
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == COBORDISM_DIGEST
