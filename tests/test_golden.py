"""Frozen report output: the JSON report of every short word must not change.

tests/golden_reports.jsonl holds json.dumps(report_json(build_report(w)))
for every freely reduced word of length <= 4 followed by the README example
words, one per line.  The words of length <= 7 are pinned by a digest over
the same lines instead of a file, and so are the Garside and Murasugi
forms of those words with the conjugators of their certificates.
"""

import hashlib
import json
from pathlib import Path

from braid3 import build_report, garside_normal_form, murasugi_from_garside, parse
from braid3.cli import report_json
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
