"""
Tests of the benchmark itself.  From the repository root:

    python3 -m unittest discover -s bench -v
"""

from __future__ import annotations

import itertools
import json
import sys
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import measure  # noqa: E402
import oracle  # noqa: E402
import pipeline  # noqa: E402
import workloads  # noqa: E402
import braid3.cobordism  # noqa: E402
import braid3.invariants  # noqa: E402
import braid3.normal_form  # noqa: E402
from braid3 import twist_trick, parse, torus_sum_cobordism, verify_cobordism  # noqa: E402
from braid3.cli import certificate_from_json, certificate_json  # noqa: E402

#: items per workload in the counter test, about a second of work each
SMALL = {"reports-short": 200, "oracle-long": 3, "twisted-negative": 6,
         "cobordism-roundtrip": 100}

DETERMINISTIC_COUNTERS = (
    "words.letters", "words.syllables", "normal_form.split_letters",
    "normal_form.delta_gain", "normal_form.conjugator_letters",
    "burau.calls", "burau.letters", "cobordism.moves",
)


def _items(name: str, seed: int, n: int) -> list:
    return list(itertools.islice(workloads.items(name, seed), n))


class InputTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(_items(name, 7, 300), _items(name, 7, 300), name)

    def test_other_seed_other_inputs(self):
        for name in workloads.WORKLOADS:
            self.assertNotEqual(_items(name, 7, 50), _items(name, 8, 50), name)

    def test_inputs_stay_in_their_ranges(self):
        for item in _items("reports-short", 1, 500):
            self.assertTrue(1 <= len(item.text) <= 16)
        for item in _items("twisted-negative", 1, 200):
            twist, word = item.text.split()
            self.assertTrue(20 <= -int(twist[2:]) <= 120 and 2 <= len(word) <= 12)
        for item in _items("cobordism-roundtrip", 1, 200):
            self.assertEqual(oracle.components(item.text), 1)


class OracleTests(unittest.TestCase):
    def test_relations(self):
        self.assertEqual(oracle.image("a b a"), oracle.image("b a b"))
        self.assertEqual(oracle.image("D"), oracle.image("aba"))
        self.assertEqual(oracle.image("a A b^3 B^3"), oracle.image(""))
        # D^4 generates the kernel of the matrix part; the writhe tells it apart
        self.assertEqual(oracle.image("D^4"), (1, 0, 0, 1, 12))
        self.assertEqual(oracle.image("D^2")[:4], (-1, 0, 0, -1))

    def test_conjugates(self):
        self.assertTrue(oracle.conjugates("a", "b", "a b A"))
        self.assertTrue(oracle.conjugates("b", "a b", "b a"))
        self.assertFalse(oracle.conjugates("", "a b", "b a b"))
        self.assertTrue(oracle.conjugates("a^7 B", "D^-3 a^2", "a^7 B D^-3 a^2 b A^7"))
        self.assertFalse(oracle.conjugates("a^7 B", "D^-3 a^2", "b A^7 D^-3 a^2 a^7 B"))

    def test_components(self):
        self.assertEqual(oracle.components("a b"), 1)
        self.assertEqual(oracle.components("a^2 b^2"), 3)
        self.assertEqual(oracle.components("a"), 2)
        self.assertEqual(oracle.components("D^-3"), 2)


class TamperTests(unittest.TestCase):
    def test_every_tampered_field_is_rejected(self):
        certs = [torus_sum_cobordism(parse(w)) for w in ("a^3 b^3", "a^2 b^3 a^3 b^4")]
        certs.append(twist_trick(parse("a b^3 A^3 b"), 2))
        for cert in certs:
            for field in ("genus", "move", "end_factor"):
                data = json.loads(json.dumps(certificate_json(cert, True)))
                result = verify_cobordism(certificate_from_json(pipeline.tampered(data, field)))
                self.assertFalse(result, (cert.start.display(), field))


class TraceTests(unittest.TestCase):
    def _traced(self, name: str, seed: int):
        workload = workloads.WORKLOADS[name]
        call, check = measure._calls(workload)
        tr = pipeline.Tracer()
        for idx, item in enumerate(_items(name, seed, SMALL[name])):
            tr.item = idx
            with pipeline.instrumented(tr), tr.span("item"):
                lines, facts = call(item, tr)
            self.assertEqual(check(item, lines, facts), [])
            self.assertEqual(lines, call(item, pipeline.NO_TRACE)[0], item)
        return tr

    def test_traced_counters_repeat(self):
        for name in workloads.WORKLOADS:
            first, second = self._traced(name, 3), self._traced(name, 3)
            for counter in DETERMINISTIC_COUNTERS:
                self.assertEqual(first.counts[counter], second.counts[counter], (name, counter))
            self.assertEqual(len(first.spans), len(second.spans))

    def test_build_report_calls_are_traced(self):
        tr = self._traced("reports-short", 1)
        names = Counter(span[0] for span in tr.spans)
        items = SMALL["reports-short"]
        # the oracle check on, so both certificates of every report are verified
        self.assertEqual(tr.counts["burau.calls"], 2 * items)
        self.assertEqual(names["burau.verify"], 2 * items)
        self.assertEqual(names["normal_form.garside"], items)
        self.assertEqual(names["normal_form.split"], items)
        self.assertEqual(names["normal_form.murasugi"], items)
        # build_report itself, fdtc and homogenized_upsilon at least
        self.assertGreaterEqual(names["invariants.eval"], 3 * items)

    def test_instrumented_restores_the_layers(self):
        before = {name: getattr(braid3.invariants, name) for name in pipeline.INVARIANTS}
        verify = braid3.normal_form.ConjugacyCertificate.verify
        split = braid3.normal_form.delta_positive_split
        with pipeline.instrumented(pipeline.Tracer()):
            self.assertIsNot(braid3.normal_form.delta_positive_split, split)
        self.assertEqual({name: getattr(braid3.invariants, name) for name in before}, before)
        self.assertIs(braid3.normal_form.ConjugacyCertificate.verify, verify)
        self.assertIs(braid3.normal_form.delta_positive_split, split)
        self.assertIs(braid3.cobordism.garside_normal_form, braid3.normal_form.garside_normal_form)

    def test_self_times_add_up(self):
        tr = self._traced("reports-short", 1)
        total = sum(end - start for name, start, end, parent, _ in tr.spans if parent < 0)
        self.assertAlmostEqual(sum(tr.self_times().values()), total, places=6)


class TailTests(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        self.assertEqual(measure.tail_permille(5000), 990)
        self.assertEqual(measure.tail_permille(10000), 999)
        self.assertEqual(measure.tail_permille(100), 900)
        self.assertEqual(measure.tail_permille(40), 750)
        self.assertEqual(measure.tail_permille(3 * 24), 750)
        self.assertEqual(measure.percentile([float(x) for x in range(1, 101)], 900), 90.0)


if __name__ == "__main__":
    unittest.main()
