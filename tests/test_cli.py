import gc
import io
import json
import os
import random
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import braid3
import braid3.cli
import braid3.cobordism
import braid3.invariants
import braid3.words
from braid3 import build_report, parse
from braid3.cli import main, report_json
from braid3.cobordism import torus_sum_cobordism, twist_trick
from braid3.normal_form import ConjugacyCertificate, InternalInconsistencyError

from conftest import random_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNormalize:
    def test_garside_display(self, capsys):
        code, out, _ = run(capsys, "normalize", "a^3 B a^-3 B")
        assert code == 0 and out.strip() == "D^-3 a^7"

    def test_murasugi_display(self, capsys):
        code, out, _ = run(capsys, "normalize", "--form", "murasugi", "a^3 b A^2 b^2")
        assert code == 0 and out.strip() == "D^2 A b A^3 b"

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "normalize", "")
        assert code == 0
        assert out.strip() == "identity (case A, ℓ=0, p=0)"

    def test_certificate_flag(self, capsys):
        code, out, _ = run(capsys, "normalize", "--certificate", "b a^3 b a^-3")
        assert code == 0
        assert "verified: yes" in out

    @pytest.mark.parametrize("word, form, conjugator", [
        ("b a^3 b a^-3", "D^-3 a^3 b^2 a^2 b^2 a^2", "a b a B"),
        ("", "identity (case A, ℓ=0, p=0)", "<identity>"),
    ])
    def test_certificate_text(self, capsys, word, form, conjugator):
        code, out, _ = run(capsys, "normalize", "--certificate", word)
        assert code == 0
        assert out.splitlines() == [form, f"conjugator: {conjugator}", "verified: yes"]

    def test_certificate_checked_once(self, capsys, monkeypatch):
        calls = []
        real = ConjugacyCertificate.verify

        def counting(cert):
            calls.append(cert)
            return real(cert)

        monkeypatch.setattr(ConjugacyCertificate, "verify", counting)
        code, out, _ = run(capsys, "normalize", "--json", "--certificate", "a^5 b^5 a^3 b^2")
        assert code == 0 and len(calls) == 1
        # the line printed before the second check was dropped
        assert out == (
            '{"input": "a^5 b^5 a^3 b^2", "form": {"display": "a^5 b^3 a^2 b^5", '
            '"case": "C", "ell": 0, "pairs": [[5, 3], [2, 5]]}, "certificate": '
            '{"conjugator": "a b A^4", "source": "a^5 b^5 a^3 b^2", '
            '"target": "a^5 b^3 a^2 b^5", "verified": true}}\n'
        )

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "normalize", "a^3 q")
        assert code == 2 and "parse error" in err

    @pytest.mark.parametrize("text", ["a^²", "a^٣"])
    def test_non_ascii_exponent_is_parse_error(self, capsys, text):
        code, _, err = run(capsys, "normalize", text)
        assert code == 2 and "parse error" in err

    def test_json_without_certificate(self, capsys):
        code, out, _ = run(capsys, "normalize", "--json", "a^3 B a^-3 B")
        assert code == 0 and out == (
            '{"input": "a^3 B A^3 B", "form": {"display": "D^-3 a^7", "case": "D", '
            '"ell": -2, "pairs": [], "p_r": 7}}\n'
        )

    def test_json(self, capsys):
        code, out, _ = run(capsys, "normalize", "--json", "--certificate", "abababab")
        data = json.loads(out)
        assert data["form"]["case"] == "B"
        assert data["form"]["ell"] == 1 and data["form"]["p"] == 1
        assert data["certificate"]["verified"] is True


class TestInvariants:
    def test_torus_report(self, capsys):
        code, out, _ = run(capsys, "invariants", "--json", "abababab")
        data = json.loads(out)
        assert code == 0
        assert data["upsilon"] == -2 and data["signature"] == -6
        assert data["genus3"] == 3 and data["alt"] == {"lo": 1, "hi": 1, "exact": True}
        assert data["fdtc"] == "4/3"

    def test_upsilon_disagreement_exit_code(self, capsys, monkeypatch):
        # the Garside/Murasugi upsilon cross-check is an internal error: exit 4
        real = braid3.invariants.upsilon

        def skewed(form):
            return real(form) + isinstance(form, (braid3.MurasugiGeneric, braid3.MurasugiTorus))

        monkeypatch.setattr(braid3.invariants, "upsilon", skewed)
        code, out, err = run(capsys, "invariants", "a^2 b^2 a^3 b^3")
        assert code == 4 and out == ""
        assert len(err.splitlines()) == 1 and "upsilon disagreement" in err

    def test_unknot_closure(self, capsys):
        _, out, _ = run(capsys, "invariants", "--json", "A b")
        data = json.loads(out)
        assert data["upsilon"] == 0 and data["signature"] == 0

    def test_link_report(self, capsys):
        _, out, _ = run(capsys, "invariants", "--json", "a^3")
        data = json.loads(out)
        assert data["is_knot"] is False and data["components"] == 2
        assert data["upsilon"] is None
        assert data["fdtc"] == "0/1"
        assert data["garside_form"]["case"] == "A"

    def test_fixed_key_set(self, capsys):
        _, out, _ = run(capsys, "invariants", "--json", "a^3 b A^2 b^2")
        data = json.loads(out)
        assert set(data) == {
            "word", "components", "is_knot", "upsilon", "signature", "s",
            "genus3", "genus4", "tau", "alt", "dalt", "turaev", "minimal_r",
            "ballinger_t", "fdtc", "homogenized_upsilon", "gamma4_lower",
            "garside_form", "murasugi_form", "flags",
        }

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "invariants", "a^3 B a^-3 B")
        assert code == 0
        assert "upsilon: 0" in out
        assert "alt: [0, 1]" in out

    def test_text_output_of_a_link(self, capsys):
        code, out, _ = run(capsys, "invariants", "a")
        absent = ("upsilon", "signature", "s", "genus3", "genus4", "tau", "alt", "dalt",
                  "turaev", "minimal_r", "ballinger_t", "gamma4_lower")
        assert code == 0 and out.splitlines() == [
            "word: a", "garside: a", "murasugi: a", "components: 2", "is_knot: False",
            *(f"{key}: absent" for key in absent), "fdtc: 0/1", "homogenized_upsilon: -1/2",
        ]

    def test_text_output_of_the_identity(self, capsys):
        code, out, _ = run(capsys, "invariants", "")
        assert code == 0 and out.splitlines()[0] == "word: <identity>"

    def test_text_output_of_an_exact_interval(self, capsys):
        code, out, _ = run(capsys, "invariants", "a^2 b^2 a^3 b^3")
        assert code == 0 and "alt: 1" in out.splitlines()

    def test_report_round_trips_through_display(self, capsys):
        _, out1, _ = run(capsys, "invariants", "--json", "a^3 b A^2 b^2")
        first = json.loads(out1)
        _, out2, _ = run(capsys, "invariants", "--json", first["garside_form"]["display"])
        second = json.loads(out2)
        first.pop("word")
        second.pop("word")
        assert first == second

    def test_delta_prefix_reports_like_its_expansion(self):
        # "D^k w" keeps D^k as a number; spelled out as letters it does not
        rng = random.Random(7)
        words = [random_word(rng, rng.randint(0, 12)).display() for _ in range(200)]
        for k in range(-8, 9):
            block = " ".join(["a b a" if k > 0 else "A B A"] * abs(k))
            for w in words:
                prefixed = parse(f"D^{k} {w}" if k else w)
                assert prefixed.delta == k
                expanded = parse(f"{block} {w}")
                assert expanded.delta == 0
                assert (json.dumps(report_json(build_report(prefixed)))
                        == json.dumps(report_json(build_report(expanded))))


class TestCertify:
    def test_torus_sum(self, capsys):
        code, out, _ = run(capsys, "certify", "a^2 b^2 a^3 b^3", "--kind", "torus-sum")
        data = json.loads(out)
        assert code == 0 and data["verified"] is True
        assert data["genus"] == "1/1"
        assert data["end"] == "T(2,5) # T(2,3) # T(2,3)"

    def test_twist(self, capsys):
        code, out, _ = run(capsys, "certify", "a b", "--kind", "twist", "--n", "1")
        data = json.loads(out)
        assert code == 0 and data["verified"] is True and data["genus"] == "1/1"

    @pytest.mark.parametrize("argv, line", [
        (("a^2 b^2 a^3 b^3", "--kind", "torus-sum"),
         '{"kind": "torus-sum", "start": "a^2 b^2 a^3 b^3", "end": "T(2,5) # T(2,3) # T(2,3)", '
         '"end_factors": [{"type": "torus", "q": 5}, {"type": "torus", "q": 3}, '
         '{"type": "torus", "q": 3}], "moves": [{"kind": "insert_generator", "position": 1, '
         '"generator": "b"}, {"kind": "split_to_connected_sum", "position": 1, "generator": "b"}], '
         '"euler_char": -2, "genus": "1/1", "verified": true}'),
        (("a b", "--kind", "twist", "--n", "1"),
         '{"kind": "twist", "start": "a b^3", "end": "closure(a b) # T(2,3)", '
         '"end_factors": [{"type": "closure", "word": "a b"}, {"type": "torus", "q": 3}], '
         '"moves": [{"kind": "insert_generator", "position": 1, "generator": "b"}, '
         '{"kind": "split_to_connected_sum", "position": 1, "generator": "b"}], '
         '"euler_char": -2, "genus": "1/1", "verified": true}'),
    ], ids=["torus-sum", "twist"])
    def test_one_replay(self, capsys, monkeypatch, tmp_path, argv, line):
        # certify reruns its certificate's checks once and does not build it a
        # second time; verify --cert rebuilds it once to compare
        replays, rebuilds = [], []
        replay, rebuilt = braid3.cobordism._replay, braid3.cobordism._rebuilt

        def counted_replay(cert, built):
            replays.append(cert)
            return replay(cert, built)

        def counted_rebuilt(cert, reasons):
            rebuilds.append(cert)
            return rebuilt(cert, reasons)

        monkeypatch.setattr(braid3.cobordism, "_replay", counted_replay)
        monkeypatch.setattr(braid3.cobordism, "_rebuilt", counted_rebuilt)
        code, out, _ = run(capsys, "certify", *argv)
        assert code == 0 and out == line + "\n"
        assert len(replays) == 1 and rebuilds == []
        path = tmp_path / "cert.json"
        path.write_text(out)
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert code == 0 and json.loads(out) == {"verified": True, "reasons": []}
        assert len(replays) == 2 and rebuilds == [replays[1]]

    @pytest.mark.parametrize("argv", [
        ("a^2 b^2 a^3 b^3", "--kind", "torus-sum"), ("a b", "--kind", "twist", "--n", "2"),
    ], ids=["torus-sum", "twist"])
    def test_builder_self_check_bites(self, capsys, monkeypatch, argv):
        # an upsilon that puts the start word far from the end makes the gap
        # exceed the genus, which the builder's own check must catch
        monkeypatch.setattr(braid3.cobordism, "upsilon", lambda form: 100)
        code, out, err = run(capsys, "certify", *argv)
        assert code == 4 and out == ""
        assert len(err.splitlines()) == 1
        assert "upsilon gap exceeds genus" in err

    def test_precondition_exit_code(self, capsys):
        # neither the empty word nor a one-generator word closes to a knot
        for word in ("", "a^3"):
            code, out, err = run(capsys, "certify", word, "--kind", "torus-sum")
            assert code == 3 and out == "" and err == "closure is not a knot\n"

    def test_torus_sum_needs_a_positive_word(self, capsys):
        # the closure is a knot, so the positivity check is what refuses it
        code, out, err = run(capsys, "certify", "a^2 B a b^2", "--kind", "torus-sum")
        assert code == 3 and out == "" and err == "word must be positive\n"


#: certify's JSON for one certificate of each kind
FRESH_CERTIFICATES = [
    braid3.cli.certificate_json(torus_sum_cobordism(parse("a^2 b^2 a^3 b^3")), True),
    braid3.cli.certificate_json(twist_trick(parse("a b"), 2), True),
]

#: values of every JSON type, and integers far outside any certificate's range
MUTANT_VALUES = st.one_of(
    st.booleans(),
    st.integers(-5, 5),
    st.integers(10**18, 10**40) | st.integers(-(10**40), -(10**18)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet="abABD^-0123456789/ T(2,3)#", max_size=12),
    st.recursive(st.lists(st.integers(-3, 3), max_size=3), lambda inner: st.lists(inner, max_size=3),
                 max_leaves=6),
    st.dictionaries(st.sampled_from(["type", "q", "word", "kind"]), st.integers(-3, 7), max_size=3),
)


def json_paths(data, prefix=()):
    """Every key or index path into a JSON value, containers included."""
    for key, value in data.items() if isinstance(data, dict) else enumerate(data):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from json_paths(value, prefix + (key,))


@st.composite
def mutated_certificates(draw, mutations=1):
    """A fresh certificate with up to `mutations` keys or list entries each
    dropped or given a value of another type."""
    cert = json.loads(json.dumps(draw(st.sampled_from(FRESH_CERTIFICATES))))
    for _ in range(draw(st.integers(1, mutations))):
        path = draw(st.sampled_from(list(json_paths(cert))))
        owner = cert
        for key in path[:-1]:
            owner = owner[key]
        value = draw(st.none() | MUTANT_VALUES)
        if value is None:
            del owner[path[-1]]
        else:
            owner[path[-1]] = value
    return cert


class TestVerify:
    def test_equal_words(self, capsys):
        code, out, _ = run(capsys, "verify", "aba", "bab")
        assert code == 0 and json.loads(out)["equal_in_b3"] is True

    def test_unequal_words(self, capsys):
        code, out, _ = run(capsys, "verify", "ab", "ba")
        data = json.loads(out)
        assert code == 1 and data["equal_in_b3"] is False
        assert data["conjugate_in_b3"] is True

    def test_non_conjugate_words(self, capsys):
        # D(4,2;3) and D(4,3;2): equal writhe and equal Burau traces
        code, out, _ = run(capsys, "verify", "b a B a^2 B^3", "B a B^2 a^2")
        assert code == 1
        assert json.loads(out) == {"equal_in_b3": False, "conjugate_in_b3": False}

    def test_one_word_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "a")
        assert code == 3 and out == ""
        assert err == "verify needs two words or --cert FILE\n"

    @pytest.mark.parametrize("words", [["a"], ["a^3 b^3", "b^3 a^3"]])
    def test_cert_with_words_is_a_usage_error(self, capsys, tmp_path, words):
        _, out, _ = run(capsys, "certify", "a^3 b^3", "--kind", "torus-sum")
        path = tmp_path / "cert.json"
        path.write_text(out)
        code, out, err = run(capsys, "verify", "--cert", str(path), *words)
        assert code == 3 and out == ""
        assert err == "verify needs two words or --cert FILE\n"

    def test_twist_region_below_one(self, capsys, tmp_path):
        _, out, _ = run(capsys, "certify", "a b", "--kind", "twist", "--n", "1")
        data = json.loads(out)
        data["end_factors"][1]["q"] = 1
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert code == 1
        assert json.loads(out) == {"verified": False, "reasons": ["twist region must have n >= 1"]}

    @pytest.mark.parametrize("tamper, reasons", [
        (lambda d: d["end_factors"][0].update(word="a"),
         ["boundary components are not knots", "start word does not match construction"]),
        (lambda d: d["end_factors"].reverse(), ["end expression does not match construction"]),
        (lambda d: d["end_factors"].pop(0), ["end expression does not match construction"]),
    ], ids=["closure-is-a-link", "factors-reversed", "torus-factor-alone"])
    def test_malformed_twist_certificate(self, capsys, tmp_path, tamper, reasons):
        _, out, _ = run(capsys, "certify", "a b", "--kind", "twist", "--n", "1")
        data = json.loads(out)
        tamper(data)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert code == 1 and err == ""
        assert json.loads(out) == {"verified": False, "reasons": reasons}

    def test_certificate_file_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "certify", "a^3 b^3", "--kind", "torus-sum")
        path = tmp_path / "cert.json"
        path.write_text(out)
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert code == 0 and json.loads(out)["verified"] is True

    def test_tampered_certificate_file(self, capsys, tmp_path):
        _, out, _ = run(capsys, "certify", "a^3 b^3", "--kind", "torus-sum")
        data = json.loads(out)
        data["genus"] = "1/1"
        data["euler_char"] = -2
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert code == 1
        assert json.loads(out)["reasons"]

    @pytest.mark.parametrize("text", ['{"kind": "torus-sum", "start": "a^3', '{"kind": "torus-sum"}'])
    def test_malformed_certificate_file(self, capsys, tmp_path, text):
        path = tmp_path / "cert.json"
        path.write_text(text)
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "bad certificate" in err

    @pytest.mark.parametrize("generator", ["c", ["a"]])
    def test_unknown_move_generator(self, capsys, tmp_path, generator):
        _, out, _ = run(capsys, "certify", "a^2 b^2 a^3 b^3", "--kind", "torus-sum")
        data = json.loads(out)
        data["moves"][0]["generator"] = generator
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"bad certificate {path}: ValueError: unknown generator {generator!r}"
        ]

    def test_move_kind_no_construction_builds(self, capsys, tmp_path):
        # "delete_generator" is an unknown kind like any other
        _, out, _ = run(capsys, "certify", "a^2 b^2 a^3 b^3", "--kind", "torus-sum")
        data = json.loads(out)
        data["moves"][0]["kind"] = "delete_generator"
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"bad certificate {path}: ValueError: unknown saddle kind delete_generator"
        ]

    @pytest.mark.parametrize("argv, owner", [
        (("a^2 b^2 a^3 b^3", "--kind", "torus-sum"), lambda d: (d, "start")),
        (("a b", "--kind", "twist", "--n", "1"), lambda d: (d["end_factors"][0], "word")),
    ], ids=["start", "closure-word"])
    def test_word_that_is_a_json_array(self, capsys, tmp_path, argv, owner):
        # the word's own letters, one array item each, are not a word
        _, out, _ = run(capsys, "certify", *argv)
        data = json.loads(out)
        field, key = owner(data)
        field[key] = [g if e > 0 else g.upper() for g, e in parse(field[key]) for _ in range(abs(e))]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"bad certificate {path}: TypeError: a braid word must be a str, not list"
        ]

    def test_unknown_end_factor_type(self, capsys, tmp_path):
        _, out, _ = run(capsys, "certify", "a^3 b", "--kind", "twist", "--n", "1")
        data = json.loads(out)
        data["end_factors"][0] = {"type": "no-such-type", "word": "a^3 b"}
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "no-such-type" in err

    @pytest.mark.parametrize("field, value", [
        ("q", 5.0), ("position", True), ("euler_char", -2.0), ("genus", "1_0/1_0"),
        ("genus", "+1/1"), ("genus", " 1/1"), ("genus", "\u0661/1"),
    ])
    def test_non_integer_number(self, capsys, tmp_path, field, value):
        # each value equals the certificate's own under == (q 5, position 1,
        # euler_char -2) or int() (genus 1/1), so only its type is wrong
        _, out, _ = run(capsys, "certify", "a^2 b^2 a^3 b^3", "--kind", "torus-sum")
        data = json.loads(out)
        owner = {"q": data["end_factors"][0], "position": data["moves"][0]}.get(field, data)
        owner[field] = value
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "ValueError" in err

    def test_zero_denominator_genus(self, capsys, tmp_path):
        _, out, _ = run(capsys, "certify", "a^3 b^3", "--kind", "torus-sum")
        data = json.loads(out)
        data["genus"] = "1/0"
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "ZeroDivisionError" in err

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_certificate_files(self, tmp_path_factory, data):
        # drop one key or list entry of a fresh certificate, or give it a value of
        # another type: verify --cert answers with a documented code, never a traceback
        cert = data.draw(mutated_certificates())
        file = tmp_path_factory.getbasetemp() / "mutated-cert.json"
        file.write_text(json.dumps(cert))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", "--cert", str(file)])
        assert code in (0, 1, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        lines = out.getvalue().splitlines()
        assert lines == [] or (len(lines) == 1 and isinstance(json.loads(lines[0]), dict))

    def test_deeply_nested_file(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text("[" * 10**5)
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "RecursionError" in err

    def test_internal_error_is_not_a_reason(self, capsys, tmp_path, monkeypatch):
        _, out, _ = run(capsys, "certify", "a^3 b^3", "--kind", "torus-sum")
        path = tmp_path / "cert.json"
        path.write_text(out)

        def failing(word):
            raise InternalInconsistencyError("injected")

        monkeypatch.setattr(braid3.cobordism, "garside_normal_form", failing)
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert code == 4 and out == ""
        assert err == "injected\n"


class TestBatch:
    def test_worked_examples(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("name,word\neight20,a^3 B a^-3 B\neight21,a^3 b A^2 b^2\n")
        code, out, err = run(capsys, "batch", "--csv", str(src))
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["name"] for r in rows] == ["eight20", "eight21"]
        assert [r["upsilon"] for r in rows] == [0, -1]
        assert [r["signature"] for r in rows] == [0, -2]
        assert [r["s"] for r in rows] == [0, -2]
        assert "2 processed, 0 errors" in err

    def test_empty_file(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("name,word\n")
        code, out, err = run(capsys, "batch", "--csv", str(src))
        assert code == 0 and out == ""
        assert "0 processed" in err

    def test_bad_row_continues(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("name,word\nbad,xyz\ngood,ab\n")
        code, out, err = run(capsys, "batch", "--csv", str(src))
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert "parse error at 1" in rows[0]["error"]
        assert rows[1]["upsilon"] == 0
        assert "2 processed, 1 errors" in err

    def test_missing_word_column(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("name,text\none,ab\ntwo,a^3 b\n")
        code, out, err = run(capsys, "batch", "--csv", str(src))
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == [
            {"name": name, "word": "", "error": "parse error at 1: missing word column"}
            for name in ("one", "two")
        ]
        assert err == "2 processed, 2 errors\n"

    def test_internal_error_row_continues(self, capsys, tmp_path, monkeypatch):
        real = braid3.cli.build_report

        def failing_on_aba(word):
            if word.display() == "a b a":
                raise InternalInconsistencyError("injected")
            return real(word)

        monkeypatch.setattr(braid3.cli, "build_report", failing_on_aba)
        src = tmp_path / "in.csv"
        src.write_text("name,word\none,ab\ntwo,aba\nthree,a^3 b^3\n")
        code, out, err = run(capsys, "batch", "--csv", str(src))
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r.get("error") for r in rows] == [None, "injected", None]
        assert "3 processed, 1 errors" in err

    def test_output_file(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("name,word\nk,ab\n")
        dst = tmp_path / "out.jsonl"
        code, _, _ = run(capsys, "batch", "--csv", str(src), "--out", str(dst))
        assert code == 0
        assert json.loads(dst.read_text().splitlines()[0])["name"] == "k"

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "batch", "--csv", str(tmp_path / "missing.csv"))
        assert code == 2 and "cannot read" in err

    def test_unwritable_output(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("name,word\nk,ab\n")
        dst = tmp_path / "missing" / "out.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code, out, err = run(capsys, "batch", "--csv", str(src), "--out", str(dst))
            gc.collect()
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "cannot write" in err
        # the CSV opened before the output file is closed, not leaked
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_output_is_the_input(self, capsys, tmp_path):
        # opening the output for writing would empty the CSV before it is read
        src = tmp_path / "in.csv"
        src.write_bytes(b"name,word\nk,ab\nt,a^3 b^3\n")
        before = src.read_bytes()
        for dst in (src, tmp_path / "." / "in.csv"):
            code, out, err = run(capsys, "batch", "--csv", str(src), "--out", str(dst))
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1 and "--csv" in err
            assert src.read_bytes() == before

    def test_output_is_the_input_leaks_no_file(self, tmp_path):
        # under -X dev an unclosed CSV handle prints a ResourceWarning to stderr
        src = tmp_path / "in.csv"
        src.write_text("name,word\nk,ab\n")
        env = {**os.environ, "PYTHONPATH": str(Path(braid3.__file__).resolve().parent.parent)}
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "braid3", "batch", "--csv", str(src),
             "--out", str(src)], capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert len(done.stderr.splitlines()) == 1 and "--csv" in done.stderr

    @pytest.mark.parametrize("refused_at", [1, 2])
    def test_a_row_the_reader_refuses_is_an_error_record(self, capsys, tmp_path, refused_at):
        # 80 000 letters, within BRAID3_MAX_WORD_LEN, in a field past the csv
        # module's 131 072-character limit; in the middle and as the last row
        rows = ["one,a b a", "three,a^3 b^3"]
        rows.insert(refused_at, "two," + "a " * 80000)
        src = tmp_path / "in.csv"
        src.write_text("name,word\n" + "\n".join(rows) + "\n")
        code, out, err = run(capsys, "batch", "--csv", str(src))
        assert code == 0 and err == "3 processed, 1 errors\n"
        records = [json.loads(line) for line in out.splitlines()]
        refused = {"name": "", "word": "", "error": "field larger than field limit (131072)"}
        assert records.pop(refused_at) == refused
        assert [(r["name"], r["upsilon"]) for r in records] == [("one", None), ("three", -2)]

    def test_a_nul_byte_does_not_stop_the_batch(self, capsys, tmp_path):
        # the csv reader refuses the row on Python 3.10 and passes it on later
        # versions, where it is a parse error; either way the batch goes on
        src = tmp_path / "in.csv"
        src.write_text("name,word\none,a b a\ntwo,a\0b\nthree,a^3 b^3\n")
        code, out, err = run(capsys, "batch", "--csv", str(src))
        assert code == 0 and err == "3 processed, 1 errors\n"
        records = [json.loads(line) for line in out.splitlines()]
        assert "error" in records[1]
        assert records[2]["name"] == "three" and records[2]["upsilon"] == -2

    def test_a_header_the_reader_refuses_is_an_unreadable_file(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("name," + "w" * 140000 + "\nk,a b\n")
        code, out, err = run(capsys, "batch", "--csv", str(src))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "cannot read" in err

    @pytest.mark.parametrize("header", ["name,word", "word,name"])
    def test_a_byte_order_mark_is_not_part_of_the_header(self, capsys, tmp_path, header):
        # Excel's "CSV UTF-8" starts the file with one
        row = "k,a^3 b^3" if header == "name,word" else "a^3 b^3,k"
        src = tmp_path / "in.csv"
        src.write_bytes(f"\ufeff{header}\n{row}\n".encode())
        code, out, err = run(capsys, "batch", "--csv", str(src))
        assert code == 0 and err == "1 processed, 0 errors\n"
        record = json.loads(out)
        assert (record["name"], record["word"], record["upsilon"]) == ("k", "a^3 b^3", -2)

    def test_non_utf8_file(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_bytes(b"name,word\nk,a\xff b\n")
        code, out, err = run(capsys, "batch", "--csv", str(src))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "cannot read" in err


class TestWordLengthGuard:
    def test_env_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("BRAID3_MAX_WORD_LEN", "8")
        code, _, err = run(capsys, "invariants", "a^9")
        assert code == 2 and "BRAID3_MAX_WORD_LEN" in err
        code, _, _ = run(capsys, "invariants", "a^8")
        assert code == 0

    def test_invalid_env_guard(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("BRAID3_MAX_WORD_LEN", "abc")
        code, out, err = run(capsys, "invariants", "ab")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "BRAID3_MAX_WORD_LEN" in err
        src = tmp_path / "in.csv"
        src.write_text("name,word\none,ab\ntwo,a^3 b^3\n")
        code, out, err = run(capsys, "batch", "--csv", str(src))
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and all("BRAID3_MAX_WORD_LEN" in r["error"] for r in rows)
        assert "2 processed, 2 errors" in err

    @pytest.mark.parametrize("env, word", [
        (None, "a^" + "9" * 5000),
        ("9" * 5000, "a"),
    ], ids=["exponent", "env"])
    def test_numbers_past_the_int_digit_limit(self, capsys, monkeypatch, env, word):
        if env is not None:
            monkeypatch.setenv("BRAID3_MAX_WORD_LEN", env)
        code, out, err = run(capsys, "normalize", word)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "BRAID3_MAX_WORD_LEN" in err

    def test_certificate_start_past_the_limit(self, capsys, monkeypatch):
        # the start a b^1200001 could not be read back by verify --cert
        monkeypatch.delenv("BRAID3_MAX_WORD_LEN", raising=False)
        code, out, err = run(capsys, "certify", "a b", "--kind", "twist", "--n", "600000")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "BRAID3_MAX_WORD_LEN" in err

    def test_certificate_start_past_sys_maxsize(self, capsys, monkeypatch):
        # a b^(2 * 10^20) has more letters than len() can return
        monkeypatch.delenv("BRAID3_MAX_WORD_LEN", raising=False)
        code, out, err = run(capsys, "certify", "a b", "--kind", "twist", "--n", str(10**20))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "BRAID3_MAX_WORD_LEN" in err

    def test_certificate_start_within_a_raised_limit(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("BRAID3_MAX_WORD_LEN", "1200003")
        code, out, _ = run(capsys, "certify", "a b", "--kind", "twist", "--n", "600000")
        assert code == 0
        path = tmp_path / "cert.json"
        path.write_text(out)
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert code == 0 and json.loads(out)["verified"] is True


#: braid-word text: the grammar's letters, digits and signs, and junk
ARGV_WORDS = st.text(
    alphabet=st.sampled_from(list("abABD^-0123456789 ") + ["x", "\t", "+", "_", "é", "٣", "²"]),
    max_size=14,
)

#: each command's flags, with a strategy for the value of those that take one
ARGV_FLAGS = {
    "normalize": [("--form", st.sampled_from(["garside", "murasugi", "other"])),
                  ("--certificate", None), ("--json", None)],
    "invariants": [("--json", None)],
    "certify": [("--kind", st.sampled_from(["torus-sum", "twist", "other"])),
                ("--n", st.integers(-10**21, 10**21).map(str) | ARGV_WORDS)],
    "verify": [],
}


def run_quietly(argv):
    """main's exit code and stderr; argparse's usage errors exit through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


#: CSV files as bytes: an optional BOM and header, then junk, NUL and non-UTF-8 bytes among words
CSV_BYTES = st.tuples(
    st.sampled_from([b"", b"\xef\xbb\xbf"]),
    st.sampled_from([b"name,word\n", b"word,name\r\n", b"name,text\n", b"word\n", b"name\n", b""]),
    st.lists(st.sampled_from([
        b"a^3 B", b"D^-2 a", b"b", b"a^999", b"x", b",", b"\n", b"\r\n", b'"', b" ",
        b"\x00", b"\xff", b"\xc3", b"\xc3\xa9", b"\xef\xbb\xbf", b"9" * 50,
    ]), max_size=24).map(b"".join),
).map(b"".join) | st.binary(max_size=40)


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(ARGV_FLAGS)))
    argv = [command] + [draw(ARGV_WORDS) for _ in range(2 if command == "verify" else 1)]
    for flag, values in ARGV_FLAGS[command]:
        if draw(st.booleans()):
            argv.append(flag)
            if values is not None:
                argv.append(draw(values))
    return argv


class TestArgvFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=cli_argv())
    @example(argv=["certify", "a b", "--kind", "twist", "--n", str(10**20)])
    def test_every_argv_exits_with_a_documented_code(self, monkeypatch, argv):
        # a small limit keeps every example cheap; batch and --cert read files, fuzzed below
        monkeypatch.setenv("BRAID3_MAX_WORD_LEN", "40")
        code, err = run_quietly(argv)
        assert code in (0, 1, 2, 3, 4)
        assert "Traceback" not in err

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=CSV_BYTES)
    @example(content=b"\xef\xbb\xbfname,word\nk,a b\n")
    def test_every_batch_file_exits_with_a_documented_code(self, monkeypatch, tmp_path, content):
        monkeypatch.setenv("BRAID3_MAX_WORD_LEN", "40")
        src = tmp_path / "in.csv"
        src.write_bytes(content)
        code, err = run_quietly(["batch", "--csv", str(src)])
        assert code in (0, 1, 2, 3, 4)
        assert "Traceback" not in err

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cert=mutated_certificates(mutations=3))
    def test_every_certificate_file_exits_with_a_documented_code(self, monkeypatch, tmp_path, cert):
        monkeypatch.setenv("BRAID3_MAX_WORD_LEN", "40")
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        code, err = run_quietly(["verify", "--cert", str(path)])
        assert code in (0, 1, 2, 3, 4)
        assert "Traceback" not in err


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        # runs from the source tree, as `PYTHONPATH=src python -m braid3`
        src = str(Path(braid3.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "braid3", "normalize", "a^3 B a^-3 B"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "D^-3 a^7\n", "")

    @pytest.mark.parametrize("argv", [
        ["invariants", "a^3 B a^-3 B"],
        ["normalize", "--certificate", "a^3 B a^-3 B"],
        ["batch", "--csv", "words.csv"],
        ["batch", "--csv", "many.csv"],
    ], ids=["invariants", "normalize", "batch", "batch-past-the-pipe-buffer"])
    def test_closed_stdout_pipe(self, argv, tmp_path):
        (tmp_path / "words.csv").write_text("name,word\none,a b\ntwo,a^3 B a^-3 B\n")
        # enough reports to fill the pipe buffer: a write in batch's loop fails, not its flush
        (tmp_path / "many.csv").write_text("name,word\n" + "row,a^3 B a^-3 B\n" * 2000)
        src = str(Path(braid3.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        # stdout block-buffered, as a pipe is by default: a short output fails at a flush
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "braid3", *argv], cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        proc.stdout.close()  # the reader is gone before anything is written
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err.splitlines() == ["cannot write stdout: [Errno 32] Broken pipe"]


class TestPublicNames:
    def test_all_resolves_and_star_imports(self):
        namespace = {}
        exec("from braid3 import *", namespace)
        for name in braid3.__all__:
            assert namespace[name] is getattr(braid3, name)

    def test_removed_names_are_gone(self):
        for name in ("alternating_distance_genus_bounds", "AlternatingGenusBounds", "_witness_word"):
            assert not hasattr(braid3, name) and not hasattr(braid3.cobordism, name)
        for name in ("cycle_type", "KNOT_PERMS"):
            assert not hasattr(braid3.words, name)
        assert set(braid3.DeltaSplit._fields) == {"k", "positive_part"}
        assert not hasattr(braid3.DeltaSplit, "verify")
        assert not hasattr(braid3.MurasugiGeneric(0, ((1, 2),)), "r")
        assert "is_knot" not in braid3.InvariantReport._fields
        assert braid3.cobordism.VerificationResult._fields == ("reasons",)
        for name in ("tail_runs", "_TAIL_RUNS"):
            assert not hasattr(braid3.normal_form, name)
        assert "__bool__" not in braid3.BraidWord.__dict__
        assert not hasattr(braid3.cobordism, "DELETE")
