"""The package's immutable values: every class on the one Value base keeps
equality within its class, a hash and repr over its fields, and refuses
assignment; and importing the package loads neither dataclasses nor inspect."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import braid3
from braid3 import (
    BraidWord,
    ClosureFactor,
    ConnectedSum,
    GarsideA,
    GarsideB,
    GarsideC,
    GarsideD,
    IntInterval,
    MurasugiGeneric,
    MurasugiHalfTwist,
    MurasugiPower,
    MurasugiTorus,
    SaddleMove,
    TorusFactor,
    build_report,
    delta_positive_split,
    garside_normal_form,
    parse,
    torus_sum_cobordism,
    upsilon,
)
from braid3.cli import main, report_json
from braid3.cobordism import VerificationResult
from braid3.words import Value

#: one maker per value class; each call makes a new value equal to the last
MAKERS = [
    lambda: GarsideA(0, 2),
    lambda: GarsideB(1, 3),
    lambda: GarsideC(-1, ((2, 3), (4, 2))),
    lambda: GarsideD(2, ((2, 2),), 5),
    lambda: MurasugiPower(0, -3),
    lambda: MurasugiHalfTwist(2),
    lambda: MurasugiTorus(-1, "abab"),
    lambda: MurasugiGeneric(1, ((1, 2), (3, 1))),
    lambda: parse("a^2 B a"),
    lambda: parse("D^-3 a b"),
    lambda: garside_normal_form(parse("a^3 B a^-3 B"))[1],
    lambda: delta_positive_split(parse("A b A")),
    lambda: IntInterval(0, 1),
    lambda: build_report(parse("a^2 b^2 a^3 b^3")),
    lambda: SaddleMove("insert_generator", 0, "a"),
    lambda: TorusFactor(5),
    lambda: ClosureFactor(parse("a^3 b")),
    lambda: ConnectedSum((ClosureFactor(parse("a^3 b")), TorusFactor(3))),
    lambda: torus_sum_cobordism(parse("a^2 b^2 a^3 b^3")),
    lambda: VerificationResult(("genus mismatch",)),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_is_built():
    assert {type(make()) for make in MAKERS} == set(_subclasses(Value))


@pytest.mark.parametrize("make", MAKERS, ids=lambda make: type(make()).__name__)
def test_value_semantics(make):
    value, twin = make(), make()
    assert value is not twin and value == twin and repr(value) == repr(twin)
    assert hash(value) == hash(twin)
    assert value.__eq__(object()) is NotImplemented
    fields = value._fields
    assert type(value).__match_args__ == fields
    # the fields are the constructor's parameters, by name and in order; a word
    # that keeps a D^k prefix as a number lists the syllables of a plain word
    cls = BraidWord if isinstance(value, BraidWord) else type(value)
    assert cls(**{name: getattr(value, name) for name in fields}) == value
    listed = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{type(value).__name__}({listed})"
    for name in fields + ("anything",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == twin and pickle.loads(pickle.dumps(value)) == value


def test_report_json_flags_are_new_on_every_call():
    report = build_report(parse("a^2 b^2 a^3 b^3"))
    printed, hashed = json.dumps(report_json(report)), hash(report)
    flags = report_json(report)["flags"]
    flags["upsilon"] = "x"
    del flags["s"]
    flags["new"] = "x"
    # a change to one output reaches neither the report nor the next output
    assert json.dumps(report_json(report)) == printed and hash(report) == hashed


def test_literal_reprs():
    assert repr(GarsideA(0, 2)) == "GarsideA(ell=0, p=2)"
    assert repr(MurasugiGeneric(1, ((1, 2),))) == "MurasugiGeneric(ell=1, pairs=((1, 2),))"
    assert repr(SaddleMove("split_to_connected_sum", 3, "b")) == (
        "SaddleMove(kind='split_to_connected_sum', position=3, generator='b')"
    )
    assert repr(IntInterval(-1, 2)) == "IntInterval(lo=-1, hi=2)"


def test_equal_fields_in_other_classes_are_unequal():
    values = [GarsideA(0, 2), GarsideB(0, 2), MurasugiPower(0, 2)]
    for i, left in enumerate(values):
        for right in values[i + 1:]:
            assert left != right and not left == right


@pytest.mark.parametrize("make, message", [
    (lambda: GarsideA(0, -1), "case A needs p >= 0"),
    (lambda: GarsideB(0, 4), "case B needs p in {1,2,3}"),
    (lambda: GarsideC(0, ()), "case C needs r >= 1"),
    (lambda: GarsideC(0, ((2, 1),)), "case C needs all exponents >= 2"),
    (lambda: GarsideD(0, ((2, 2),), 1), "case D needs all exponents >= 2"),
    (lambda: GarsideD(0, ((1, 2),), 2), "case D needs all exponents >= 2"),
    (lambda: MurasugiTorus(0, "ba"), "variant must be 'ab' or 'abab'"),
    (lambda: MurasugiGeneric(0, ()), "generic form needs r >= 1"),
    (lambda: MurasugiGeneric(0, ((0, 1),)), "generic form needs all exponents >= 1"),
    (lambda: IntInterval(1, 0), "empty interval"),
    (lambda: SaddleMove("twist", 0, "a"), "unknown saddle kind twist"),
    (lambda: SaddleMove(["twist"], 0, "a"), "unknown saddle kind ['twist']"),
    (lambda: SaddleMove("delete_generator", 0, "a"), "unknown saddle kind delete_generator"),
    (lambda: SaddleMove("insert_generator", 0, "c"), "unknown generator 'c'"),
    (lambda: SaddleMove("insert_generator", 0, ["a"]), "unknown generator ['a']"),
    (lambda: TorusFactor(4), "torus factor parameter must be odd and positive"),
    (lambda: TorusFactor(-1), "torus factor parameter must be odd and positive"),
])
def test_constructor_checks(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message


def test_exponent_checks_read_every_exponent():
    # one exponent too small, in either place of any pair or in case D's last run
    for place in range(6):
        for small, make, message in (
            (1, lambda pairs: GarsideC(0, pairs), "case C needs all exponents >= 2"),
            (1, lambda pairs: GarsideD(0, pairs, 2), "case D needs all exponents >= 2"),
            (0, lambda pairs: MurasugiGeneric(0, pairs), "generic form needs all exponents >= 1"),
        ):
            exps = [small + 1] * 6
            exps[place] = small
            with pytest.raises(ValueError, match=message):
                make(tuple(zip(exps[::2], exps[1::2])))
    with pytest.raises(ValueError, match="case D needs all exponents >= 2"):
        GarsideD(0, (), 1)
    assert GarsideD(0, (), 2).r == 1


def test_knot_memo_leaves_the_value_alone():
    form = GarsideC(0, ((3, 2), (2, 3)))
    before = (repr(form), hash(form))
    assert upsilon(form) == upsilon(form) == -3
    assert (repr(form), hash(form)) == before
    assert form == GarsideC(0, ((3, 2), (2, 3)))
    assert form == build_report(parse("a^2 b^2 a^3 b^3")).garside


def test_cli_tells_the_classes_apart(capsys):
    # a^2 and a^2 b have the fields (0, 2) in different form classes
    assert main(["verify", "a a", "a a b"]) == 1
    assert '"conjugate_in_b3": false' in capsys.readouterr().out


def test_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(braid3.__file__).resolve().parent.parent)
    code = (
        "import sys, braid3, braid3.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_braid_word_twisted_compares_by_syllables():
    twisted = parse("D^2 a")
    assert twisted.delta == 2 and twisted == BraidWord(twisted.syllables)
    assert hash(twisted) == hash(BraidWord(twisted.syllables))
