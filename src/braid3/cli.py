"""
braid3: classify 3-braid words and compute their closure invariants.

Subcommands
  normalize    print the Garside (default) or Murasugi conjugacy normal form
  invariants   full invariant report for one word (text or JSON)
  certify      emit a cobordism certificate (torus-sum or twist construction)
  verify       check two words for equality and conjugacy in B3, or recheck
               a certificate
  batch        run the invariant pipeline over a name,word CSV file

Exit codes: 0 success, 1 a verification answered false, 2 parse error,
unreadable certificate or batch input, unwritable output (a closed pipe
too), invalid BRAID3_MAX_WORD_LEN or a certificate start word longer than
it, 3 precondition failure, 4 internal inconsistency.
The environment variable BRAID3_MAX_WORD_LEN (default 10^6, a
non-negative integer) bounds accepted input length.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction

from .burau import words_equal
from .cobordism import (
    ClosureFactor,
    CobordismCertificate,
    ConnectedSum,
    PreconditionError,
    SaddleMove,
    TorusFactor,
    torus_sum_cobordism,
    twist_trick,
    verify as verify_cobordism,
)
from .invariants import InvariantReport, NotAKnotError, build_report
from .normal_form import (
    InternalInconsistencyError,
    form_display,
    garside_normal_form,
    murasugi_normal_form,
)
from .words import _DIGITS, ParseError, WordLimitError, max_word_len, parse

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _fields_json(value) -> dict:
    # the fields its class lists once, in order, read shallowly; pairs dump as arrays
    return {name: getattr(value, name) for name in value._fields}


def _form_json(form) -> dict:
    data = {"display": form_display(form), "case": form.case}
    for name in form._fields:
        data[name] = getattr(form, name)
    return data


#: the fields that carry a flag, in the order the flags print
_FLAGGED = ("fdtc", "homogenized_upsilon", "upsilon", "signature", "s", "genus3", "genus4",
            "tau", "alt", "dalt", "turaev", "minimal_r")


def report_json(report: InvariantReport) -> dict:
    """The report as a new JSON-ready dict on every call.  Its `flags` are
    read off the values beside them: 'absent' for null, 'exact' or
    'interval' for `alt`, `dalt` and `turaev` as the interval's ends agree
    or not, 'exact (<provenance>)' for `s`, and 'exact' for the rest."""
    # one interval bounds all three distances, so the three keys share its dict
    iv = report.alt
    alt = None if iv is None else {"lo": iv.lo, "hi": iv.hi, "exact": iv.exact}
    data = {
        "word": report.word.display(),
        "components": report.components,
        "is_knot": report.is_knot,
        "upsilon": report.upsilon,
        "signature": report.signature,
        "s": report.rasmussen_s,
        "genus3": report.genus3,
        "genus4": report.genus4,
        "tau": report.tau,
        "alt": alt,
        "dalt": alt,
        "turaev": alt,
        "minimal_r": report.minimal_r,
        "ballinger_t": report.ballinger_t,
        "fdtc": _frac(report.fdtc),
        "homogenized_upsilon": _frac(report.homogenized_upsilon),
        "gamma4_lower": report.nonorientable_g4_lower,
        "garside_form": _form_json(report.garside),
        "murasugi_form": _form_json(report.murasugi),
    }
    flags = data["flags"] = {key: "absent" if data[key] is None else "exact" for key in _FLAGGED}
    if alt is not None and not alt["exact"]:
        flags["alt"] = flags["dalt"] = flags["turaev"] = "interval"
    if report.s_provenance is not None:
        flags["s"] += f" ({report.s_provenance})"
    return data


#: only the identity's forms, case A and the power form with l = p = 0, display as ""
_IDENTITY_TEXT = {"A": "identity (case A, ℓ=0, p=0)", "power": "identity (power form, ℓ=0, p=0)"}


def _identity_text(form) -> str:
    return form_display(form) or _IDENTITY_TEXT[form.case]


def cmd_normalize(args) -> int:
    word = parse(args.word)
    if args.form == "murasugi":
        form, cert = murasugi_normal_form(word)
    else:
        form, cert = garside_normal_form(word)
    if args.json:
        payload = {"input": word.display(), "form": _form_json(form)}
        if args.certificate:
            # the classifier has checked cert and raises when the check fails
            payload["certificate"] = {
                "conjugator": cert.conjugator.display(),
                "source": cert.source.display(),
                "target": cert.target.display(),
                "verified": True,
            }
        print(json.dumps(payload))
        return EXIT_OK
    print(_identity_text(form))
    if args.certificate:
        print(f"conjugator: {cert.conjugator}")
        print("verified: yes")
    return EXIT_OK


_TEXT_FIELDS = (
    "components", "is_knot", "upsilon", "signature", "s", "genus3", "genus4",
    "tau", "alt", "dalt", "turaev", "minimal_r", "ballinger_t", "gamma4_lower",
    "fdtc", "homogenized_upsilon",
)


def cmd_invariants(args) -> int:
    word = parse(args.word)
    report = build_report(word)
    data = report_json(report)
    if args.json:
        print(json.dumps(data))
        return EXIT_OK
    print(f"word: {word}")
    print(f"garside: {_identity_text(report.garside)}")
    print(f"murasugi: {_identity_text(report.murasugi)}")
    for key in _TEXT_FIELDS:
        value = data[key]
        if isinstance(value, dict):  # interval
            value = value["lo"] if value["exact"] else f"[{value['lo']}, {value['hi']}]"
        if value is None:
            value = "absent"
        print(f"{key}: {value}")
    return EXIT_OK


def _factor_json(f) -> dict:
    if isinstance(f, TorusFactor):
        return {"type": "torus", "q": f.q}
    return {"type": "closure", "word": f.word.display()}


def certificate_json(cert: CobordismCertificate, verified: bool) -> dict:
    return {
        "kind": cert.kind,
        "start": cert.start.display(),
        "end": cert.end.display(),
        "end_factors": [_factor_json(f) for f in cert.end.factors],
        "moves": [_fields_json(m) for m in cert.moves],
        "euler_char": cert.euler_char,
        "genus": _frac(cert.genus),
        "verified": verified,
    }


def _json_int(value, what: str) -> int:
    # bool is a subclass of int, and a float such as 5.0 compares equal to one
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def certificate_from_json(data: dict) -> CobordismCertificate:
    factors = []
    for f in data["end_factors"]:
        if f["type"] == "torus":
            factors.append(TorusFactor(_json_int(f["q"], "q")))
        elif f["type"] == "closure":
            factors.append(ClosureFactor(parse(f["word"])))
        else:
            raise ValueError(f"unknown end factor type {f['type']!r}")
    num, den = data["genus"].split("/")
    # ASCII digits as parse reads them: int() also takes "+", "_", spaces, other digits
    if not _DIGITS.issuperset(num.removeprefix("-") + den):
        raise ValueError(f"genus {data['genus']!r} is not a fraction of base-10 integers")
    return CobordismCertificate(
        kind=data["kind"],
        start=parse(data["start"]),
        end=ConnectedSum(tuple(factors)),
        moves=tuple(
            SaddleMove(m["kind"], _json_int(m["position"], "position"), m["generator"])
            for m in data["moves"]
        ),
        euler_char=_json_int(data["euler_char"], "euler_char"),
        genus=Fraction(int(num), int(den)),
    )


def cmd_certify(args) -> int:
    word = parse(args.word)
    # both constructions rerun their certificate's checks and raise unless they pass
    if args.kind == "torus-sum":
        cert = torus_sum_cobordism(word)
    else:
        cert = twist_trick(word, args.n)
    # verify --cert parses the start word back, under the same limit
    # summed here, as len() cannot return more than sys.maxsize
    letters, limit = sum(abs(e) for _, e in cert.start), max_word_len()
    if letters > limit:
        print(f"certificate start word has {letters} letters, "
              f"more than BRAID3_MAX_WORD_LEN={limit}", file=sys.stderr)
        return EXIT_PARSE
    print(json.dumps(certificate_json(cert, True)))
    return EXIT_OK


def cmd_verify(args) -> int:
    if len(args.words) != (0 if args.cert else 2):
        print("verify needs two words or --cert FILE", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.cert:
        try:
            with open(args.cert, "r", encoding="utf-8") as fh:
                cert = certificate_from_json(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError, AttributeError,
                ZeroDivisionError, RecursionError) as exc:
            print(f"bad certificate {args.cert}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_PARSE
        result = verify_cobordism(cert)
        print(json.dumps({"verified": bool(result), "reasons": list(result.reasons)}))
        return EXIT_OK if result else EXIT_FALSE
    u, v = (parse(w) for w in args.words)
    equal = words_equal(u, v)
    # conjugate exactly when the Garside normal forms coincide
    conjugate = garside_normal_form(u)[0] == garside_normal_form(v)[0]
    print(json.dumps({"equal_in_b3": equal, "conjugate_in_b3": conjugate}))
    return EXIT_OK if equal else EXIT_FALSE


def cmd_batch(args) -> int:
    try:
        fh = open(args.csv, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        print(f"cannot read {args.csv}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.out and os.path.exists(args.out) and os.path.samefile(args.csv, args.out):
        fh.close()
        print(f"--out {args.out} is the --csv input; it would be emptied before it is read",
              file=sys.stderr)
        return EXIT_PARSE
    processed = errors = 0
    try:
        with fh, (open(args.out, "w", encoding="utf-8") if args.out
                  else nullcontext(sys.stdout)) as out:
            rows = csv.DictReader(fh)
            rows.fieldnames  # read the header here: a header the reader refuses exits 2
            while True:
                record: dict = {"name": "", "word": ""}
                try:  # a row the reader refuses raises csv.Error, and the reader moves on
                    if (row := next(rows, None)) is None:
                        break
                    record.update(name=(row.get("name") or "").strip(),
                                  word=(row.get("word") or "").strip())
                    if row.get("word") is None:
                        raise ParseError("missing word column", 1)
                    record.update(report_json(build_report(parse(record["word"]))))
                except UnicodeDecodeError:
                    raise
                except (ValueError, InternalInconsistencyError, csv.Error) as exc:
                    record["error"] = str(exc)
                    errors += 1
                processed += 1
                out.write(json.dumps(record) + "\n")
            out.flush()  # a closed stdout pipe shows here, before the summary
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and not args.out:
            raise  # main reports it and silences the exit flush
        print(f"cannot write {args.out or 'stdout'}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UnicodeDecodeError, csv.Error) as exc:
        print(f"cannot read {args.csv}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"{processed} processed, {errors} errors", file=sys.stderr)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braid3",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="conjugacy normal form of a word")
    p.add_argument("word")
    p.add_argument("--form", choices=("garside", "murasugi"), default="garside")
    p.add_argument("--certificate", action="store_true", help="show the conjugator")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("invariants", help="full invariant report")
    p.add_argument("word")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("certify", help="emit a cobordism certificate")
    p.add_argument("word")
    p.add_argument("--kind", choices=("torus-sum", "twist"), required=True)
    p.add_argument("--n", type=int, default=1, help="twist count for --kind twist")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="word equality or certificate recheck")
    p.add_argument("words", nargs="*")
    p.add_argument("--cert", help="certificate JSON file to recheck")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("batch", help="invariants for a name,word CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", help="output path (JSON lines); stdout if omitted")
    p.set_defaults(func=cmd_batch)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError as exc:
        # the interpreter flushes stdout once more on exit; send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ParseError, WordLimitError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, NotAKnotError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalInconsistencyError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
