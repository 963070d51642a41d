"""Command-line interface: verify documents, run named checks, build derived
structures, and run the builtin suite.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 input or
usage error.  Machine output (--json) is byte-deterministic: items are sorted
and timings are zeroed unless --timing is given.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import schema
from .ayd import (
    CASES,
    check_ayd,
    check_entwined_module,
    check_stability,
    check_yd,
    entwining_map,
    tensor_product,
)
from .errors import CheckFailedError, HaydError, InputError, SchemaError
from .galois import comodule_algebra_from_hopf, make_sayd_prop5
from .hopf import verify_hopf_axioms
from .report import Report
from .reps import verify_action, verify_coaction
from .suite import BUILTINS, builtin, hopf_target, resolve_targets, run_suite

# the checks that read a two_sided document, run once its structures verify
_TWO_SIDED_CHECKS = {
    "ayd": lambda H, M: check_ayd(M),
    "yd": lambda H, M: check_yd(M),
    "stability": lambda H, M: check_stability(M),
    "entwined_ayd": lambda H, M: check_entwined_module(entwining_map(H, "ayd"), M),
    "entwined_yd": lambda H, M: check_entwined_module(entwining_map(H, "yd"), M),
}

CHECK_NAMES = ("hopf_axioms", "action", "coaction", *_TWO_SIDED_CHECKS, "comodule_algebra")


def _result_json(check: str, target: str, report: Report, millis: int) -> dict:
    """One machine-output item."""
    return {
        "check": check,
        "target": target,
        "passed": report.passed,
        "witness": list(report.witness) if report.witness is not None else None,
        "lhs": None if report.lhs is None else schema.tensor_to_doc(report.lhs),
        "rhs": None if report.rhs is None else schema.tensor_to_doc(report.rhs),
        "millis": millis,
    }


def _emit_report(report: Report, target: str, millis: int, as_json: bool) -> int:
    if as_json:
        print(json.dumps(_result_json(report.axiom, target, report, millis), sort_keys=True))
    elif report.passed:
        print(f"{report.axiom:<32} {target}: pass ({millis} ms)")
    else:
        print(f"{report.axiom:<32} {target}: FAIL at {report.witness} ({millis} ms)")
        if report.lhs is not None:
            print(f"  lhs: {report.lhs}")
        if report.rhs is not None:
            print(f"  rhs: {report.rhs}")
    return 0 if report.passed else 1


def _structure_report(doc, H) -> Report:
    """Verify an action, coaction, two_sided or comodule_algebra document over H."""
    kind = doc["kind"]
    if kind == "action":
        return verify_action(H, schema.doc_to_action(doc, H))
    if kind == "coaction":
        return verify_coaction(H, schema.doc_to_coaction(doc, H))
    if kind == "two_sided":
        return schema.doc_to_two_sided(doc, H).verify()
    try:
        schema.doc_to_comodule_algebra(doc, H)
    except CheckFailedError as exc:
        return exc.report
    return Report.ok("comodule-algebra")


def cmd_verify(args) -> int:
    doc = schema.load_document(args.file)
    kind = doc["kind"]
    standalone = kind in ("hopf", "algebra")
    if standalone == bool(args.hopf):
        article = "an" if kind[0] in "aeiou" else "a"
        need = "does not take" if standalone else "needs"
        raise InputError(f"verifying {article} {kind} document {need} --hopf")
    start = time.monotonic()
    if kind == "hopf":
        report = verify_hopf_axioms(schema.doc_to_hopf(doc))
    elif kind == "algebra":
        report = schema.doc_to_algebra(doc, check=False).verify()
    else:
        report = _structure_report(doc, hopf_target(args.hopf).require_verified(args.hopf))
    millis = int((time.monotonic() - start) * 1000)
    return _emit_report(report, args.file, 0 if args.json and not args.timing else millis, args.json)


def cmd_check(args) -> int:
    if args.module and args.name == "hopf_axioms":
        raise InputError("check hopf_axioms does not take --module")
    if args.case and args.name not in _TWO_SIDED_CHECKS:
        raise InputError(f"check {args.name} does not take --case")
    start = time.monotonic()
    if args.name == "hopf_axioms":
        # the verification IS the requested check here, so a failing Hopf
        # structure is a check failure, not an input error
        target = args.hopf
        report = verify_hopf_axioms(hopf_target(args.hopf))
    else:
        target = args.module
        if not args.module:
            raise InputError(f"check {args.name} needs --module")
        H = hopf_target(args.hopf).require_verified(args.hopf)
        doc = schema.load_document(args.module)
        kind = "two_sided" if args.name in _TWO_SIDED_CHECKS else args.name
        if doc["kind"] != kind:
            raise InputError(
                f"check {args.name} expects a document of kind {kind!r}, got {doc['kind']!r}"
            )
        if kind == "two_sided":
            M = schema.doc_to_two_sided(doc, H)
            if args.case and M.case != args.case:
                raise InputError(f"document is the {M.case} case, --case says {args.case}")
        report = _structure_report(doc, H)
        if report.passed and kind == "two_sided":
            report = _TWO_SIDED_CHECKS[args.name](H, M)
    millis = int((time.monotonic() - start) * 1000)
    return _emit_report(report, target, 0 if args.json and not args.timing else millis, args.json)


def _write_doc(doc, out_path):
    text = schema.dumps(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# the options each build target reads besides --hopf and --out
_BUILD_OPTIONS = {"ah": (), "double": (), "sayd-prop5": ("module", "json"),
                  "tensor": ("left", "right", "case", "json")}


def cmd_build(args) -> int:
    from .double import build_ah, build_double

    for option in ("module", "left", "right", "case", "json"):
        if getattr(args, option) and option not in _BUILD_OPTIONS[args.what]:
            raise InputError(f"build {args.what} does not take --{option}")
    if args.what == "tensor" and not (args.left and args.right and args.case):
        raise InputError("build tensor needs --left, --right and --case")
    H = hopf_target(args.hopf).require_verified(args.hopf)
    if args.what == "ah":
        _write_doc(schema.algebra_to_doc(build_ah(H)), args.out)
        return 0
    if args.what == "double":
        _write_doc(schema.algebra_to_doc(build_double(H)), args.out)
        return 0
    if args.what == "sayd-prop5":
        if args.module:
            try:
                CA = schema.doc_to_comodule_algebra(schema.load_document(args.module), H)
            except CheckFailedError as exc:
                return _emit_report(exc.report, args.module, 0, args.json)
        else:
            CA = comodule_algebra_from_hopf(H)
        try:
            M = make_sayd_prop5(CA)
        except CheckFailedError as exc:
            return _emit_report(exc.report, args.hopf, 0, args.json)
        _write_doc(schema.two_sided_to_doc(M), args.out)
        return 0
    N = schema.doc_to_two_sided(schema.load_document(args.left), H)
    M = schema.doc_to_two_sided(schema.load_document(args.right), H)
    try:
        T = tensor_product(N, M, args.case)
    except CheckFailedError as exc:
        return _emit_report(exc.report, f"{args.left},{args.right}", 0, args.json)
    _write_doc(schema.two_sided_to_doc(T), args.out)
    return 0


def cmd_suite(args) -> int:
    names = args.builtin.split(",") if args.builtin else ["all"]
    if args.targets:
        names = list(names) + list(args.targets) if args.builtin else list(args.targets)
    targets = resolve_targets(names)
    result = run_suite(targets, checks=args.checks.split(",") if args.checks else None)
    items = sorted(result.items, key=lambda it: (it.target, it.check))
    if args.json:
        results = [_result_json(it.check, it.target, it.report, it.millis if args.timing else 0)
                   for it in items]
        print(json.dumps({"passed": result.passed, "results": results}, sort_keys=True, indent=1))
    else:
        for it in items:
            r = it.report
            state = "pass" if r.passed else f"FAIL at {r.witness}"
            print(f"{it.target:<12} {it.check:<24} {state} ({it.millis} ms)")
        total = len(items)
        bad = sum(1 for it in items if not it.report.passed)
        print(f"{total - bad}/{total} checks passed")
    return 0 if result.passed else 1


def cmd_list_builtins(_args) -> int:
    for name in sorted(BUILTINS):
        H = builtin(name)
        print(f"{name:<12} dim {H.dim:>2}  field {H.field}")
    return 0


def cmd_export_builtin(args) -> int:
    H = builtin(args.name)
    _write_doc(schema.hopf_to_doc(H), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hayd",
        description="Exact structure-constant checks for Hopf-algebra module compatibility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify the axioms of a document")
    p.add_argument("file")
    p.add_argument("--hopf", help="hopf context (builtin name or file) for non-hopf documents")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true", help="keep real timings in --json output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check", help="run a named check against a hopf context")
    p.add_argument("name", choices=CHECK_NAMES)
    p.add_argument("--hopf", required=True, help="builtin name or hopf document path")
    p.add_argument("--module", help="document with the structure to check")
    p.add_argument("--case", choices=CASES)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("build", help="construct a derived structure and emit it as JSON")
    p.add_argument("what", choices=("ah", "double", "sayd-prop5", "tensor"))
    p.add_argument("--hopf", required=True)
    p.add_argument("--module", help="comodule_algebra document for sayd-prop5")
    p.add_argument("--left", help="two_sided document for the plain tensor factor")
    p.add_argument("--right", help="two_sided document for the twisted tensor factor")
    p.add_argument("--case", choices=CASES)
    p.add_argument("-o", "--out", help="output path (default stdout)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("suite", help="run the check battery on builtins and/or files")
    p.add_argument("--builtin", help="comma-separated builtin names, or 'all'")
    p.add_argument("--targets", nargs="*", help="additional hopf document paths")
    p.add_argument("--checks", help="comma-separated check names (default: all)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("list-builtins", help="list the builtin examples")
    p.set_defaults(func=cmd_list_builtins)

    p = sub.add_parser("export-builtin", help="write a builtin as a hopf document")
    p.add_argument("name", choices=sorted(BUILTINS))
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_export_builtin)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        for pointer, message in exc.violations:
            print(f"schema error at {pointer or '/'}: {message}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except HaydError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
