"""Spans recorded from outside the program, around calls into hayd's modules.

``Tracer.install`` replaces each traced function by a wrapper in *every*
loaded ``hayd`` module namespace that binds it (``build_ah`` is imported by
name into ``hayd.suite`` and ``hayd.cli``, ``associativity_report`` into
``hayd.hopf``), so no call escapes the trace.  Spans hold name, start, end,
parent and a label (the ``name`` of the first argument, when it has one) and
stay in memory until the run ends.  Call ``install`` after the last import.

``Field.add``/``Field.mul`` are counted by field kind instead of spanned.  The
counting wrappers cost more than the arithmetic they count, so they are on
only in *counted* operations, whose spans are then dropped: span metrics come
from the other operations, field counts from the counted ones.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from functools import wraps

# (module, attribute) of each traced function; a dotted attribute is a method.
TRACED = [
    ("algebra", "associativity_report"), ("algebra", "unit_report"),
    ("hopf", "verify_hopf_axioms"), ("hopf", "dual_hopf"), ("hopf", "variant"),
    ("hopf", "antipode_inverse"),
    ("double", "build_ah"), ("double", "build_double"), ("double", "build_double_hopf"),
    ("double", "ah_double_coaction"), ("double", "ayd_to_ah_module"),
    ("double", "ah_module_to_ayd"),
    ("galois", "check_comodule_algebra"), ("galois", "canonical_map"),
    ("galois", "mu_action"), ("galois", "make_sayd_prop5"),
    ("tensor", "Tensor.contract"), ("tensor", "rref"), ("tensor", "invert_matrix"),
    ("ayd", "check_ayd"), ("ayd", "check_yd"), ("ayd", "check_stability"),
    ("ayd", "check_entwining"), ("ayd", "check_entwined_module"), ("ayd", "entwining_map"),
    ("reps", "verify_action"), ("reps", "verify_coaction"),
    ("schema", "parse_document"), ("schema", "doc_to_hopf"), ("schema", "doc_to_algebra"),
    ("suite", "run_suite"),
    ("cli", "main"),
]

# builders whose result is memoised in H._cache under this key
CACHE_KEYS = {"double.build_ah": "ah", "double.build_double": "double",
              "double.build_double_hopf": "double_hopf"}

NAME, START, END, PARENT, LABEL, HIT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.field_ops: Counter = Counter()
        self.bytes_in = 0
        self.suite_items: list = []  # (target, check, millis) as run_suite reports them
        self.timed_ops: list[float] = []  # seconds of each operation whose spans are kept
        self.counted_ops = 0
        self._mark = None

    def begin(self, counted: bool):
        """Start an operation; a counted one has the field-op counters switched on."""
        self._mark = (counted, len(self.spans), self.bytes_in, len(self.suite_items))
        self._field.add, self._field.mul = self._counting if counted else self._plain

    def end(self, seconds: float):
        counted, n_spans, bytes_in, n_items = self._mark
        if counted:
            self._field.add, self._field.mul = self._plain
            del self.spans[n_spans:]
            self.bytes_in = bytes_in
            del self.suite_items[n_items:]
            self.counted_ops += 1
        else:
            self.timed_ops.append(seconds)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        cache_key = CACHE_KEYS.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            first = args[0] if args else None
            hit = cache_key is not None and cache_key in first._cache
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1,
                    getattr(first, "name", None), hit]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self):
        mods = {k: m for k, m in sys.modules.items() if k == "hayd" or k.startswith("hayd.")}
        for mod, attr in TRACED:
            module = mods[f"hayd.{mod}"]
            name = f"{mod}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
        self._wrap_suite(mods["hayd.suite"])
        self._count_field_ops(mods["hayd.fields"].Field)
        self._count_bytes(mods)

    def _wrap_suite(self, suite):
        for check, fn in suite.SUITE_CHECKS.items():
            suite.SUITE_CHECKS[check] = self._wrap(f"suite.check.{check}", fn)
        items = self.suite_items
        run_suite = suite.run_suite

        @wraps(run_suite)
        def recording(*args, **kwargs):
            result = run_suite(*args, **kwargs)
            items.extend((it.target, it.check, it.millis) for it in result.items)
            return result

        for m in (suite, sys.modules["hayd.cli"]):
            m.run_suite = recording

    def _count_field_ops(self, Field):
        counts = self.field_ops
        add, mul = Field.add, Field.mul

        def counted_add(f, a, b):
            counts["add", f.kind] += 1
            return add(f, a, b)

        def counted_mul(f, a, b):
            counts["mul", f.kind] += 1
            return mul(f, a, b)

        self._field = Field
        self._plain = add, mul
        self._counting = counted_add, counted_mul

    def _count_bytes(self, mods):
        schema = mods["hayd.schema"]
        parse = schema.parse_document
        tracer = self

        @wraps(parse)
        def counting(text):
            tracer.bytes_in += len(text.encode("utf-8"))
            return parse(text)

        for m in mods.values():
            for key, value in list(vars(m).items()):
                if value is parse:
                    setattr(m, key, counting)


SUITE_CHECKS = (
    "ah-associative", "ah-comodule-algebra", "ah-roundtrip", "ah-vs-double",
    "antipode-antialgebra", "antipode-inverse", "double-associative", "double-hopf",
    "dual-op-cop", "dual-reflexive", "entwining-axioms", "entwining-equivalence",
    "galois-baseline", "hopf-axioms", "modular-pair-equivalence", "sayd-prop5",
    "variant-involution",
)
# the suite checks that run first on a fresh algebra and so pay for its cold
# build_ah / build_double_hopf (checks run in sorted order)
BUILD_CHECKS = ("ah-associative", "ah-comodule-algebra")
LAYERS = ("algebra", "hopf", "double", "galois", "tensor", "ayd", "reps", "schema",
          "suite", "cli")


def _names():
    out = ["fields.mul.calls_fp", "fields.mul.calls_q", "fields.add.calls_fp",
           "fields.add.calls_q",
           "algebra.associativity_report.calls", "algebra.associativity_report.busy_s",
           "algebra.unit_report.busy_s",
           "hopf.verify_hopf_axioms.calls", "hopf.verify_hopf_axioms.self_s",
           "hopf.dual_hopf.busy_s", "hopf.variant.busy_s", "hopf.antipode_inverse.busy_s"]
    for fn in ("build_ah", "build_double", "build_double_hopf"):
        out += [f"double.{fn}.{s}" for s in ("calls", "hits", "self_s")]
    out += ["double.ah_double_coaction.self_s", "double.ayd_to_ah_module.busy_s",
            "double.ah_module_to_ayd.busy_s",
            "galois.check_comodule_algebra.calls", "galois.check_comodule_algebra.busy_s",
            "galois.canonical_map.busy_s", "galois.mu_action.busy_s",
            "galois.make_sayd_prop5.busy_s"]
    for fn in ("contract", "rref", "invert_matrix"):
        out += [f"tensor.{fn}.calls", f"tensor.{fn}.busy_s"]
    out += [f"ayd.{fn}.busy_s" for fn in ("check_ayd", "check_yd", "check_stability",
                                          "check_entwining", "check_entwined_module",
                                          "entwining_map")]
    out += ["reps.verify_action.busy_s", "reps.verify_coaction.busy_s",
            "schema.parse_document.calls", "schema.parse_document.busy_s",
            "schema.doc_to_hopf.busy_s", "schema.doc_to_algebra.self_s", "schema.bytes_in"]
    out += [f"suite.check.{c}.millis" for c in SUITE_CHECKS]
    out += [f"suite.check.{c}.cold_build_s" for c in BUILD_CHECKS]
    out += ["cli.main.self_s"]
    out += [f"{layer}.self_s" for layer in LAYERS]
    out += ["trace.op_s_p50"]
    return out


PER_LAYER = _names()


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".millis"):
        return "ms"
    if metric.endswith(".bytes_in"):
        return "bytes"
    return "count"


def _descendants(spans, idx):
    end = spans[idx][END]
    j = idx + 1
    while j < len(spans) and spans[j][START] < end:
        yield spans[j]
        j += 1


def summarize(tracer: Tracer) -> tuple[dict, dict]:
    """Per-operation means of every per-layer metric, plus a detail record of
    the build spans and of what run_suite charged to each check."""
    spans = tracer.spans
    ops = len(tracer.timed_ops)
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    raw: Counter = Counter()
    for idx, s in enumerate(spans):
        busy = s[END] - s[START]
        name = s[NAME]
        raw[f"{name}.calls"] += 1
        raw[f"{name}.busy_s"] += busy
        raw[f"{name}.self_s"] += busy - child[idx]
        raw[f"{name}.hits"] += s[HIT]
        raw[f"{name.split('.')[0]}.self_s"] += busy - child[idx]
    per_counted_op = Counter()
    for (op, kind), count in tracer.field_ops.items():
        kind = "q" if kind == "rationals" else "fp"
        per_counted_op[f"fields.{op}.calls_{kind}"] += count / tracer.counted_ops
    raw["schema.bytes_in"] = tracer.bytes_in
    for _target, check, millis in tracer.suite_items:
        raw[f"suite.check.{check}.millis"] += millis

    # cold builds, charged to the suite check whose span encloses them
    check_spans = [i for i, s in enumerate(spans) if s[NAME].startswith("suite.check.")]
    charged = {i: 0.0 for i in check_spans}
    builds = []
    for idx, s in enumerate(spans):
        if s[NAME] not in CACHE_KEYS or s[HIT]:
            continue
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] not in CACHE_KEYS \
                and not spans[parent][NAME].startswith("suite.check."):
            parent = spans[parent][PARENT]
        if parent >= 0 and spans[parent][NAME] in CACHE_KEYS:
            continue  # nested in another cold build, already counted there
        busy = s[END] - s[START]
        if parent >= 0:
            charged[parent] += busy
            raw[f"{spans[parent][NAME]}.cold_build_s"] += busy
        inner = Counter()
        for d in _descendants(spans, idx):
            if d[PARENT] == idx or d[NAME] == "algebra.associativity_report":
                inner[d[NAME]] += d[END] - d[START]
        builds.append({
            "build": s[NAME], "hopf": s[LABEL], "busy_s": busy,
            "verify_hopf_axioms_child_s": inner["hopf.verify_hopf_axioms"],
            "associativity_report_s": inner["algebra.associativity_report"],
            "charged_to": spans[parent][NAME] if parent >= 0 else None,
        })
    coactions = [{"hopf": s[LABEL], "busy_s": s[END] - s[START]}
                 for s in spans if s[NAME] == "double.ah_double_coaction"]
    attribution = []
    if len(check_spans) == len(tracer.suite_items):
        for i, (target, check, millis) in zip(check_spans, tracer.suite_items):
            if charged[i] > 0:
                attribution.append({"target": target, "check": check, "millis": millis,
                                    "cold_build_s": charged[i]})

    metrics = {}
    for name in PER_LAYER:
        if name.startswith("fields."):
            value = per_counted_op[name]
        elif name == "trace.op_s_p50":
            value = statistics.median(tracer.timed_ops)
        else:
            value = raw[name] / ops
        metrics[name] = {"value": value, "unit": unit_of(name)}
    detail = {"timed_ops": ops, "counted_ops": tracer.counted_ops, "spans": len(spans),
              "builds": builds, "ah_double_coaction": coactions,
              "suite_attribution": attribution}
    return metrics, detail
