"""JSON interchange for structure-constant documents.

One JSON object per document.  Tensors are sparse entry lists such as
{"i": 0, "j": 1, "k": 2, "c": "1/2"}; index keys i, j, k, l follow the tensor
rank in axis order.  Rational scalars travel as strings ("3/2", "-1"),
prime-field scalars as plain integers in [0, p).  Validation reports every
problem with a JSON-pointer location; dimensions are capped by HAYD_MAX_DIM
(default 64) to keep exhaustive checks at desk scale.
"""

from __future__ import annotations

import json
import os

from .algebra import FinAlgebra
from .errors import FieldError, InputError, SchemaError
from .fields import Field, is_prime, prime_field, rationals
from .hopf import FinHopfAlgebra
from .reps import ActionStructure, CoactionStructure
from .tensor import Tensor

DEFAULT_MAX_DIM = 64

KINDS = ("hopf", "two_sided", "comodule_algebra", "action", "coaction", "algebra")

_INDEX_KEYS = ("i", "j", "k", "l")


def max_dim() -> int:
    raw = os.environ.get("HAYD_MAX_DIM", "")
    if not raw:
        return DEFAULT_MAX_DIM
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise InputError(f"HAYD_MAX_DIM={raw!r} is not a positive integer")
    return cap


class _Check:
    def __init__(self):
        self.violations = []

    def fail(self, pointer, message):
        self.violations.append((pointer, message))

    def raise_if_failed(self):
        if self.violations:
            raise SchemaError(self.violations)


def _validate_field(doc, chk: _Check) -> Field | None:
    spec = doc.get("field")
    if not isinstance(spec, dict):
        chk.fail("/field", "missing or not an object")
        return None
    kind = spec.get("kind")
    if kind == "rationals":
        return rationals()
    if kind == "prime-field":
        p = spec.get("characteristic")
        if not isinstance(p, int) or not is_prime(p):
            chk.fail("/field/characteristic", f"{p!r} is not a prime integer")
            return None
        return prime_field(p)
    chk.fail("/field/kind", f"expected 'rationals' or 'prime-field', got {kind!r}")
    return None


def _validate_dim(doc, key, chk: _Check) -> int | None:
    d = doc.get(key)
    if type(d) is not int or d < 1:
        chk.fail(f"/{key}", f"expected a positive integer, got {d!r}")
        return None
    cap = max_dim()
    if d > cap:
        chk.fail(f"/{key}", f"dimension {d} exceeds HAYD_MAX_DIM={cap}")
        return None
    return d


def _parse_scalar(field: Field, raw, pointer, chk: _Check):
    if field.kind == "rationals":
        if isinstance(raw, bool) or not isinstance(raw, (int, str)):
            chk.fail(pointer, f"rational scalar must be int or 'a/b' string, got {raw!r}")
            return None
        try:
            return field.coerce(raw)
        except FieldError:
            chk.fail(pointer, f"bad rational literal {raw!r}")
            return None
    if isinstance(raw, bool) or not isinstance(raw, int):
        chk.fail(pointer, f"prime-field scalar must be an integer, got {raw!r}")
        return None
    if not 0 <= raw < field.p:
        chk.fail(pointer, f"scalar {raw} is not a residue in [0, {field.p})")
        return None
    return raw


def _validate_tensor(doc, key, shape, field, chk: _Check, base="") -> Tensor | None:
    pointer = f"{base}/{key}"
    entries_raw = doc.get(key)
    if not isinstance(entries_raw, list):
        chk.fail(pointer, "missing or not a list of entries")
        return None
    rank = len(shape)
    keys = _INDEX_KEYS[:rank]
    entries = {}
    ok = True
    for pos, entry in enumerate(entries_raw):
        ep = f"{pointer}/{pos}"
        if not isinstance(entry, dict):
            chk.fail(ep, "entry is not an object")
            ok = False
            continue
        extra = set(entry) - set(keys) - {"c"}
        if extra:
            chk.fail(ep, f"unexpected keys {sorted(extra)}")
            ok = False
        idx = []
        for ax, kname in enumerate(keys):
            v = entry.get(kname)
            if type(v) is not int or not 0 <= v < shape[ax]:
                chk.fail(f"{ep}/{kname}", f"index {v!r} is not an integer in [0, {shape[ax]})")
                ok = False
                idx = None
                break
            idx.append(v)
        if idx is None:
            continue
        c = _parse_scalar(field, entry.get("c"), f"{ep}/c", chk)
        if c is None:
            ok = False
            continue
        if field.is_zero(c):
            chk.fail(f"{ep}/c", "stored entries must be nonzero")
            ok = False
            continue
        idx = tuple(idx)
        if idx in entries:
            chk.fail(ep, f"duplicate index {idx}")
            ok = False
            continue
        entries[idx] = c
    if not ok:
        return None
    return Tensor(field, shape, entries, _normalized=True)


def _validate_basis(doc, dim, chk: _Check):
    basis = doc.get("basis")
    if basis is None:
        return None
    if not isinstance(basis, list) or len(basis) != dim or not all(
        isinstance(b, str) for b in basis
    ):
        chk.fail("/basis", f"expected a list of {dim} strings")
        return None
    return basis


def _validate_side(node, pointer, chk: _Check):
    side = node.get("side")
    if side not in ("left", "right"):
        chk.fail(f"{pointer}/side", f"expected 'left' or 'right', got {side!r}")
        return None
    return side


def parse_document(text: str) -> dict:
    """Parse and validate one JSON document; returns the raw dict."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError([("", f"JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}")])
    if not isinstance(doc, dict):
        raise SchemaError([("", "document must be a JSON object")])
    chk = _Check()
    kind = doc.get("kind")
    if kind not in KINDS:
        chk.fail("/kind", f"expected one of {list(KINDS)}, got {kind!r}")
        chk.raise_if_failed()
    field = _validate_field(doc, chk)
    if field is None:
        chk.raise_if_failed()

    if kind in ("hopf", "algebra"):
        n = _validate_dim(doc, "dim", chk)
        if n is None:
            chk.raise_if_failed()
        _validate_basis(doc, n, chk)
        _validate_tensor(doc, "mult", (n, n, n), field, chk)
        _validate_tensor(doc, "unit", (n,), field, chk)
        if kind == "hopf":
            _validate_tensor(doc, "comult", (n, n, n), field, chk)
            _validate_tensor(doc, "counit", (n,), field, chk)
            _validate_tensor(doc, "antipode", (n, n), field, chk)
    elif kind in ("action", "coaction"):
        n = _validate_dim(doc, "hopf_dim", chk)
        m = _validate_dim(doc, "dim", chk)
        side = _validate_side(doc, "", chk)
        if None not in (n, m, side):
            shape = _structure_shape(kind, side, n, m)
            _validate_tensor(doc, "tensor", shape, field, chk)
    elif kind == "two_sided":
        n = _validate_dim(doc, "hopf_dim", chk)
        m = _validate_dim(doc, "dim", chk)
        for part, part_kind in (("action", "action"), ("coaction", "coaction")):
            node = doc.get(part)
            if not isinstance(node, dict):
                chk.fail(f"/{part}", "missing or not an object")
                continue
            side = _validate_side(node, f"/{part}", chk)
            if None in (n, m, side):
                continue
            shape = _structure_shape(part_kind, side, n, m)
            _validate_tensor(node, "tensor", shape, field, chk, base=f"/{part}")
    elif kind == "comodule_algebra":
        n = _validate_dim(doc, "hopf_dim", chk)
        m = _validate_dim(doc, "dim", chk)
        if None not in (n, m):
            _validate_basis(doc, m, chk)
            _validate_tensor(doc, "mult", (m, m, m), field, chk)
            _validate_tensor(doc, "unit", (m,), field, chk)
            _validate_tensor(doc, "coaction", (m, m, n), field, chk)
    chk.raise_if_failed()
    return doc


def _structure_shape(kind, side, n, m):
    if kind == "action":
        return (n, m, m)
    return (m, n, m) if side == "left" else (m, m, n)


def load_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_document(text)


def parse_input(path_or_text) -> dict:
    """Validate a document given as a filesystem path or as raw JSON text."""
    s = str(path_or_text)
    if not s.lstrip().startswith("{") and os.path.exists(s):
        return load_document(s)
    return parse_document(s)


# -- realizing domain objects ---------------------------------------------------


def _field_of(doc) -> Field:
    spec = doc["field"]
    if spec["kind"] == "rationals":
        return rationals()
    return prime_field(spec["characteristic"])


def _tensor_of(doc, key, shape, field) -> Tensor:
    entries = {}
    rank = len(shape)
    keys = _INDEX_KEYS[:rank]
    for entry in doc[key]:
        idx = tuple(entry[k] for k in keys)
        entries[idx] = field.coerce(entry["c"])
    return Tensor(field, shape, entries, _normalized=True)


def doc_to_hopf(doc) -> FinHopfAlgebra:
    if doc["kind"] != "hopf":
        raise InputError(f"expected a hopf document, got kind {doc['kind']!r}")
    f = _field_of(doc)
    n = doc["dim"]
    return FinHopfAlgebra(
        f,
        _tensor_of(doc, "mult", (n, n, n), f),
        _tensor_of(doc, "unit", (n,), f),
        _tensor_of(doc, "comult", (n, n, n), f),
        _tensor_of(doc, "counit", (n,), f),
        _tensor_of(doc, "antipode", (n, n), f),
        basis_names=doc.get("basis"),
        name=doc.get("name", "H"),
    )


def doc_to_algebra(doc, check=True) -> FinAlgebra:
    if doc["kind"] not in ("algebra", "comodule_algebra"):
        raise InputError(f"expected an algebra document, got kind {doc['kind']!r}")
    f = _field_of(doc)
    m = doc["dim"]
    return FinAlgebra(
        f,
        _tensor_of(doc, "mult", (m, m, m), f),
        _tensor_of(doc, "unit", (m,), f),
        basis_names=doc.get("basis"),
        name=doc.get("name", "algebra"),
        check=check,
    )


def doc_to_action(doc, hopf_dim=None) -> ActionStructure:
    f = _field_of(doc)
    n, m, side = doc["hopf_dim"], doc["dim"], doc["side"]
    if hopf_dim is not None and n != hopf_dim:
        raise InputError(f"document hopf_dim {n} does not match the Hopf algebra ({hopf_dim})")
    return ActionStructure(side, m, _tensor_of(doc, "tensor", (n, m, m), f))


def doc_to_coaction(doc, hopf_dim=None) -> CoactionStructure:
    f = _field_of(doc)
    n, m, side = doc["hopf_dim"], doc["dim"], doc["side"]
    if hopf_dim is not None and n != hopf_dim:
        raise InputError(f"document hopf_dim {n} does not match the Hopf algebra ({hopf_dim})")
    shape = _structure_shape("coaction", side, n, m)
    return CoactionStructure(side, m, _tensor_of(doc, "tensor", shape, f))


def doc_to_two_sided(doc, H: FinHopfAlgebra):
    from .ayd import TwoSidedStructure

    f = _field_of(doc)
    if f != H.field:
        raise InputError("document field does not match the Hopf algebra field")
    n, m = doc["hopf_dim"], doc["dim"]
    if n != H.dim:
        raise InputError(f"document hopf_dim {n} does not match the Hopf algebra ({H.dim})")
    act_node, co_node = doc["action"], doc["coaction"]
    act = ActionStructure(
        act_node["side"], m,
        _tensor_of(act_node, "tensor", (n, m, m), f),
    )
    co_shape = _structure_shape("coaction", co_node["side"], n, m)
    co = CoactionStructure(
        co_node["side"], m, _tensor_of(co_node, "tensor", co_shape, f)
    )
    return TwoSidedStructure(H, act, co)


def doc_to_comodule_algebra(doc, H: FinHopfAlgebra):
    from .galois import ComoduleAlgebra

    f = _field_of(doc)
    if f != H.field:
        raise InputError("document field does not match the Hopf algebra field")
    n, m = doc["hopf_dim"], doc["dim"]
    if n != H.dim:
        raise InputError(f"document hopf_dim {n} does not match the Hopf algebra ({H.dim})")
    P = doc_to_algebra(dict(doc, kind="algebra"), check=True)
    co = CoactionStructure("right", m, _tensor_of(doc, "coaction", (m, m, n), f))
    return ComoduleAlgebra(P, H, co)


# -- serialization ----------------------------------------------------------------


def _field_doc(field: Field):
    if field.kind == "rationals":
        return {"kind": "rationals"}
    return {"kind": "prime-field", "characteristic": field.p}


def _scalar_doc(field: Field, c):
    return str(c) if field.kind == "rationals" else int(c)


def _tensor_doc(t: Tensor):
    keys = _INDEX_KEYS[: t.rank]
    out = []
    for idx in sorted(t.entries):
        entry = {k: i for k, i in zip(keys, idx)}
        entry["c"] = _scalar_doc(t.field, t.entries[idx])
        out.append(entry)
    return out


def hopf_to_doc(H: FinHopfAlgebra) -> dict:
    return {
        "kind": "hopf",
        "name": H.name,
        "field": _field_doc(H.field),
        "dim": H.dim,
        "basis": list(H.basis_names),
        "mult": _tensor_doc(H.mult),
        "unit": _tensor_doc(H.unit),
        "comult": _tensor_doc(H.comult),
        "counit": _tensor_doc(H.counit),
        "antipode": _tensor_doc(H.antipode),
    }


def algebra_to_doc(A: FinAlgebra) -> dict:
    return {
        "kind": "algebra",
        "name": A.name,
        "field": _field_doc(A.field),
        "dim": A.dim,
        "basis": list(A.basis_names),
        "mult": _tensor_doc(A.mult),
        "unit": _tensor_doc(A.unit),
    }


def two_sided_to_doc(M) -> dict:
    return {
        "kind": "two_sided",
        "field": _field_doc(M.hopf.field),
        "hopf_dim": M.hopf.dim,
        "dim": M.dim,
        "action": {"side": M.action.side, "tensor": _tensor_doc(M.action.tensor)},
        "coaction": {"side": M.coaction.side, "tensor": _tensor_doc(M.coaction.tensor)},
    }


def action_to_doc(A: ActionStructure, hopf_dim: int) -> dict:
    return {
        "kind": "action",
        "field": _field_doc(A.tensor.field),
        "side": A.side,
        "hopf_dim": hopf_dim,
        "dim": A.dim,
        "tensor": _tensor_doc(A.tensor),
    }


def coaction_to_doc(C: CoactionStructure, hopf_dim: int) -> dict:
    return {
        "kind": "coaction",
        "field": _field_doc(C.tensor.field),
        "side": C.side,
        "hopf_dim": hopf_dim,
        "dim": C.dim,
        "tensor": _tensor_doc(C.tensor),
    }


def comodule_algebra_to_doc(CA) -> dict:
    return {
        "kind": "comodule_algebra",
        "field": _field_doc(CA.field),
        "hopf_dim": CA.H.dim,
        "dim": CA.dim,
        "basis": list(CA.P.basis_names),
        "mult": _tensor_doc(CA.P.mult),
        "unit": _tensor_doc(CA.P.unit),
        "coaction": _tensor_doc(CA.coaction.tensor),
    }


def dumps(doc: dict) -> str:
    """Deterministic serialization: sorted keys, no incidental whitespace drift."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
