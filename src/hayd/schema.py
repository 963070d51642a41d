"""JSON interchange for structure-constant documents.

One JSON object per document.  Tensors are sparse entry lists such as
{"i": 0, "j": 1, "k": 2, "c": "1/2"}; index keys i, j, k, l follow the tensor
rank in axis order.  Rational scalars travel as strings ("3/2", "-1"),
prime-field scalars as plain integers in [0, p).  Validation reports every
problem, a key the kind does not use included, with a JSON-pointer location;
dimensions are capped by HAYD_MAX_DIM (default 64) to keep exhaustive checks
at desk scale.

This module alone knows the tensor shapes of each document kind; the axis
layout of a coaction comes from ``hayd.reps``.
``parse_document`` walks every entry once and returns the document with its
``field`` and tensor entry lists replaced by the Field and Tensors it built;
the ``doc_to_*`` constructors assemble domain objects from those parts after
one check of kind, field and ``hopf_dim``.
"""

from __future__ import annotations

import json
import os

from .algebra import FinAlgebra
from .ayd import TwoSidedStructure
from .errors import FieldError, InputError, SchemaError
from .fields import Field, is_prime, prime_field, rationals
from .galois import ComoduleAlgebra
from .hopf import FinHopfAlgebra
from .reps import ActionStructure, CoactionStructure, coaction_shape
from .tensor import Tensor

DEFAULT_MAX_DIM = 64

# each kind with the top-level keys it may hold besides kind, field and name
_KEYS = {
    "hopf": {"dim", "basis", "mult", "unit", "comult", "counit", "antipode"},
    "two_sided": {"hopf_dim", "dim", "action", "coaction"},
    "comodule_algebra": {"hopf_dim", "dim", "basis", "mult", "unit", "coaction"},
    "action": {"side", "hopf_dim", "dim", "tensor"},
    "coaction": {"side", "hopf_dim", "dim", "tensor"},
    "algebra": {"dim", "basis", "mult", "unit"},
}
KINDS = tuple(_KEYS)

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


def _reject_unknown(node, allowed, pointer, chk: _Check):
    """Each key of ``node`` outside ``allowed`` is a violation at its RFC 6901
    pointer."""
    for key in sorted(set(node) - allowed):
        chk.fail(f"{pointer}/" + key.replace("~", "~0").replace("/", "~1"), "unknown key")


def _validate_field(doc, chk: _Check) -> Field | None:
    spec = doc.get("field")
    if not isinstance(spec, dict):
        chk.fail("/field", "missing or not an object")
        return None
    _reject_unknown(spec, {"kind", "characteristic"}, "/field", chk)
    kind = spec.get("kind")
    if kind == "rationals":
        if "characteristic" in spec:
            chk.fail("/field/characteristic", "rationals take no characteristic")
            return None
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


def _parse_scalar(field: Field, raw):
    """``(scalar, None)``, or ``(None, message)`` if raw is not one."""
    if field.kind == "rationals":
        if isinstance(raw, bool) or not isinstance(raw, (int, str)):
            return None, f"rational scalar must be int or 'a/b' string, got {raw!r}"
        try:
            return field.coerce(raw), None
        except FieldError:
            return None, f"bad rational literal {raw!r}"
    if isinstance(raw, bool) or not isinstance(raw, int):
        return None, f"prime-field scalar must be an integer, got {raw!r}"
    if not 0 <= raw < field.p:
        return None, f"scalar {raw} is not a residue in [0, {field.p})"
    return raw, None


def _validate_tensor(doc, key, shape, field, chk: _Check, base=""):
    """Validate the entry list doc[key] and replace it by its Tensor."""
    pointer = f"{base}/{key}"
    entries_raw = doc.get(key)
    if not isinstance(entries_raw, list):
        chk.fail(pointer, "missing or not a list of entries")
        return
    keys = _INDEX_KEYS[: len(shape)]
    allowed = {*keys, "c"}
    entries = {}
    ok = True
    # JSON pointers are formatted only for an entry that is bad
    for pos, entry in enumerate(entries_raw):
        if not isinstance(entry, dict):
            chk.fail(f"{pointer}/{pos}", "entry is not an object")
            ok = False
            continue
        if not entry.keys() <= allowed:
            chk.fail(f"{pointer}/{pos}", f"unexpected keys {sorted(entry.keys() - allowed)}")
            ok = False
        idx = tuple(map(entry.get, keys))
        for v, d, kname in zip(idx, shape, keys):
            if type(v) is not int or not 0 <= v < d:
                chk.fail(f"{pointer}/{pos}/{kname}", f"index {v!r} is not an integer in [0, {d})")
                ok = False
                break
        else:
            c, error = _parse_scalar(field, entry.get("c"))
            if error is not None:
                chk.fail(f"{pointer}/{pos}/c", error)
                ok = False
            elif field.is_zero(c):
                chk.fail(f"{pointer}/{pos}/c", "stored entries must be nonzero")
                ok = False
            elif idx in entries:
                chk.fail(f"{pointer}/{pos}", f"duplicate index {idx}")
                ok = False
            else:
                entries[idx] = c
    if ok:
        doc[key] = Tensor(field, shape, entries, _normalized=True)


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
    """Parse and validate one JSON document.

    Returns the document with ``field`` replaced by its Field and every tensor
    entry list by its validated Tensor, the parts the ``doc_to_*``
    constructors assemble.
    """
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
    _reject_unknown(doc, {"kind", "field", "name", *_KEYS[kind]}, "", chk)
    field = _validate_field(doc, chk)
    if field is None:
        chk.raise_if_failed()
    doc["field"] = field
    if "name" in doc and not isinstance(doc["name"], str):
        chk.fail("/name", f"expected a string, got {doc['name']!r}")

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
            _reject_unknown(node, {"side", "tensor"}, f"/{part}", chk)
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
    return (n, m, m) if kind == "action" else coaction_shape(side, m, n)


def load_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_document(text)


def load_hopf(path) -> FinHopfAlgebra:
    """The Hopf algebra of the hopf document at ``path``, not yet verified."""
    doc = load_document(path)
    if doc["kind"] != "hopf":
        raise InputError(f"{path}: expected a hopf document, got {doc['kind']!r}")
    return doc_to_hopf(doc)


# -- realizing domain objects from parsed documents ------------------------------


def _require(doc, kinds, H=None) -> Field:
    """The field of ``doc``, once its kind is one of ``kinds`` and, given H,
    its field and ``hopf_dim`` are those of H."""
    kind = doc["kind"]
    if kind not in kinds:
        article = "an" if kinds[0][0] in "aeiou" else "a"
        raise InputError(f"expected {article} {kinds[0]} document, got kind {kind!r}")
    if H is not None:
        if doc["field"] != H.field:
            raise InputError("document field does not match the Hopf algebra field")
        if doc["hopf_dim"] != H.dim:
            raise InputError(
                f"document hopf_dim {doc['hopf_dim']} does not match the Hopf algebra ({H.dim})"
            )
    return doc["field"]


def doc_to_hopf(doc) -> FinHopfAlgebra:
    return FinHopfAlgebra(
        _require(doc, ("hopf",)),
        doc["mult"], doc["unit"], doc["comult"], doc["counit"], doc["antipode"],
        basis_names=doc.get("basis"),
        name=doc.get("name", "H"),
    )


def doc_to_algebra(doc, check=True) -> FinAlgebra:
    """The algebra of an algebra or comodule_algebra document; with ``check``
    a failing algebra axiom raises CheckFailedError."""
    return FinAlgebra(
        _require(doc, ("algebra", "comodule_algebra")),
        doc["mult"], doc["unit"],
        basis_names=doc.get("basis"),
        name=doc.get("name") or "algebra",
        check=check,
    )


def doc_to_action(doc, H: FinHopfAlgebra) -> ActionStructure:
    _require(doc, ("action",), H)
    return ActionStructure(doc["side"], doc["dim"], doc["tensor"])


def doc_to_coaction(doc, H: FinHopfAlgebra) -> CoactionStructure:
    _require(doc, ("coaction",), H)
    return CoactionStructure(doc["side"], doc["dim"], doc["tensor"])


def doc_to_two_sided(doc, H: FinHopfAlgebra) -> TwoSidedStructure:
    _require(doc, ("two_sided",), H)
    act, co = doc["action"], doc["coaction"]
    return TwoSidedStructure(
        H,
        ActionStructure(act["side"], doc["dim"], act["tensor"]),
        CoactionStructure(co["side"], doc["dim"], co["tensor"]),
    )


def doc_to_comodule_algebra(doc, H: FinHopfAlgebra) -> ComoduleAlgebra:
    """The comodule algebra of the document over H.  Its algebra axioms are
    scanned first, then the coaction's; the first failure raises
    CheckFailedError with its report."""
    _require(doc, ("comodule_algebra",), H)
    P = doc_to_algebra(doc)
    return ComoduleAlgebra(P, H, CoactionStructure("right", P.dim, doc["coaction"]))


# -- serialization ----------------------------------------------------------------


def _field_doc(field: Field):
    if field.kind == "rationals":
        return {"kind": "rationals"}
    return {"kind": "prime-field", "characteristic": field.p}


def _scalar_doc(field: Field, c):
    return str(c) if field.kind == "rationals" else int(c)


def tensor_to_doc(t: Tensor):
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
        "mult": tensor_to_doc(H.mult),
        "unit": tensor_to_doc(H.unit),
        "comult": tensor_to_doc(H.comult),
        "counit": tensor_to_doc(H.counit),
        "antipode": tensor_to_doc(H.antipode),
    }


def algebra_to_doc(A: FinAlgebra) -> dict:
    return {
        "kind": "algebra",
        "name": A.name,
        "field": _field_doc(A.field),
        "dim": A.dim,
        "basis": list(A.basis_names),
        "mult": tensor_to_doc(A.mult),
        "unit": tensor_to_doc(A.unit),
    }


def two_sided_to_doc(M) -> dict:
    return {
        "kind": "two_sided",
        "field": _field_doc(M.hopf.field),
        "hopf_dim": M.hopf.dim,
        "dim": M.dim,
        "action": {"side": M.action.side, "tensor": tensor_to_doc(M.action.tensor)},
        "coaction": {"side": M.coaction.side, "tensor": tensor_to_doc(M.coaction.tensor)},
    }


def action_to_doc(A: ActionStructure, hopf_dim: int) -> dict:
    return {
        "kind": "action",
        "field": _field_doc(A.tensor.field),
        "side": A.side,
        "hopf_dim": hopf_dim,
        "dim": A.dim,
        "tensor": tensor_to_doc(A.tensor),
    }


def coaction_to_doc(C: CoactionStructure, hopf_dim: int) -> dict:
    return {
        "kind": "coaction",
        "field": _field_doc(C.tensor.field),
        "side": C.side,
        "hopf_dim": hopf_dim,
        "dim": C.dim,
        "tensor": tensor_to_doc(C.tensor),
    }


def comodule_algebra_to_doc(CA) -> dict:
    return {
        "kind": "comodule_algebra",
        "field": _field_doc(CA.field),
        "hopf_dim": CA.H.dim,
        "dim": CA.dim,
        "basis": list(CA.P.basis_names),
        "mult": tensor_to_doc(CA.P.mult),
        "unit": tensor_to_doc(CA.P.unit),
        "coaction": tensor_to_doc(CA.coaction.tensor),
    }


def dumps(doc: dict) -> str:
    """Deterministic serialization: sorted keys, no incidental whitespace drift."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
