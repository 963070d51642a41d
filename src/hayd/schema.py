"""JSON interchange for structure-constant documents.

One JSON object per document.  Tensors are sparse entry lists such as
{"i": 0, "j": 1, "k": 2, "c": "1/2"}; index keys i, j, k, l follow the tensor
rank in axis order.  Rational scalars travel as strings ("3/2", "-1"),
prime-field scalars as plain integers in [0, p).  Validation reports every
problem, a key the kind does not use included, with a JSON-pointer location;
dimensions are capped by HAYD_MAX_DIM (default 64) to keep exhaustive checks
at desk scale.

``_KINDS`` is the one place each document kind is described: its dimension
keys and its parts in document order, basis, tensors and side-plus-tensor
structures with their shapes over the Hopf dimension n and the space
dimension m.  One loop in ``parse_document`` validates those parts and one
function, ``_to_doc``, serializes them; the axis layout of a coaction comes
from ``hayd.reps``.  ``parse_document`` walks every entry once and returns
the document with its ``field`` and tensor entry lists replaced by the Field
and Tensors it built; the ``doc_to_*`` constructors assemble domain objects
from those parts after one check of kind, field and ``hopf_dim``.
"""

from __future__ import annotations

import json
import os

from .algebra import FinAlgebra
from .ayd import TwoSidedStructure
from .errors import FieldError, InputError, SchemaError
from .fields import CHARACTERISTIC_BOUND, Field, is_prime, prime_field, rationals
from .galois import ComoduleAlgebra
from .hopf import FinHopfAlgebra
from .reps import ActionStructure, CoactionStructure, coaction_shape
from .tensor import Tensor

DEFAULT_MAX_DIM = 64


def _action_shape(side, dim, hopf_dim):
    """The shape of an action tensor, the same on either side."""
    return (hopf_dim, dim, dim)


# Each kind's dimension keys, the Hopf dimension n first and the space
# dimension m last (hopf and algebra have one key for both), and its parts in
# document order as (key, shape): shape None for a basis of m names, a string
# over n and m for a tensor's axes, or a function shape(side, m, n) for a
# side-plus-tensor structure, nested under key or, with key None, at the top
# level.
_KINDS = {
    "hopf": (("dim",), (("basis", None), ("mult", "nnn"), ("unit", "n"),
                        ("comult", "nnn"), ("counit", "n"), ("antipode", "nn"))),
    "two_sided": (("hopf_dim", "dim"), (("action", _action_shape), ("coaction", coaction_shape))),
    "comodule_algebra": (("hopf_dim", "dim"), (("basis", None), ("mult", "mmm"), ("unit", "m"),
                                               ("coaction", "mmn"))),
    "action": (("hopf_dim", "dim"), ((None, _action_shape),)),
    "coaction": (("hopf_dim", "dim"), ((None, coaction_shape),)),
    "algebra": (("dim",), (("basis", None), ("mult", "mmm"), ("unit", "m"))),
}
KINDS = tuple(_KINDS)

_INDEX_KEYS = ("i", "j", "k", "l")


def max_dim() -> int:
    raw = os.environ.get("HAYD_MAX_DIM", "")
    if not raw:
        return DEFAULT_MAX_DIM
    try:  # ASCII digits only: int() also reads " 81", "8_1", "+81" and "٨١"
        cap = int(raw) if raw.isascii() and raw.isdigit() else 0
    except ValueError:  # more digits than int() converts
        cap = 0
    if cap < 1:
        raise InputError(f"HAYD_MAX_DIM={raw!r} is not a positive integer")
    return cap


def _reject_unknown(node, allowed, pointer, bad: list):
    """Each key of ``node`` outside ``allowed`` is a violation at its RFC 6901
    pointer."""
    for key in sorted(set(node) - allowed):
        bad.append((f"{pointer}/" + key.replace("~", "~0").replace("/", "~1"), "unknown key"))


def _validate_field(doc, bad: list) -> Field | None:
    spec = doc.get("field")
    if not isinstance(spec, dict):
        bad.append(("/field", "missing or not an object"))
        return None
    _reject_unknown(spec, {"kind", "characteristic"}, "/field", bad)
    kind = spec.get("kind")
    if kind == "rationals":
        if "characteristic" in spec:
            bad.append(("/field/characteristic", "rationals take no characteristic"))
            return None
        return rationals()
    if kind == "prime-field":
        p = spec.get("characteristic")
        if isinstance(p, int) and p >= CHARACTERISTIC_BOUND:
            bad.append(("/field/characteristic", f"{p} is not below 2**64"))
            return None
        if not isinstance(p, int) or not is_prime(p):
            bad.append(("/field/characteristic", f"{p!r} is not a prime integer"))
            return None
        return prime_field(p)
    bad.append(("/field/kind", f"expected 'rationals' or 'prime-field', got {kind!r}"))
    return None


def _validate_dim(doc, key, bad: list) -> int | None:
    d = doc.get(key)
    if type(d) is not int or d < 1:
        bad.append((f"/{key}", f"expected a positive integer, got {d!r}"))
        return None
    cap = max_dim()
    if d > cap:
        bad.append((f"/{key}", f"dimension {d} exceeds HAYD_MAX_DIM={cap}"))
        return None
    return d


def _parse_scalar(field: Field, raw):
    """``(scalar, None)``, or ``(None, message)`` if raw is not one."""
    if field.p is None:
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


def _validate_tensor(doc, key, shape, field, bad: list, base=""):
    """Validate the entry list doc[key] and replace it by its Tensor."""
    pointer = f"{base}/{key}"
    entries_raw = doc.get(key)
    if not isinstance(entries_raw, list):
        bad.append((pointer, "missing or not a list of entries"))
        return
    keys = _INDEX_KEYS[: len(shape)]
    allowed = {*keys, "c"}
    entries = {}
    # JSON pointers are formatted only for an entry that is bad
    for pos, entry in enumerate(entries_raw):
        if not isinstance(entry, dict):
            bad.append((f"{pointer}/{pos}", "entry is not an object"))
            continue
        if not entry.keys() <= allowed:
            bad.append((f"{pointer}/{pos}", f"unexpected keys {sorted(entry.keys() - allowed)}"))
        idx = tuple(map(entry.get, keys))
        for v, d, kname in zip(idx, shape, keys):
            if type(v) is not int or not 0 <= v < d:
                bad.append((f"{pointer}/{pos}/{kname}", f"index {v!r} is not an integer in [0, {d})"))
                break
        else:
            c, error = _parse_scalar(field, entry.get("c"))
            if error is not None:
                bad.append((f"{pointer}/{pos}/c", error))
            elif field.is_zero(c):
                bad.append((f"{pointer}/{pos}/c", "stored entries must be nonzero"))
            elif idx in entries:
                bad.append((f"{pointer}/{pos}", f"duplicate index {idx}"))
            else:
                entries[idx] = c
    doc[key] = Tensor(field, shape, entries, _normalized=True)


def _validate_basis(doc, dim, bad: list):
    basis = doc.get("basis")
    if "basis" in doc and (not isinstance(basis, list) or len(basis) != dim
                              or not all(isinstance(b, str) for b in basis)):
        bad.append(("/basis", f"expected a list of {dim} strings"))


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
    except ValueError as exc:  # an integer literal beyond Python's int-string limit
        raise SchemaError([("", f"JSON parse error: {exc}")])
    if not isinstance(doc, dict):
        raise SchemaError([("", "document must be a JSON object")])
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError([("/kind", f"expected one of {list(KINDS)}, got {kind!r}")])
    bad = []
    dim_keys, parts = _KINDS[kind]
    allowed = {"kind", "field", "name", *dim_keys}
    for key, _ in parts:
        allowed.update((key,) if key else ("side", "tensor"))
    _reject_unknown(doc, allowed, "", bad)
    field = _validate_field(doc, bad)
    if field is None:
        raise SchemaError(bad)
    doc["field"] = field
    if "name" in doc and not isinstance(doc["name"], str):
        bad.append(("/name", f"expected a string, got {doc['name']!r}"))

    dims = [_validate_dim(doc, key, bad) for key in dim_keys]
    size = None if None in dims else {"n": dims[0], "m": dims[-1]}
    for key, shape in parts:
        if callable(shape):
            _validate_structure(doc, key, shape, size, field, bad)
        elif size is None:
            continue  # a bad dimension leaves no basis or tensor to shape
        elif shape is None:
            _validate_basis(doc, size["m"], bad)
        else:
            _validate_tensor(doc, key, tuple(size[axis] for axis in shape), field, bad)
    if bad:
        raise SchemaError(bad)
    return doc


def _validate_structure(doc, key, shape, size, field, bad: list):
    """Validate a side and the tensor it shapes, in the object doc[key] or,
    with key None, at the top level of doc."""
    node, base = doc, ""
    if key is not None:
        node, base = doc.get(key), f"/{key}"
        if not isinstance(node, dict):
            bad.append((base, "missing or not an object"))
            return
        _reject_unknown(node, {"side", "tensor"}, base, bad)
    side = node.get("side")
    if side not in ("left", "right"):
        bad.append((f"{base}/side", f"expected 'left' or 'right', got {side!r}"))
    elif size is not None:
        _validate_tensor(node, "tensor", shape(side, size["m"], size["n"]), field, bad, base)


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
    if field.p is None:
        return {"kind": "rationals"}
    return {"kind": "prime-field", "characteristic": field.p}


def _scalar_doc(field: Field, c):
    return str(c) if field.p is None else int(c)


def tensor_to_doc(t: Tensor):
    keys = _INDEX_KEYS[: t.rank]
    out = []
    for idx in sorted(t.entries):
        entry = {k: i for k, i in zip(keys, idx)}
        entry["c"] = _scalar_doc(t.field, t.entries[idx])
        out.append(entry)
    return out


def _to_doc(kind, field, dims, parts, **extra) -> dict:
    """The document of ``kind`` with ``dims`` and ``parts`` in ``_KINDS``
    order: basis names, Tensors and side-plus-tensor structures."""
    dim_keys, layout = _KINDS[kind]
    doc = {"kind": kind, **extra, "field": _field_doc(field), **dict(zip(dim_keys, dims))}
    for (key, shape), part in zip(layout, parts):
        if shape is None:
            doc[key] = list(part)
        elif isinstance(shape, str):
            doc[key] = tensor_to_doc(part)
        else:
            node = {"side": part.side, "tensor": tensor_to_doc(part.tensor)}
            doc.update(node if key is None else {key: node})
    return doc


def hopf_to_doc(H: FinHopfAlgebra) -> dict:
    return _to_doc("hopf", H.field, (H.dim,),
                   (H.basis_names, H.mult, H.unit, H.comult, H.counit, H.antipode), name=H.name)


def algebra_to_doc(A: FinAlgebra) -> dict:
    return _to_doc("algebra", A.field, (A.dim,), (A.basis_names, A.mult, A.unit), name=A.name)


def two_sided_to_doc(M) -> dict:
    return _to_doc("two_sided", M.hopf.field, (M.hopf.dim, M.dim), (M.action, M.coaction))


def action_to_doc(A: ActionStructure, hopf_dim: int) -> dict:
    return _to_doc("action", A.tensor.field, (hopf_dim, A.dim), (A,))


def coaction_to_doc(C: CoactionStructure, hopf_dim: int) -> dict:
    return _to_doc("coaction", C.tensor.field, (hopf_dim, C.dim), (C,))


def comodule_algebra_to_doc(CA) -> dict:
    return _to_doc("comodule_algebra", CA.field, (CA.H.dim, CA.dim),
                   (CA.P.basis_names, CA.P.mult, CA.P.unit, CA.coaction.tensor))


def dumps(doc: dict) -> str:
    """Deterministic serialization: sorted keys, no incidental whitespace drift."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
