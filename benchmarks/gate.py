"""Independent evaluation of the Hopf and algebra axioms from a document's constants.

The ``corrupt`` workload's correctness gate uses this module to recompute the
first violated (axiom, witness) of a corrupted document and to evaluate both
sides of the named identity at the reported witness.  It imports nothing from
hayd: scalars are plain ``int`` (reduced mod p only when compared) or
``Fraction``, and tensors are nested dicts.

The scan order copies the contract of ``verify_hopf_axioms``: associativity,
unit, coassociativity, counit, then per (i, j) bialgebra-mult followed by
bialgebra-counit, then bialgebra-unit and the antipode, each over basis tuples
in lexicographic order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

_KEYS = "ijkl"


class Constants:
    """The structure constants of one ``hopf`` or ``algebra`` document."""

    def __init__(self, doc: dict):
        field = doc["field"]
        self.p = field["characteristic"] if field["kind"] == "prime-field" else None
        self.n = doc["dim"]
        scalar = int if self.p else Fraction
        self.mult: dict[tuple, dict] = {}
        for (i, j, k), c in self._entries(doc, "mult", 3, scalar):
            self.mult.setdefault((i, j), {})[k] = c
        self.unit = {i: c for (i,), c in self._entries(doc, "unit", 1, scalar)}
        self.comult: dict[int, dict] = {}
        for (i, j, k), c in self._entries(doc, "comult", 3, scalar):
            self.comult.setdefault(i, {})[(j, k)] = c
        self.counit = {i: c for (i,), c in self._entries(doc, "counit", 1, scalar)}
        self.antipode: dict[int, dict] = {}
        for (i, j), c in self._entries(doc, "antipode", 2, scalar):
            self.antipode.setdefault(i, {})[j] = c

    @staticmethod
    def _entries(doc, key, rank, scalar):
        for e in doc.get(key, ()):
            yield tuple(e[k] for k in _KEYS[:rank]), scalar(e["c"])

    def reduce(self, acc: dict) -> dict:
        """Drop zero coefficients, reducing mod p over a prime field."""
        if self.p:
            acc = {k: v % self.p for k, v in acc.items()}
        return {k: v for k, v in acc.items() if v}


def _add(acc, key, c):
    acc[key] = acc.get(key, 0) + c


def _fail_side(C, left, right, want):
    """Mirror the program's (got, want) pair for a two-sided law."""
    left, right, want = C.reduce(left), C.reduce(right), C.reduce(want)
    return (left if left != want else right), want


def associativity(C, i, j, k):
    lhs, rhs = {}, {}
    for m, c in C.mult.get((i, j), {}).items():
        for l, d in C.mult.get((m, k), {}).items():
            _add(lhs, l, c * d)
    for m, c in C.mult.get((j, k), {}).items():
        for l, d in C.mult.get((i, m), {}).items():
            _add(rhs, l, c * d)
    return C.reduce(lhs), C.reduce(rhs)


def unit(C, i):
    left, right = {}, {}
    for u, cu in C.unit.items():
        for k, c in C.mult.get((u, i), {}).items():
            _add(left, k, cu * c)
        for k, c in C.mult.get((i, u), {}).items():
            _add(right, k, cu * c)
    return _fail_side(C, left, right, {i: 1})


def coassociativity(C, i):
    lhs, rhs = {}, {}
    for (j, k), c in C.comult.get(i, {}).items():
        for (a, b), d in C.comult.get(j, {}).items():
            _add(lhs, (a, b, k), c * d)
        for (a, b), d in C.comult.get(k, {}).items():
            _add(rhs, (j, a, b), c * d)
    return C.reduce(lhs), C.reduce(rhs)


def counit(C, i):
    left, right = {}, {}
    for (j, k), c in C.comult.get(i, {}).items():
        if j in C.counit:
            _add(left, k, C.counit[j] * c)
        if k in C.counit:
            _add(right, j, C.counit[k] * c)
    return _fail_side(C, left, right, {i: 1})


def bialgebra_mult(C, i, j):
    lhs, rhs = {}, {}
    for k, c in C.mult.get((i, j), {}).items():
        for (a, b), d in C.comult.get(k, {}).items():
            _add(lhs, (a, b), c * d)
    for (p, q), c1 in C.comult.get(i, {}).items():
        for (r, s), c2 in C.comult.get(j, {}).items():
            for a, ca in C.mult.get((p, r), {}).items():
                for b, cb in C.mult.get((q, s), {}).items():
                    _add(rhs, (a, b), c1 * c2 * ca * cb)
    return C.reduce(lhs), C.reduce(rhs)


def bialgebra_counit(C, i, j):
    got = sum(c * C.counit.get(k, 0) for k, c in C.mult.get((i, j), {}).items())
    want = C.counit.get(i, 0) * C.counit.get(j, 0)
    return C.reduce({(): got}), C.reduce({(): want})


def bialgebra_unit(C, _witness=0):  # the program reports this law at (0,)
    lhs, rhs = {}, {}
    for i, u in C.unit.items():
        for key, c in C.comult.get(i, {}).items():
            _add(lhs, key, u * c)
    for (a, ua), (b, ub) in product(C.unit.items(), repeat=2):
        _add(rhs, (a, b), ua * ub)
    lhs, rhs = C.reduce(lhs), C.reduce(rhs)
    if lhs != rhs:
        return lhs, rhs
    eps_one = sum(u * C.counit.get(i, 0) for i, u in C.unit.items())
    return C.reduce({(): eps_one}), C.reduce({(): 1})


def antipode(C, i):
    left, right = {}, {}
    for (j, k), c in C.comult.get(i, {}).items():
        for m, cs in C.antipode.get(j, {}).items():
            for l, cm in C.mult.get((m, k), {}).items():
                _add(left, l, c * cs * cm)
        for m, cs in C.antipode.get(k, {}).items():
            for l, cm in C.mult.get((j, m), {}).items():
                _add(right, l, c * cs * cm)
    e_i = C.counit.get(i, 0)
    want = {l: e_i * u for l, u in C.unit.items()}
    return _fail_side(C, left, right, want)


SIDES = {
    "associativity": associativity,
    "unit": unit,
    "coassociativity": coassociativity,
    "counit": counit,
    "bialgebra-mult": bialgebra_mult,
    "bialgebra-counit": bialgebra_counit,
    "bialgebra-unit": bialgebra_unit,
    "antipode": antipode,
}
ARITY = {
    "associativity": 3, "unit": 1, "coassociativity": 1, "counit": 1,
    "bialgebra-mult": 2, "bialgebra-counit": 2, "bialgebra-unit": 1, "antipode": 1,
}


def violated(C, axiom, witness) -> bool:
    lhs, rhs = SIDES[axiom](C, *witness)
    return lhs != rhs


def _first(C, axiom, tuples):
    for w in tuples:
        if violated(C, axiom, w):
            return axiom, tuple(w)
    return None


def first_hopf_violation(C):
    """The first violated (axiom, witness) of a hopf document, by full scan."""
    n = range(C.n)
    found = (
        _first(C, "associativity", product(n, repeat=3))
        or _first(C, "unit", product(n))
        or _first(C, "coassociativity", product(n))
        or _first(C, "counit", product(n))
    )
    if found:
        return found
    for ij in product(n, repeat=2):
        found = _first(C, "bialgebra-mult", [ij]) or _first(C, "bialgebra-counit", [ij])
        if found:
            return found
    return _first(C, "bialgebra-unit", [(0,)]) or _first(C, "antipode", product(n))


def first_algebra_violation(C, corrupted):
    """The first violated (axiom, witness) of an algebra document that differs
    from an associative unital one only in the mult entry ``corrupted`` =
    (a, b, c), with the same support.

    Only triples whose products read the entry can change, so the scan visits
    (a, b, k), (i, a, b), (i, j, b) with e_i e_j having an e_a part, and
    (a, j, k) with e_j e_k having an e_b part.
    """
    a, b, _ = corrupted
    n = range(C.n)
    cands = {(a, b, k) for k in n} | {(i, a, b) for i in n}
    for (i, j), row in C.mult.items():
        if a in row:
            cands.add((i, j, b))
        if b in row:
            cands.add((a, i, j))
    return _first(C, "associativity", sorted(cands)) or _first(C, "unit", product(n))


def in_range(C, axiom, witness) -> bool:
    return (
        axiom in ARITY
        and len(witness) == ARITY[axiom]
        and all(isinstance(x, int) and 0 <= x < C.n for x in witness)
    )
