"""Finite-dimensional Hopf algebras as structure-constant tensors.

Conventions, fixed once for the whole package:

* mult[i,j,k]:    e_i e_j = sum_k mult[i,j,k] e_k
* unit[i]:        1 = sum_i unit[i] e_i
* comult[i,j,k]:  coproduct(e_i) = sum_{j,k} comult[i,j,k] e_j (x) e_k
* counit[i]:      the counit evaluated on e_i
* antipode[i,j]:  S(e_i) = sum_j antipode[i,j] e_j

Linear maps are stored (input, output) and act on row vectors.  Each axiom
is an identity between these tensors, declared as a spec and scanned
exhaustively over basis tuples by ``hayd.identity``; exact arithmetic turns
every check into a strict equality, so a pass is a proof at this dimension,
not statistical evidence.
"""

from __future__ import annotations

from functools import wraps
from itertools import product as iter_product

from .algebra import FinAlgebra, associativity_report, unit_report
from .errors import (
    GuardError,
    InputError,
    InternalConsistencyError,
    ShapeError,
    SingularMatrixError,
)
from .fields import Field, rationals
from .groups import Group
from .identity import Identity, check, on_generators
from .report import Report
from .tensor import Tensor, invert_matrix

GROUP_LIKE_GUARD = 2**20


class FinHopfAlgebra(FinAlgebra):
    """A Hopf algebra on a finite basis, trusted only after verify() passes."""

    def __init__(
        self,
        field: Field,
        mult: Tensor,
        unit: Tensor,
        comult: Tensor,
        counit: Tensor,
        antipode: Tensor,
        basis_names=None,
        name="H",
    ):
        super().__init__(field, mult, unit, basis_names, name, check=False)
        n = self.dim
        for label, shape, tensor in (
            ("comult", (n, n, n), comult), ("counit", (n,), counit), ("antipode", (n, n), antipode)
        ):
            if tensor.shape != shape:
                raise ShapeError(f"{label} has shape {tensor.shape}, expected {shape}")
            if tensor.field != field:
                raise ShapeError(f"{label} field mismatch")
        self.comult = comult
        self.counit = counit
        self.antipode = antipode
        self.verified = False
        self._antipode_inv = None
        self._cache: dict = {}

    # -- element helpers -------------------------------------------------------

    def basis_vector(self, i: int) -> Tensor:
        return Tensor.basis(self.field, (self.dim,), (i,))

    def require_verified(self, label=None) -> FinHopfAlgebra:
        """This H once every Hopf axiom holds on it: the one gate before any
        build or check over H.  An H already verified, such as a builtin its
        factory verified, is not scanned again.  A failure is an InputError
        naming ``label``, by default this structure."""
        if not self.verified:
            report = verify_hopf_axioms(self)
            if not report.passed:
                raise InputError(
                    f"{self if label is None else label} fails '{report.axiom}' at "
                    f"{report.witness}; supply a valid Hopf structure"
                )
        return self

    def verify(self) -> Report:
        return verify_hopf_axioms(self)


def verify_hopf_axioms(H: FinHopfAlgebra) -> Report:
    """Run every Hopf axiom exhaustively, in a fixed order; first failure wins."""
    r = associativity_report(H.mult)
    if not r.passed:
        return r
    r = unit_report(H.mult, H.unit)
    if not r.passed:
        return r
    return verify_hopf_given_algebra(H)


def verify_hopf_given_algebra(H: FinHopfAlgebra) -> Report:
    """The Hopf axioms after associativity and the unit, in verify_hopf_axioms'
    order, for an H whose product is already proved associative and unital:
    the coalgebra, bialgebra and antipode identities, then an invertible
    antipode.  A pass marks H verified.  When ``H.generators`` holds proved
    generators of that product, the multiplicative bialgebra identities are
    scanned on them alone (``identity.on_generators``)."""
    mult, unit, comult, counit, s = H.mult, H.unit, H.comult, H.counit, H.antipode
    delta = Tensor.identity(H.field, H.dim)
    coalgebra = (
        # (coproduct (x) id) coproduct == (id (x) coproduct) coproduct
        Identity("coassociativity", "i", "xyz",
                 [(comult, "ipz"), (comult, "pxy")], [(comult, "ixp"), (comult, "pyz")]),
        [Identity("counit", "i", "k", [(comult, "ijk"), (counit, "j")], [(delta, "ik")]),
         Identity("counit", "i", "k", [(comult, "ikj"), (counit, "j")], [(delta, "ik")])],
    )
    # coproduct and counit are algebra maps, and respect the unit
    multiplicative = [on_generators(ident, H.generators) for ident in (
        Identity("bialgebra-mult", "ij", "ab", [(mult, "ijk"), (comult, "kab")],
                 [(comult, "ipq"), (mult, "pra"), (comult, "jrs"), (mult, "qsb")]),
        Identity("bialgebra-counit", "ij", "", [(mult, "ijk"), (counit, "k")],
                 [(counit, "i"), (counit, "j")]),
    )]
    unital = (
        Identity("bialgebra-unit", "", "ab", [(unit, "i"), (comult, "iab")],
                 [(unit, "a"), (unit, "b")]),
        Identity("bialgebra-unit", "", "", [(unit, "i"), (counit, "i")], []),
    )
    # mult (S (x) id) coproduct == unit counit == mult (id (x) S) coproduct
    antipode = [
        Identity("antipode", "i", "l", [(comult, "ijk"), (s, "jm"), (mult, "mkl")],
                 [(counit, "i"), (unit, "l")]),
        Identity("antipode", "i", "l", [(comult, "ijk"), (s, "km"), (mult, "jml")],
                 [(counit, "i"), (unit, "l")]),
    ]
    r = check("hopf", *coalgebra, multiplicative, *unital, antipode)
    if not r.passed:
        return r

    try:
        H._antipode_inv = invert_matrix(H.antipode)
    except SingularMatrixError as exc:
        return Report.fail("antipode-invertible", (exc.rank,), H.antipode, None)

    H.verified = True
    return Report.ok("hopf")


def by_construction(structure, report: Report):
    """``structure``, whose ``report`` holds by construction from verified
    input; a failure there is a transcription bug, not bad input."""
    if not report.passed:
        raise InternalConsistencyError(
            f"{structure.name} fails '{report.axiom}' at {report.witness}, "
            "though its construction from verified input guarantees it"
        )
    return structure


def derived(key):
    """Decorator for a structure built from H alone (and its extra
    arguments): the call passes H's gate, then builds once per H into
    ``H._cache[key]``, or ``H._cache[(key, *args)]`` with extra arguments,
    and every later call returns that same object."""
    def memo(build):
        @wraps(build)
        def cached(H: FinHopfAlgebra, *args):
            slot = (key, *args) if args else key
            H.require_verified()
            if slot not in H._cache:
                H._cache[slot] = build(H, *args)
            return H._cache[slot]
        return cached
    return memo


def antipode_inverse(H: FinHopfAlgebra) -> Tensor:
    """Matrix inverse of the antipode, which verifying H computes and stores;
    an H that fails verification, a singular antipode included, raises
    InputError."""
    H.require_verified()
    return H._antipode_inv


@derived("cop")
def iterated_coproduct(H: FinHopfAlgebra, k: int) -> Tensor:
    """k-fold coproduct legs as a tensor (input axis, then k output axes)."""
    if k < 1:
        raise InputError("iterated coproduct needs k >= 1")
    if k == 1:
        return Tensor.identity(H.field, H.dim)
    t = H.comult
    for _ in range(k - 2):
        t = t.contract(H.comult, [(t.rank - 1, 0)])
    return t


@derived("dual")
def dual_hopf(H: FinHopfAlgebra) -> FinHopfAlgebra:
    """The dual Hopf algebra on the dual basis (finite-dimensional duality)."""
    dual = FinHopfAlgebra(
        H.field,
        H.comult.transpose((1, 2, 0)),
        H.counit,
        H.mult.transpose((2, 0, 1)),
        H.unit,
        H.antipode.transpose((1, 0)),
        basis_names=[name + "*" for name in H.basis_names],
        name=H.name + "*",
    )
    return by_construction(dual, verify_hopf_axioms(dual))


def variant(H: FinHopfAlgebra, which: str) -> FinHopfAlgebra:
    """Opposite / co-opposite relatives; 'op' and 'cop' take the inverse antipode."""
    H.require_verified()
    f, n = H.field, H.dim
    mult, comult, antipode = H.mult, H.comult, H.antipode
    if which == "op":
        mult = mult.transpose((1, 0, 2))
        antipode = antipode_inverse(H)
    elif which == "cop":
        comult = comult.transpose((0, 2, 1))
        antipode = antipode_inverse(H)
    elif which == "op_cop":
        mult = mult.transpose((1, 0, 2))
        comult = comult.transpose((0, 2, 1))
    else:
        raise InputError(f"unknown variant {which!r}")
    out = FinHopfAlgebra(
        f, mult, H.unit, comult, H.counit, antipode,
        basis_names=H.basis_names, name=f"{H.name}^{which}",
    )
    return by_construction(out, verify_hopf_axioms(out))


# -- builtin families ----------------------------------------------------------


def group_algebra(group: Group, field: Field | None = None) -> FinHopfAlgebra:
    """Group algebra kG: basis elements group-like, antipode by inversion."""
    field = field or rationals()
    n = len(group)
    one = field.one
    mult = Tensor(
        field, (n, n, n), {(i, j, group.mul(i, j)): one for i in range(n) for j in range(n)},
        _normalized=True,
    )
    unit = Tensor(field, (n,), {(group.identity,): one}, _normalized=True)
    comult = Tensor(field, (n, n, n), {(i, i, i): one for i in range(n)}, _normalized=True)
    counit = Tensor(field, (n,), {(i,): one for i in range(n)}, _normalized=True)
    antipode = Tensor(field, (n, n), {(i, group.inverse(i)): one for i in range(n)}, _normalized=True)
    H = FinHopfAlgebra(
        field, mult, unit, comult, counit, antipode,
        basis_names=list(group.names), name=f"k{group.name}",
    )
    return by_construction(H, verify_hopf_axioms(H))


def function_algebra(group: Group, field: Field | None = None) -> FinHopfAlgebra:
    """Functions on a finite group: the dual of the group algebra."""
    dual = dual_hopf(group_algebra(group, field))
    dual.name = f"k^{group.name}"
    dual.basis_names = [f"d_{name}" for name in group.names]
    return dual


def _monomial_name(a: int, b: int) -> str:
    parts = []
    if a == 1:
        parts.append("g")
    elif a > 1:
        parts.append(f"g{a}")
    if b == 1:
        parts.append("x")
    elif b > 1:
        parts.append(f"x{b}")
    return "".join(parts) or "1"


def taft(n: int, field: Field, zeta) -> FinHopfAlgebra:
    """Taft family: dimension n^2, generators g (group-like, order n) and x
    with x^n = 0, x g = zeta g x, coproduct(x) = x (x) 1 + g (x) x.

    Basis monomials g^a x^b sit at index a*n + b (so for n = 2 the order is
    1, x, g, gx).  zeta must have multiplicative order exactly n; this is the
    package's stock source of an antipode whose square is not the identity.
    """
    if n < 2:
        raise InputError("taft needs n >= 2")
    zeta = field.coerce(zeta)
    zeta_pow = [field.one]  # zeta^k for 0 <= k < n
    for k in range(1, n):
        zeta_pow.append(field.mul(zeta_pow[-1], zeta))
        if zeta_pow[-1] == field.one:
            raise InputError(f"zeta={zeta} has order {k}, expected {n}")
    if field.mul(zeta_pow[-1], zeta) != field.one:
        raise InputError(f"zeta={zeta} does not have order {n}")

    dim = n * n

    def idx(a, b):
        return (a % n) * n + b

    # monomial rule: (g^a x^b)(g^c x^d) = zeta^(bc) g^(a+c) x^(b+d), zero past x^n
    entries = {}
    for a, b, c, d in iter_product(range(n), repeat=4):
        if b + d < n:
            entries[(idx(a, b), idx(c, d), idx(a + c, b + d))] = zeta_pow[b * c % n]
    mult = Tensor(field, (dim, dim, dim), entries, _normalized=True)
    unit = Tensor(field, (dim,), {(idx(0, 0),): field.one}, _normalized=True)
    counit = Tensor(
        field, (dim,), {(idx(a, 0),): field.one for a in range(n)}, _normalized=True
    )

    names = [_monomial_name(a, b) for a in range(n) for b in range(n)]

    # coproduct(g^a x^b) = sum_k [b k] g^(a+k) x^(b-k) (x) g^a x^k, with the
    # zeta-binomials [b k] = [b-1 k-1] + zeta^k [b-1 k], all nonzero for b < n
    binom = [[field.one]]
    for b in range(1, n):
        prev = binom[-1] + [field.zero]
        binom.append([field.one] + [field.add(prev[k - 1], field.mul(zeta_pow[k], prev[k]))
                                    for k in range(1, b + 1)])
    comult = Tensor(field, (dim, dim, dim), {
        (idx(a, b), idx(a + k, b - k), idx(a, k)): binom[b][k]
        for a in range(n) for b in range(n) for k in range(b + 1)
    }, _normalized=True)

    # antipode(g^a x^b) = (-1)^b zeta^(-b(b-1)/2 - ab) g^(-a-b) x^b
    sign = [field.one, field.neg(field.one)]
    antipode = Tensor(field, (dim, dim), {
        (idx(a, b), idx(-a - b, b)):
            field.mul(sign[b % 2], zeta_pow[(-b * (b - 1) // 2 - a * b) % n])
        for a in range(n) for b in range(n)
    }, _normalized=True)

    H = FinHopfAlgebra(
        field, mult, unit, comult, counit, antipode, basis_names=names,
        name=f"taft({n},{field})",
    )
    return by_construction(H, verify_hopf_axioms(H))


def sweedler(field: Field | None = None) -> FinHopfAlgebra:
    """The 4-dimensional Taft algebra (zeta = -1)."""
    field = field or rationals()
    H = taft(2, field, field.neg(field.one))
    H.name = "sweedler"
    return H


# -- group-likes and characters --------------------------------------------------


def check_element(H: FinHopfAlgebra, v: Tensor, kind: str) -> bool:
    """Test a vector for group-likeness (eps(v) = 1, cop(v) = v (x) v), or a
    covector for being a character (v(1) = 1, v(xy) = v(x) v(y)); the scalar
    law is scanned first."""
    H.require_verified()
    if v.shape != (H.dim,):
        raise ShapeError(f"element shape {v.shape} does not match dim {H.dim}")
    if kind == "group_like":
        scalar, law = [(v, "i"), (H.counit, "i")], [(v, "i"), (H.comult, "iab")]
    elif kind == "character":
        scalar, law = [(H.unit, "i"), (v, "i")], [(H.mult, "abi"), (v, "i")]
    else:
        raise InputError(f"unknown element kind {kind!r}")
    return check(kind, Identity(kind, "", "", scalar, []),
                 Identity(kind, "a", "b", law, [(v, "a"), (v, "b")])).passed


def find_group_likes(H: FinHopfAlgebra):
    """Exhaustively enumerate group-like elements over a small prime field."""
    H.require_verified()
    f = H.field
    if f.p is None:
        raise GuardError(
            "group-like enumeration needs a prime field; "
            "pass candidate vectors to check_element instead"
        )
    if f.p**H.dim > GROUP_LIKE_GUARD:
        raise GuardError(
            f"{f.p}^{H.dim} exceeds the enumeration guard ({GROUP_LIKE_GUARD}); "
            "pass candidate vectors to check_element instead"
        )
    found = []
    for coords in iter_product(range(f.p), repeat=H.dim):
        v = Tensor(f, (H.dim,), {(i,): c for i, c in enumerate(coords) if c}, _normalized=True)
        if check_element(H, v, "group_like"):
            found.append(v)
    return found


def find_characters(H: FinHopfAlgebra):
    """Characters of H are exactly the group-likes of the dual."""
    return find_group_likes(dual_hopf(H))

