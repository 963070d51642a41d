"""Comodule algebras, coinvariants, the canonical map, and the derived actions.

The pipeline is: coinvariants -> relative tensor square -> canonical map ->
translation table -> sandwich actions.  The relative tensor square is realized
as an explicit quotient of P (x) P by its RREF relation rows, with the
non-pivot basis vectors as a section, so bijectivity of the canonical map is a
rank statement and well-definedness of the sandwich actions is checked, on
every relation, not assumed.  Every matrix is a Tensor, every basis its rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FinAlgebra
from .ayd import TwoSidedStructure, check_ayd, check_stability
from .errors import InputError, NotGaloisError, ShapeError
from .hopf import FinHopfAlgebra, antipode_inverse, derived
from .identity import Identity, check, evaluate, on_generators
from .report import Report
from .reps import ActionStructure, CoactionStructure, coaction_laws, verify_action
from .tensor import Tensor, invert_matrix, kernel_rows, matrix_rank, rref, span_coordinates


def check_comodule_algebra(A: FinAlgebra, K: FinHopfAlgebra, coaction: CoactionStructure) -> Report:
    """A right coaction that is also an algebra map, exhaustively.

    Checks, in order: the coaction axioms, multiplicativity on all basis
    pairs, and that 1 coacts as 1 (x) 1.  When A has proved generators, the
    first three scan on them alone, the coaction axioms resting on the last
    two (``identity.on_generators``).
    """
    K.require_verified()
    if coaction.side != "right":
        raise InputError("comodule algebras carry a right coaction here")
    if coaction.dim != A.dim or coaction.hopf_dim != K.dim:
        raise ShapeError("coaction does not match the algebra/Hopf dimensions")
    co = coaction.tensor
    # coaction(ab) == coaction(a) coaction(b); the factor order keeps the
    # join narrow: a's legs, their products, then b's legs
    mult = Identity("coaction-multiplicative", "ab", "xk",
                    [(A.mult, "abw"), (co, "wxk")],
                    [(co, "api"), (A.mult, "pqx"), (co, "bqj"), (K.mult, "ijk")])
    unital = Identity("coaction-unital", "", "xk",
                      [(A.unit, "a"), (co, "axk")], [(A.unit, "x"), (K.unit, "k")])
    G = A.generators
    laws = [on_generators(law, G, needs=[mult, unital]) for law in coaction_laws(K, coaction)]
    return check("comodule-algebra", *laws, on_generators(mult, G, needs=[unital]), unital)


class ComoduleAlgebra:
    """An algebra with a verified right coaction that is an algebra map."""

    def __init__(self, P: FinAlgebra, H: FinHopfAlgebra, coaction: CoactionStructure):
        check_comodule_algebra(P, H, coaction).require()
        self.P = P
        self.H = H
        self.coaction = coaction

    @property
    def field(self):
        return self.P.field

    @property
    def dim(self):
        return self.P.dim


def comodule_algebra_from_hopf(H: FinHopfAlgebra) -> ComoduleAlgebra:
    """The baseline example: H coacting on itself by its comultiplication."""
    return ComoduleAlgebra(H, H, CoactionStructure("right", H.dim, H.comult))


@derived("galois")
def hopf_galois_data(H: FinHopfAlgebra) -> GaloisData:
    """The canonical map of H coacting on itself, computed once per H."""
    return canonical_map(comodule_algebra_from_hopf(H))


def coinvariants(CA: ComoduleAlgebra) -> Tensor:
    """Basis of {p : coaction(p) = p (x) 1}, closed under multiplication."""
    m = CA.dim
    p_one = evaluate(["a", "bi"], [(Tensor.identity(CA.field, m), "ab"), (CA.H.unit, "i")])
    basis = kernel_rows(evaluate(["a", "bi"], [(CA.coaction.tensor, "abi")]) - p_one)
    k = basis.shape[0]
    # row x*k + y is b_x b_y; closure is forced by multiplicativity of the coaction
    products = evaluate(["xy", "w"], [(basis, "xa"), (basis, "yb"), (CA.P.mult, "abw")])
    _, outside = span_coordinates(basis, products)
    if outside is not None:
        Report.fail("coinvariants-closed", divmod(outside, k), _row(products, outside)).require()
    return basis


def _commutators(CA: ComoduleAlgebra, b_basis: Tensor) -> Tensor:
    """The matrix (a, (z, c)) of b_z e_a - e_a b_z: zero exactly when the b_z
    are central, and its left kernel is their centralizer."""
    mult = CA.P.mult
    return (evaluate(["a", "zc"], [(b_basis, "zw"), (mult, "wac")])
            - evaluate(["a", "zc"], [(b_basis, "zw"), (mult, "awc")]))


def centralizer(CA: ComoduleAlgebra, b_basis: Tensor) -> Tensor:
    """Basis of {p : bp = pb for all b in the given basis}; a subcomodule."""
    basis = kernel_rows(_commutators(CA, b_basis))
    restrict_coaction(CA, basis)  # raises unless the span is a subcomodule
    return basis


def restrict_coaction(CA: ComoduleAlgebra, carrier: Tensor) -> Tensor:
    """The coaction in the coordinates of a subcomodule basis of P.

    Raises CheckFailedError ('centralizer-subcomodule', witness (r, i)) when
    the Hopf slice i of the coaction of carrier vector r leaves the span.
    """
    n, r = CA.H.dim, carrier.shape[0]
    slices = evaluate(["ri", "b"], [(carrier, "ra"), (CA.coaction.tensor, "abi")])
    coords, outside = span_coordinates(carrier, slices)
    if outside is not None:
        z, i = divmod(outside, n)
        Report.fail("centralizer-subcomodule", (z, i), _row(carrier, z)).require()
    return coords.reshape((r, n, r)).transpose((0, 2, 1))


def _row(matrix: Tensor, t) -> Tensor:
    """Row t of a matrix as a vector, to name a vector outside a span."""
    return Tensor(matrix.field, matrix.shape[1:], {
        (j,): c for (i, j), c in matrix.entries.items() if i == t
    }, _normalized=True)


@dataclass
class RelativeTensor:
    """P (x) P modulo the middle-B relations.

    relations (r, full_dim) holds the RREF rows spanning the relations;
    section (dim, full_dim) sends quotient basis vector s to the s-th
    non-pivot basis vector of P (x) P.  Reducing e_t modulo the relation rows
    leaves only non-pivot coordinates, which are its quotient coordinates.
    """

    dim: int
    full_dim: int
    relations: Tensor
    section: Tensor


def relative_tensor(CA: ComoduleAlgebra, b_basis: Tensor) -> RelativeTensor:
    """Quotient of P (x) P by span{pb (x) p' - p (x) bp'}."""
    f, m = CA.field, CA.dim
    full = m * m
    mult, delta = CA.P.mult, Tensor.identity(f, m)
    # relation (i, z, j) is e_i b_z (x) e_j - e_i (x) b_z e_j, a row over P (x) P
    rel = (evaluate(["izj", "ab"], [(b_basis, "zw"), (mult, "iwa"), (delta, "jb")])
           - evaluate(["izj", "ab"], [(b_basis, "zw"), (delta, "ia"), (mult, "wjb")]))
    reduced, pivots = rref(rel)
    relations = Tensor(f, (len(reduced), full), {
        (r, c): v for r, row in enumerate(reduced) for c, v in row.items()
    }, _normalized=True)
    pivot_set = set(pivots)
    nonpivot = [c for c in range(full) if c not in pivot_set]
    section = Tensor(f, (len(nonpivot), full), {
        (s, c): f.one for s, c in enumerate(nonpivot)
    }, _normalized=True)
    return RelativeTensor(len(nonpivot), full, relations, section)


@dataclass
class GaloisData:
    """The canonical map on the relative tensor square, plus derived data."""

    ca: ComoduleAlgebra
    b_basis: Tensor       # (k, dim P): the coinvariants' basis as rows
    rel: RelativeTensor
    can: Tensor           # (rel.dim, dim P * dim H): quotient coords -> P (x) H coords
    bijective: bool
    _translation: Tensor | None = None

    @property
    def field(self):
        return self.ca.field


def canonical_map(CA: ComoduleAlgebra) -> GaloisData:
    """p (x) p' -> p coaction(p'), as a matrix on P (x)_B P; the Galois test."""
    m, n = CA.dim, CA.H.dim
    b_basis = coinvariants(CA)
    rel = relative_tensor(CA, b_basis)
    can = evaluate(["ij", "bk"], [(CA.coaction.tensor, "jck"), (CA.P.mult, "icb")])
    # the map must kill every relation row (truth of B = coinvariants makes it so)
    check("canonical-map-defined", Identity(
        "canonical-map-defined", "r", "k", [(rel.relations, "rt"), (can, "tk")], None)).require()
    can_q = evaluate("sk", [(rel.section, "st"), (can, "tk")])
    bijective = rel.dim == m * n and matrix_rank(can_q) == m * n
    return GaloisData(CA, b_basis, rel, can_q, bijective)


def translation_map(G: GaloisData) -> Tensor:
    """Row i is the preimage of 1 (x) h_i under the canonical map, in quotient coordinates."""
    if not G.bijective:
        raise NotGaloisError("the canonical map is not bijective")
    if G._translation is None:
        CA, f, n = G.ca, G.field, G.ca.H.dim
        targets = Tensor(f, (n, CA.dim * n), {  # row i is 1 (x) h_i
            (i, b * n + i): c for i in range(n) for (b,), c in CA.P.unit.entries.items()
        }, _normalized=True)
        coords = evaluate("is", [(targets, "it"), (invert_matrix(G.can), "ts")])
        # exactness: coords . can == 1 (x) h_i
        check("translation-exactness", Identity("translation-exactness", "i", "k", [
            (coords, "is"), (G.can, "sk")], [(targets, "ik")])).require()
        G._translation = coords
    return G._translation


def _sandwich(mult: Tensor, reverse: bool):
    """Factors letting u (x) v (letters a, b) act on p (letter w) as u p v,
    or v p u when reversed, with the result at letter l."""
    return [(mult, "bwx"), (mult, "xal")] if reverse else [(mult, "awx"), (mult, "xbl")]


def check_sandwich(CA: ComoduleAlgebra, rel: RelativeTensor, carrier, reverse=False) -> Report:
    """The sandwich is well defined on P (x)_B P: every relation row r sends
    every carrier row z to zero (witness (r, z))."""
    m = CA.dim
    relations = rel.relations.reshape((rel.relations.shape[0], m, m))
    return check("sandwich-well-defined", Identity(
        "sandwich-well-defined", "rz", "l",
        [(relations, "rab"), (carrier, "zw"), *_sandwich(CA.P.mult, reverse)], None,
    ))


def mu_action(G: GaloisData, flipped: bool = False):
    """The sandwich action through the translation table.

    standard: p.h = h1-leg . p . h2-leg on the centralizer of the coinvariants;
    flipped:  p.h uses the legs of the inverse antipode image in reverse order,
              on all of P, and needs the coinvariants central.

    Returns (right ActionStructure, carrier basis as the rows of a matrix).
    """
    CA, f = G.ca, G.field
    m, n = CA.dim, CA.H.dim
    table = translation_map(G)

    if flipped:
        if not _commutators(CA, G.b_basis).is_zero():
            raise InputError("flipped sandwich action needs central coinvariants")
        carrier = Tensor.identity(f, m)
    else:
        carrier = centralizer(CA, G.b_basis)
    check_sandwich(CA, G.rel, carrier, reverse=flipped).require()

    # the table row of h (of S^-1(h) when flipped), lifted through the section
    lifts = [(antipode_inverse(CA.H), "ij"), (table, "js")] if flipped else [(table, "is")]
    section = G.rel.section.reshape((G.rel.dim, m, m))
    dim = carrier.shape[0]
    out = evaluate(["ir", "l"], [
        *lifts, (section, "sab"), (carrier, "rw"), *_sandwich(CA.P.mult, flipped),
    ])
    coords, outside = span_coordinates(carrier, out)
    if outside is not None:
        Report.fail("sandwich-closed", divmod(outside, dim), _row(out, outside)).require()
    action = ActionStructure("right", dim, coords.reshape((n, dim, dim)))
    verify_action(CA.H, action).require()
    return action, carrier


def make_sayd_prop5(CA: ComoduleAlgebra, galois: GaloisData | None = None) -> TwoSidedStructure:
    """Package the flipped sandwich action with the coaction of P itself.

    Requires the canonical map bijective and central coinvariants; asserts the
    result passes both the rr compatibility and stability checks.  ``galois``
    is ``canonical_map(CA)`` when the caller already has it.
    """
    G = canonical_map(CA) if galois is None else galois
    if not G.bijective:
        raise NotGaloisError("the canonical map is not bijective")
    action, _ = mu_action(G, flipped=True)  # its carrier is the basis of P
    M = TwoSidedStructure(CA.H, action, CA.coaction)
    check_ayd(M).require()
    check_stability(M).require()
    return M
