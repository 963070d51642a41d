"""Comodule algebras, coinvariants, the canonical map, and the derived actions.

The pipeline is: coinvariants -> relative tensor square -> canonical map ->
translation table -> sandwich actions.  The relative tensor square is realized
as an explicit quotient of P (x) P with a stored projection and section, so
bijectivity of the canonical map is a rank statement and well-definedness of
the sandwich actions is checked, on every relation, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FinAlgebra
from .ayd import TwoSidedStructure, check_ayd, check_stability
from .errors import CheckFailedError, InputError, NotGaloisError, ShapeError
from .hopf import FinHopfAlgebra, antipode_inverse
from .identity import Identity, check
from .report import Report
from .reps import ActionStructure, CoactionStructure, verify_action, verify_coaction
from .tensor import SpanSolver, Tensor, accumulate, invert_matrix, kernel_rows, rref


def check_comodule_algebra(A: FinAlgebra, K: FinHopfAlgebra, coaction: CoactionStructure) -> Report:
    """A right coaction that is also an algebra map, exhaustively.

    Checks, in order: the coaction axioms, multiplicativity on all basis
    pairs, and that 1 coacts as 1 (x) 1.
    """
    K.require_verified()
    if coaction.side != "right":
        raise InputError("comodule algebras carry a right coaction here")
    if coaction.dim != A.dim or coaction.hopf_dim != K.dim:
        raise ShapeError("coaction does not match the algebra/Hopf dimensions")
    r = verify_coaction(K, coaction)
    if not r.passed:
        return r
    co = coaction.tensor
    return check(
        "comodule-algebra",
        # coaction(ab) == coaction(a) coaction(b); the factor order keeps the
        # join narrow: a's legs, their products, then b's legs
        Identity("coaction-multiplicative", "ab", "xk",
                 [(A.mult, "abw"), (co, "wxk")],
                 [(co, "api"), (A.mult, "pqx"), (co, "bqj"), (K.mult, "ijk")]),
        Identity("coaction-unital", "", "xk",
                 [(A.unit, "a"), (co, "axk")], [(A.unit, "x"), (K.unit, "k")]),
    )


class ComoduleAlgebra:
    """An algebra with a verified right coaction that is an algebra map."""

    def __init__(self, P: FinAlgebra, H: FinHopfAlgebra, coaction: CoactionStructure):
        H.require_verified()
        report = check_comodule_algebra(P, H, coaction)
        if not report.passed:
            raise CheckFailedError(report)
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
    H.require_verified()
    P = FinAlgebra(H.field, H.mult, H.unit, basis_names=H.basis_names, name=H.name, check=False)
    return ComoduleAlgebra(P, H, CoactionStructure("right", H.dim, H.comult))


def coinvariants(CA: ComoduleAlgebra):
    """Basis of {p : coaction(p) = p (x) 1}, closed under multiplication."""
    f = CA.field
    m, n = CA.dim, CA.H.dim
    unit_h = {i: c for (i,), c in CA.H.unit.entries.items()}
    entries = dict(
        ((a, b * n + i), c) for (a, b, i), c in CA.coaction.tensor.entries.items()
    )
    for a in range(m):
        for i, u in unit_h.items():
            key = (a, a * n + i)
            accumulate(f, entries, key, f.neg(u))
    mat = Tensor(f, (m, m * n), entries, _normalized=True)
    basis = kernel_rows(mat)
    # closure under multiplication is forced by multiplicativity of the coaction
    solver = SpanSolver(f, [[v.get((j,)) for j in range(m)] for v in basis])
    for x in basis:
        for y in basis:
            prod = CA.P.mul_vec(x, y)
            if solver.coords([prod.get((j,)) for j in range(m)]) is None:
                raise CheckFailedError(
                    Report.fail("coinvariants-closed", (0,), prod, None)
                )
    return basis


def centralizer(CA: ComoduleAlgebra, b_basis):
    """Basis of {p : bp = pb for all b in the given basis}; a subcomodule."""
    f = CA.field
    m = CA.dim
    cols = []
    mult = CA.P.mult
    for vb in b_basis:
        left = vb.contract(mult, [(0, 0)])    # (a, c): b . e_a
        right = mult.contract(vb, [(1, 0)])   # (a, c): e_a . b
        cols.append(left - right)
    if not cols:
        return [Tensor.basis(f, (m,), (a,)) for a in range(m)]
    stacked_entries = {}
    for t_idx, t in enumerate(cols):
        for (a, c), v in t.entries.items():
            stacked_entries[(a, t_idx * m + c)] = v
    mat = Tensor(f, (m, len(cols) * m), stacked_entries, _normalized=True)
    basis = kernel_rows(mat)
    restrict_coaction(CA, basis)  # raises unless the span is a subcomodule
    return basis


def restrict_coaction(CA: ComoduleAlgebra, carrier) -> Tensor:
    """The coaction in the coordinates of a subcomodule basis of P.

    Raises CheckFailedError ('centralizer-subcomodule', witness (r, i)) when
    the Hopf slice i of the coaction of carrier vector r leaves the span.
    """
    f = CA.field
    m = CA.dim
    solver = SpanSolver(f, [[v.get((j,)) for j in range(m)] for v in carrier])
    lrows = CA.coaction.rows()
    entries: dict[tuple, object] = {}
    for r, z in enumerate(carrier):
        slices: dict[int, dict] = {}
        for (a,), cz in z.entries.items():
            for (i, b, c) in lrows.get(a, ()):
                accumulate(f, slices.setdefault(i, {}), b, f.mul(cz, c))
        for i, vec in sorted(slices.items()):
            coords = solver.coords([vec.get(j, f.zero) for j in range(m)])
            if coords is None:
                raise CheckFailedError(Report.fail("centralizer-subcomodule", (r, i), z, None))
            for s, c in enumerate(coords):
                if not f.is_zero(c):
                    entries[(r, s, i)] = c
    return Tensor(f, (len(carrier), len(carrier), CA.H.dim), entries, _normalized=True)


@dataclass
class RelativeTensor:
    """P (x) P modulo the middle-B relations, with projection and section."""

    dim: int
    full_dim: int
    projection: list      # dense rows: full coords -> quotient coords
    section: list         # dense rows: quotient coords -> full coords
    relations: list       # dense rows spanning the kernel of the projection

    def project(self, field, dense_full):
        out = [field.zero] * self.dim
        for t, c in enumerate(dense_full):
            if field.is_zero(c):
                continue
            row = self.projection[t]
            for s in range(self.dim):
                out[s] = field.add(out[s], field.mul(c, row[s]))
        return out

    def lift(self, field, dense_quot):
        """A representative in P (x) P, through the section."""
        out = [field.zero] * self.full_dim
        for s, c in enumerate(dense_quot):
            if field.is_zero(c):
                continue
            row = self.section[s]
            for t in range(self.full_dim):
                out[t] = field.add(out[t], field.mul(c, row[t]))
        return out


def relative_tensor(CA: ComoduleAlgebra, b_basis) -> RelativeTensor:
    """Quotient of P (x) P by span{pb (x) p' - p (x) bp'}."""
    f = CA.field
    m = CA.dim
    full = m * m
    mrows = CA.P.rows()
    rel_rows = []
    for i in range(m):
        for vb in b_basis:
            for j in range(m):
                row = [f.zero] * full
                nonzero = False
                for (w,), cb in vb.entries.items():
                    for a, c in mrows.get((i, w), ()):
                        row[a * m + j] = f.add(row[a * m + j], f.mul(cb, c))
                        nonzero = True
                    for b2, c in mrows.get((w, j), ()):
                        row[i * m + b2] = f.sub(row[i * m + b2], f.mul(cb, c))
                        nonzero = True
                if nonzero and any(not f.is_zero(x) for x in row):
                    rel_rows.append(row)
    reduced, pivots = rref(rel_rows, f) if rel_rows else ([], [])
    nonpivot = [c for c in range(full) if c not in pivots]
    dim = len(nonpivot)
    pos = {c: s for s, c in enumerate(nonpivot)}

    projection = []
    for t in range(full):
        if t in pos:
            row = [f.zero] * dim
            row[pos[t]] = f.one
        else:
            # reduce e_t modulo the relation row space
            r = pivots.index(t)
            row = [f.zero] * dim
            for c in nonpivot:
                val = reduced[r][c]
                if not f.is_zero(val):
                    row[pos[c]] = f.neg(val)
        projection.append(row)
    section = []
    for c in nonpivot:
        row = [f.zero] * full
        row[c] = f.one
        section.append(row)
    return RelativeTensor(dim, full, projection, section, reduced)


@dataclass
class GaloisData:
    """The canonical map on the relative tensor square, plus derived data."""

    ca: ComoduleAlgebra
    b_basis: list
    rel: RelativeTensor
    can: list             # dense rows: quotient coords -> P (x) H coords
    bijective: bool
    _can_inv: list = None
    _translation: list = None

    @property
    def field(self):
        return self.ca.field


def canonical_map(CA: ComoduleAlgebra) -> GaloisData:
    """p (x) p' -> p coaction(p'), as a matrix on P (x)_B P; the Galois test."""
    f = CA.field
    m, n = CA.dim, CA.H.dim
    b_basis = coinvariants(CA)
    rel = relative_tensor(CA, b_basis)
    mrows = CA.P.rows()
    lrows = CA.coaction.rows()
    can_full = []
    for i in range(m):
        for j in range(m):
            row = [f.zero] * (m * n)
            for (k, c2, cl) in lrows.get(j, ()):
                for b, cm in mrows.get((i, c2), ()):
                    row[b * n + k] = f.add(row[b * n + k], f.mul(cl, cm))
            can_full.append(row)
    # the map must kill every relation (truth of B = coinvariants makes it so)
    for rrow in rel.relations:
        image = [f.zero] * (m * n)
        for t, c in enumerate(rrow):
            if f.is_zero(c):
                continue
            for col in range(m * n):
                image[col] = f.add(image[col], f.mul(c, can_full[t][col]))
        if any(not f.is_zero(x) for x in image):
            raise CheckFailedError(
                Report.fail("canonical-map-defined", (0,), None, None)
            )
    can_q = []
    for s in range(rel.dim):
        sec = rel.section[s]
        row = [f.zero] * (m * n)
        for t, c in enumerate(sec):
            if f.is_zero(c):
                continue
            for col in range(m * n):
                row[col] = f.add(row[col], f.mul(c, can_full[t][col]))
        can_q.append(row)
    bijective = False
    if rel.dim == m * n:
        mat = Tensor(
            f,
            (rel.dim, m * n),
            {
                (i, j): c
                for i, r in enumerate(can_q)
                for j, c in enumerate(r)
                if not f.is_zero(c)
            },
            _normalized=True,
        )
        from .tensor import matrix_rank

        bijective = matrix_rank(mat) == m * n
    return GaloisData(CA, b_basis, rel, can_q, bijective)


def translation_map(G: GaloisData):
    """Preimages of 1 (x) h_i under the canonical map, in quotient coordinates."""
    if not G.bijective:
        raise NotGaloisError("the canonical map is not bijective")
    if G._translation is not None:
        return G._translation
    f = G.field
    CA = G.ca
    m, n = CA.dim, CA.H.dim
    if G._can_inv is None:
        mat = Tensor(
            f,
            (G.rel.dim, m * n),
            {
                (i, j): c
                for i, r in enumerate(G.can)
                for j, c in enumerate(r)
                if not f.is_zero(c)
            },
            _normalized=True,
        )
        G._can_inv = invert_matrix(mat)
    inv = G._can_inv
    unit_p = {b: c for (b,), c in CA.P.unit.entries.items()}
    table = []
    for i in range(n):
        target: dict[int, object] = {b * n + i: c for b, c in unit_p.items()}
        coords = [f.zero] * G.rel.dim
        # target . can^{-1} in row convention
        for s in range(G.rel.dim):
            acc = f.zero
            for col, c in target.items():
                acc = f.add(acc, f.mul(c, inv.get((col, s))))
            coords[s] = acc
        # exactness: coords . can == 1 (x) h_i
        back: dict[int, object] = {}
        for s, c in enumerate(coords):
            if f.is_zero(c):
                continue
            for col in range(m * n):
                v = G.can[s][col]
                if not f.is_zero(v):
                    accumulate(f, back, col, f.mul(c, v))
        if back != {col: c for col, c in target.items() if not f.is_zero(c)}:
            raise CheckFailedError(Report.fail("translation-exactness", (i,), None, None))
        table.append(Tensor(f, (G.rel.dim,), {(s,): c for s, c in enumerate(coords)}))
    G._translation = table
    return table


def _sandwich(CA: ComoduleAlgebra, lift_dense, vec: Tensor, reverse: bool) -> dict:
    """sum over lift legs u (x) v of  u . p . v  (or v . p . u when reversed)."""
    f = CA.field
    m = CA.dim
    mrows = CA.P.rows()
    out: dict[int, object] = {}
    for t, c in enumerate(lift_dense):
        if f.is_zero(c):
            continue
        a, b = divmod(t, m)
        first, second = (b, a) if reverse else (a, b)
        for (w,), cp in vec.entries.items():
            for mid, c1 in mrows.get((first, w), ()):
                for res, c2 in mrows.get((mid, second), ()):
                    accumulate(f, out, res, f.mul(f.mul(c, cp), f.mul(c1, c2)))
    return out


def check_sandwich(CA: ComoduleAlgebra, rel: RelativeTensor, carrier, reverse=False) -> Report:
    """The sandwich is well defined on P (x)_B P: every relation row r sends
    every carrier vector z to zero (witness (r, z))."""
    f, m = CA.field, CA.dim
    relations = Tensor(f, (len(rel.relations), m, m), {
        (r, *divmod(t, m)): c for r, row in enumerate(rel.relations)
        for t, c in enumerate(row) if not f.is_zero(c)
    }, _normalized=True)
    vectors = Tensor(f, (len(carrier), m), {
        (z, w): c for z, v in enumerate(carrier) for (w,), c in v.entries.items()
    }, _normalized=True)
    mult = CA.P.mult
    # u (x) v acts as p -> u p v, or v p u when reversed
    outer = [(mult, "bwx"), (mult, "xal")] if reverse else [(mult, "awx"), (mult, "xbl")]
    return check("sandwich-well-defined", Identity(
        "sandwich-well-defined", "rz", "l", [(relations, "rab"), (vectors, "zw"), *outer], None,
    ))


def mu_action(G: GaloisData, flipped: bool = False):
    """The sandwich action through the translation table.

    standard: p.h = h1-leg . p . h2-leg on the centralizer of the coinvariants;
    flipped:  p.h uses the legs of the inverse antipode image in reverse order,
              on all of P, and needs the coinvariants central.

    Returns (right ActionStructure, carrier basis vectors).
    """
    CA = G.ca
    f = G.field
    m, n = CA.dim, CA.H.dim
    table = translation_map(G)

    if flipped:
        if not _is_central(CA, G.b_basis):
            raise InputError("flipped sandwich action needs central coinvariants")
        carrier = [Tensor.basis(f, (m,), (a,)) for a in range(m)]
    else:
        carrier = centralizer(CA, G.b_basis)
    solver = SpanSolver(f, [[v.get((j,)) for j in range(m)] for v in carrier])
    report = check_sandwich(CA, G.rel, carrier, reverse=flipped)
    if not report.passed:
        raise CheckFailedError(report)

    sinv = antipode_inverse(CA.H) if flipped else None

    def table_row(i):
        if not flipped:
            return [table[i].get((s,)) for s in range(G.rel.dim)]
        row = [f.zero] * G.rel.dim
        for j in range(n):
            c = sinv.get((i, j))
            if f.is_zero(c):
                continue
            for s in range(G.rel.dim):
                row[s] = f.add(row[s], f.mul(c, table[j].get((s,))))
        return row

    entries: dict[tuple, object] = {}
    for i in range(n):
        lift = G.rel.lift(f, table_row(i))
        for r, z in enumerate(carrier):
            out = _sandwich(CA, lift, z, reverse=flipped)
            coords = solver.coords([out.get(j, f.zero) for j in range(m)])
            if coords is None:
                raise CheckFailedError(
                    Report.fail(
                        "sandwich-closed", (i, r),
                        Tensor(f, (m,), {(k,): v for k, v in out.items()}), None,
                    )
                )
            for s, c in enumerate(coords):
                if not f.is_zero(c):
                    entries[(i, r, s)] = c
    dim = len(carrier)
    action = ActionStructure("right", dim, Tensor(f, (n, dim, dim), entries, _normalized=True))
    report = verify_action(CA.H, action)
    if not report.passed:
        raise CheckFailedError(report)
    return action, carrier


def _is_central(CA: ComoduleAlgebra, b_basis) -> bool:
    mult = CA.P.mult
    for vb in b_basis:
        left = vb.contract(mult, [(0, 0)])
        right = mult.contract(vb, [(1, 0)])
        if left != right:
            return False
    return True


def make_sayd_prop5(CA: ComoduleAlgebra) -> TwoSidedStructure:
    """Package the flipped sandwich action with the coaction of P itself.

    Requires the canonical map bijective and central coinvariants; asserts the
    result passes both the rr compatibility and stability checks.
    """
    G = canonical_map(CA)
    if not G.bijective:
        raise NotGaloisError("the canonical map is not bijective")
    action, carrier = mu_action(G, flipped=True)
    if len(carrier) != CA.dim:
        raise InputError("flipped action did not land on all of P")
    M = TwoSidedStructure(CA.H, action, CA.coaction)
    r = check_ayd(M)
    if not r.passed:
        raise CheckFailedError(r)
    r = check_stability(M)
    if not r.passed:
        raise CheckFailedError(r)
    return M
