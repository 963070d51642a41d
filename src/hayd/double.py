"""The algebra on dual (x) self whose modules carry the inverse-antipode
compatibility, the Drinfeld double it shadows, and the conversions between
two-sided structures and modules over these algebras.

Basis bookkeeping: the product space uses index (i, j) -> i*n + j, where i
runs over the dual basis and j over the original basis.  The two products
differ only in one evaluation slot (squared antipode vs identity); both are
verified associative and unital on construction, which pins the transcription.
"""

from __future__ import annotations

from .algebra import AlgebraModule, FinAlgebra
from .ayd import TwoSidedStructure, check_ayd, check_yd
from .errors import CheckFailedError, InternalConsistencyError, ShapeError
from .galois import check_comodule_algebra
from .hopf import FinHopfAlgebra, antipode_inverse, verify_hopf_axioms
from .reps import ActionStructure, CoactionStructure
from .tensor import Tensor, accumulate


def _triple_product_rows(H: FinHopfAlgebra):
    """dict k -> list of (p, q, r, coeff of e_k in e_p e_q e_r).

    These are exactly the two-step coproduct coefficients of the dual.
    """
    key = "triple_rows"
    if key in H._cache:
        return H._cache[key]
    f = H.field
    rows = H.mult_rows()
    out: dict[int, list] = {}
    n = H.dim
    for p in range(n):
        for q in range(n):
            for w, c1 in rows.get((p, q), ()):
                for r in range(n):
                    for k, c2 in rows.get((w, r), ()):
                        out.setdefault(k, []).append((p, q, r, f.mul(c1, c2)))
    H._cache[key] = out
    return out


def _product_space(H: FinHopfAlgebra, squared_antipode: bool) -> FinAlgebra:
    """Common builder for the two twisted products on dual (x) self."""
    f = H.field
    n = H.dim
    d3 = H.coproduct3_rows()
    c3s = _triple_product_rows(H)
    sinv_rows = H.antipode_inv_rows()
    mrows = H.mult_rows()
    crows = H.comult_rows()

    if squared_antipode:
        s2 = H.antipode.contract(H.antipode, [(1, 0)])
        s2_rows: dict[int, list] = {}
        for (i, j), c in s2.entries.items():
            s2_rows.setdefault(i, []).append((j, c))
    else:
        s2_rows = {i: [(i, f.one)] for i in range(n)}

    # dual multiplication rows: e_i* e_q* = sum_a comult[a,i,q] e_a*
    dualmul: dict[tuple, list] = {}
    for (a, i, q), c in H.comult.entries.items():
        dualmul.setdefault((i, q), []).append((a, c))

    entries: dict[tuple, object] = {}
    for j in range(n):
        for k in range(n):
            # weight[(q, t)] sums the two evaluation slots over the leg triples
            weight: dict[tuple, object] = {}
            for (s, t, u, cj) in d3.get(j, ()):
                sinv_u = {p: c for p, c in sinv_rows.get(u, ())}
                s2_s = {r: c for r, c in s2_rows.get(s, ())}
                for (p, q, r, ck) in c3s.get(k, ()):
                    cu = sinv_u.get(p)
                    if cu is None:
                        continue
                    cs = s2_s.get(r)
                    if cs is None:
                        continue
                    accumulate(f, weight, (q, t), f.mul(f.mul(cj, ck), f.mul(cu, cs)))
            if not weight:
                continue
            for (q, t), w in weight.items():
                for i in range(n):
                    for a, ca in dualmul.get((i, q), ()):
                        cw = f.mul(w, ca)
                        for l in range(n):
                            for b, cb in mrows.get((t, l), ()):
                                accumulate(
                                    f,
                                    entries,
                                    (i * n + j, k * n + l, a * n + b),
                                    f.mul(cw, cb),
                                )
    dim = n * n
    mult = Tensor(f, (dim, dim, dim), entries, _normalized=True)
    unit_entries = {}
    for (i,), c in H.counit.entries.items():
        for (j,), u in H.unit.entries.items():
            unit_entries[(i * n + j,)] = f.mul(c, u)
    unit = Tensor(f, (dim,), unit_entries, _normalized=True)
    names = [
        f"{H.basis_names[i]}*{H.basis_names[j]}" for i in range(n) for j in range(n)
    ]
    label = "ah" if squared_antipode else "double"
    try:
        return FinAlgebra(f, mult, unit, basis_names=names, name=f"{label}({H.name})")
    except CheckFailedError as exc:
        raise InternalConsistencyError(
            f"{label}({H.name}) fails '{exc.report.axiom}' at {exc.report.witness}; "
            "the product transcription is wrong"
        ) from exc


def build_ah(H: FinHopfAlgebra) -> FinAlgebra:
    """The twisted product on dual (x) self whose modules match check_ayd."""
    H.require_verified()
    if "ah" not in H._cache:
        H._cache["ah"] = _product_space(H, squared_antipode=True)
    return H._cache["ah"]


def build_double(H: FinHopfAlgebra) -> FinAlgebra:
    """The same product with the squared antipode dropped: the Drinfeld double."""
    H.require_verified()
    if "double" not in H._cache:
        H._cache["double"] = _product_space(H, squared_antipode=False)
    return H._cache["double"]


def build_double_hopf(H: FinHopfAlgebra) -> FinHopfAlgebra:
    """The double as a Hopf algebra: co-opposite dual coalgebra interleaved
    with the coalgebra of H, antipode assembled from both factors."""
    H.require_verified()
    if "double_hopf" in H._cache:
        return H._cache["double_hopf"]
    alg = build_double(H)
    f = H.field
    n = H.dim
    dim = n * n

    comult_entries: dict[tuple, object] = {}
    for (c2, a, k), cm in H.mult.entries.items():
        # co-opposite dual coproduct: e_k* gets mult[c2,a,k] . e_a* (x) e_c2*
        for (l, b, d), cd in H.comult.entries.items():
            comult_entries[(k * n + l, a * n + b, c2 * n + d)] = f.mul(cm, cd)
    comult = Tensor(f, (dim, dim, dim), comult_entries, _normalized=True)

    counit_entries: dict[tuple, object] = {}
    for (k,), u in H.unit.entries.items():
        for (l,), e in H.counit.entries.items():
            counit_entries[(k * n + l,)] = f.mul(u, e)
    counit = Tensor(f, (dim,), counit_entries, _normalized=True)

    # antipode(e_k* (x) e_l) = (counit (x) S(e_l)) . (e_k* o S^-1 (x) 1)
    rows = alg.rows()
    sinv = antipode_inverse(H)
    srows = H.antipode_rows()
    eps = {i: c for (i,), c in H.counit.entries.items()}
    unit_h = {j: c for (j,), c in H.unit.entries.items()}
    antipode_entries: dict[tuple, object] = {}
    for k in range(n):
        for l in range(n):
            left: dict[int, object] = {}
            for b, cb in srows.get(l, ()):
                for i, ce in eps.items():
                    accumulate(f, left, i * n + b, f.mul(ce, cb))
            right: dict[int, object] = {}
            for a in range(n):
                c = sinv.get((a, k))
                if f.is_zero(c):
                    continue
                for j, cu in unit_h.items():
                    accumulate(f, right, a * n + j, f.mul(c, cu))
            image: dict[int, object] = {}
            for x, cx in left.items():
                for y, cy in right.items():
                    for z, cz in rows.get((x, y), ()):
                        accumulate(f, image, z, f.mul(f.mul(cx, cy), cz))
            for z, cz in image.items():
                antipode_entries[(k * n + l, z)] = cz
    antipode = Tensor(f, (dim, dim), antipode_entries, _normalized=True)

    D = FinHopfAlgebra(
        f, alg.mult, alg.unit, comult, counit, antipode,
        basis_names=alg.basis_names, name=f"D({H.name})",
    )
    report = verify_hopf_axioms(D)
    if not report.passed:
        raise InternalConsistencyError(
            f"double of {H.name} fails '{report.axiom}' at {report.witness}; "
            "the coalgebra/antipode convention does not match the product"
        )
    H._cache["double_hopf"] = D
    return D


# -- module conversions --------------------------------------------------------


def _conversion_action(H: FinHopfAlgebra, M: TwoSidedStructure) -> Tensor:
    """(phi (x) h) m = phi of the coaction leg of (h m), times the rest."""
    f = H.field
    n, m = H.dim, M.dim
    arows = M.action.rows()
    lrows = M.coaction.rows()
    entries: dict[tuple, object] = {}
    for j in range(n):
        for r in range(m):
            for c0, ca in arows.get((j, r), ()):
                for (i, s, cl) in lrows.get(c0, ()):
                    accumulate(f, entries, (i * n + j, r, s), f.mul(ca, cl))
    return Tensor(f, (n * n, m, m), entries, _normalized=True)


def ayd_to_ah_module(H: FinHopfAlgebra, M: TwoSidedStructure) -> AlgebraModule:
    """A left-module/right-comodule structure passing check_ayd becomes a
    verified left module over build_ah(H)."""
    if M.case != "lr":
        raise ShapeError(f"conversion expects the lr case, got {M.case}")
    r = check_ayd(M)
    if not r.passed:
        raise CheckFailedError(r)
    A = build_ah(H)
    action = _conversion_action(H, M)
    return AlgebraModule(A, action)


def yd_to_double_module(H: FinHopfAlgebra, M: TwoSidedStructure) -> AlgebraModule:
    """The same conversion lands in the double when the plain check passes."""
    if M.case != "lr":
        raise ShapeError(f"conversion expects the lr case, got {M.case}")
    r = check_yd(M)
    if not r.passed:
        raise CheckFailedError(r)
    D = build_double(H)
    action = _conversion_action(H, M)
    return AlgebraModule(D, action)


def ah_module_to_ayd(H: FinHopfAlgebra, V: AlgebraModule) -> TwoSidedStructure:
    """Restrict along counit (x) h for the action and expand the coaction over
    the dual basis; the output passes check_ayd and round-trips exactly."""
    H.require_verified()
    f = H.field
    n = H.dim
    if V.algebra.dim != n * n:
        raise ShapeError("module is not over the dual (x) self product space")
    m = V.dim
    vrows = V.rows()
    eps = {i: c for (i,), c in H.counit.entries.items()}
    unit_h = {j: c for (j,), c in H.unit.entries.items()}
    act: dict[tuple, object] = {}
    lam: dict[tuple, object] = {}
    for r in range(m):
        for j in range(n):
            for i, ce in eps.items():
                for s, c in vrows.get((i * n + j, r), ()):
                    accumulate(f, act, (j, r, s), f.mul(ce, c))
        for i in range(n):
            for j, cu in unit_h.items():
                for s, c in vrows.get((i * n + j, r), ()):
                    accumulate(f, lam, (r, s, i), f.mul(cu, c))
    action = ActionStructure("left", m, Tensor(f, (n, m, m), act, _normalized=True))
    coaction = CoactionStructure("right", m, Tensor(f, (m, m, n), lam, _normalized=True))
    M = TwoSidedStructure(H, action, coaction)
    report = M.verify()
    if not report.passed:
        raise CheckFailedError(report)
    report = check_ayd(M)
    if not report.passed:
        raise CheckFailedError(report)
    return M


def ah_double_coaction(H: FinHopfAlgebra) -> CoactionStructure:
    """The interleaved double coaction making build_ah(H) a comodule algebra
    over build_double_hopf(H); verified before returning."""
    H.require_verified()
    A = build_ah(H)
    D = build_double_hopf(H)
    f = H.field
    n = H.dim
    dim = n * n
    entries: dict[tuple, object] = {}
    # coefficient of (e_q* (x) e_s) (x) (e_p* (x) e_t) in the image of e_i* (x) e_j
    for (i, p, q), cdual in _dual_comult_entries(H).items():
        for (j, s, t), cd in H.comult.entries.items():
            entries[(i * n + j, q * n + s, p * n + t)] = f.mul(cdual, cd)
    coaction = CoactionStructure(
        "right", dim, Tensor(f, (dim, dim, dim), entries, _normalized=True)
    )
    report = check_comodule_algebra(A, D, coaction)
    if not report.passed:
        raise CheckFailedError(report)
    return coaction


def _dual_comult_entries(H: FinHopfAlgebra):
    """Coefficients of e_p* (x) e_q* in the dual coproduct of e_i*."""
    key = "dual_comult_entries"
    if key not in H._cache:
        H._cache[key] = {
            (i, p, q): c for (p, q, i), c in H.mult.entries.items()
        }
    return H._cache[key]
