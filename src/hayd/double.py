"""The algebra on dual (x) self whose modules carry the inverse-antipode
compatibility, the Drinfeld double it shadows, and the conversions between
two-sided structures and modules over these algebras.

Every structure here is an ``identity.evaluate`` spec over the structure
tensors of H, with one axis per basis of the dual and of H.  Basis
bookkeeping is a row-major ``Tensor.reshape``: the product space index is
(i, j) -> i*n + j, where i runs over the dual basis and j over the original
basis.  The two products are one spec that differs only in one evaluation
slot (squared antipode vs Kronecker delta); both are verified associative and
unital on construction, which pins the transcription.  Generators e_i* of
the dual and e_j of H are chosen greedily from the bases, once per H; each
product proves on construction that the e_i* (x) 1 and counit (x) e_j
generate it (``algebra.left_closure_rank``), and then scans associativity
on those rows only.  The double's Hopf structure, the coaction on build_ah
and the modules over both scan their multiplicative laws on them too
(``identity.on_generators``).
"""

from __future__ import annotations

from .algebra import AlgebraModule, FinAlgebra, greedy_generators
from .ayd import TwoSidedStructure, check_ayd, check_yd
from .errors import CheckFailedError, ShapeError
from .galois import check_comodule_algebra
from .hopf import (
    FinHopfAlgebra,
    antipode_inverse,
    by_construction,
    iterated_coproduct,
    verify_hopf_given_algebra,
)
from .identity import evaluate
from .reps import ActionStructure, CoactionStructure
from .tensor import Tensor


def _product_space(H: FinHopfAlgebra, squared_antipode: bool) -> FinAlgebra:
    """Common builder for the two twisted products on dual (x) self.

    (e_i* (x) e_j)(e_k* (x) e_l) has the coefficient of e_a* (x) e_b summing,
    over the legs s (x) t (x) u of the two-step coproduct of e_j and the
    triple products e_p e_q e_r of e_k, the evaluation slots S^-1[u, p] and
    T[s, r] (T = S^2 or the identity) against comult[a, i, q] mult[t, l, b].
    """
    f = H.field
    n = H.dim
    s = H.antipode
    twist = [(s, "sx"), (s, "xr")] if squared_antipode else [(Tensor.identity(f, n), "sr")]
    mult = evaluate("ijklab", [
        (iterated_coproduct(H, 3), "jstu"), (antipode_inverse(H), "up"), *twist,
        (H.mult, "pqw"), (H.mult, "wrk"), (H.comult, "aiq"), (H.mult, "tlb"),
    ]).reshape((n * n,) * 3)
    unit = evaluate("ij", [(H.counit, "i"), (H.unit, "j")]).reshape((n * n,))
    names = [
        f"{H.basis_names[i]}*{H.basis_names[j]}" for i in range(n) for j in range(n)
    ]
    label = "ah" if squared_antipode else "double"
    A = FinAlgebra(f, mult, unit, basis_names=names, name=f"{label}({H.name})", check=False,
                   generators=_generators(H))
    return by_construction(A, A.verify())


def _generators(H: FinHopfAlgebra) -> Tensor:
    """The rows e_i* (x) 1 for greedy generators e_i* of the dual, then
    counit (x) e_j for greedy generators e_j of H: candidate generators of
    both products on dual (x) self, chosen once per H; each product proves
    them for itself."""
    if "generators" not in H._cache:
        n = H.dim
        dual = greedy_generators(H.comult.transpose((1, 2, 0)), H.counit)
        own = greedy_generators(H.mult, H.unit)
        rows = {(r, i * n + b): c for r, i in enumerate(dual) for (b,), c in H.unit.entries.items()}
        rows.update({(len(dual) + r, a * n + j): c
                     for r, j in enumerate(own) for (a,), c in H.counit.entries.items()})
        H._cache["generators"] = Tensor(H.field, (len(dual) + len(own), n * n), rows,
                                        _normalized=True)
    return H._cache["generators"]


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
    # co-opposite dual coproduct interleaved with the coproduct of H:
    # e_k* (x) e_l gets mult[c, a, k] comult[l, b, d] (e_a* (x) e_b) (x) (e_c* (x) e_d)
    comult = evaluate("klabcd", [(H.mult, "cak"), (H.comult, "lbd")]).reshape((dim,) * 3)
    counit = evaluate("kl", [(H.unit, "k"), (H.counit, "l")]).reshape((dim,))
    # antipode(e_k* (x) e_l) = (counit (x) S(e_l)) . (e_k* o S^-1 (x) 1)
    antipode = evaluate("klz", [
        (H.antipode, "lb"), (H.counit, "i"), (antipode_inverse(H), "ak"), (H.unit, "j"),
        (alg.mult.reshape((n, n, n, n, dim)), "ibajz"),
    ]).reshape((dim, dim))

    D = FinHopfAlgebra(
        f, alg.mult, alg.unit, comult, counit, antipode,
        basis_names=alg.basis_names, name=f"D({H.name})",
    )
    # build_double has proved the product and its generators; the rest pins
    # the coalgebra and antipode conventions against it
    D.generators = alg.generators
    H._cache["double_hopf"] = by_construction(D, verify_hopf_given_algebra(D))
    return D


# -- module conversions --------------------------------------------------------


def _conversion_action(H: FinHopfAlgebra, M: TwoSidedStructure) -> Tensor:
    """(phi (x) h) m = phi of the coaction leg of (h m), times the rest."""
    n, m = H.dim, M.dim
    return evaluate("ijrs", [
        (M.action.tensor, "jrc"), (M.coaction.tensor, "csi"),
    ]).reshape((n * n, m, m))


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
    n = H.dim
    if V.algebra.dim != n * n:
        raise ShapeError("module is not over the dual (x) self product space")
    m = V.dim
    v = V.action.reshape((n, n, m, m))
    action = ActionStructure("left", m, evaluate("jrs", [(H.counit, "i"), (v, "ijrs")]))
    coaction = CoactionStructure("right", m, evaluate("rsi", [(H.unit, "j"), (v, "ijrs")]))
    M = TwoSidedStructure(H, action, coaction)
    report = M.verify()
    if not report.passed:
        raise CheckFailedError(report)
    report = check_ayd(M)
    if not report.passed:
        raise CheckFailedError(report)
    return M


def ah_module_roundtrip(H: FinHopfAlgebra, V: AlgebraModule) -> AlgebraModule:
    """V through ah_module_to_ayd and back to a verified module over
    build_ah(H); the structure in between is scanned by check_ayd once."""
    M = ah_module_to_ayd(H, V)  # has asserted check_ayd(M)
    return AlgebraModule(build_ah(H), _conversion_action(H, M))


def ah_double_coaction(H: FinHopfAlgebra) -> CoactionStructure:
    """The interleaved double coaction making build_ah(H) a comodule algebra
    over build_double_hopf(H); verified before returning."""
    H.require_verified()
    A = build_ah(H)
    D = build_double_hopf(H)
    # e_i* (x) e_j goes to the dual coproduct legs of e_i* interleaved with the
    # coproduct legs of e_j, which is the double's own coproduct
    coaction = CoactionStructure("right", A.dim, D.comult)
    report = check_comodule_algebra(A, D, coaction)
    if not report.passed:
        raise CheckFailedError(report)
    return coaction
