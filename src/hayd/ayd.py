"""Compatibility checks between actions and coactions, in all four side
conventions, plus the constructions that produce compatible pairs: tensor
products, entwinings, one-dimensional modules from a character and a
group-like, quotient-induced stability, and group gradings.

Every check is a spec of ``hayd.identity``.  The two families of
compatibility conditions differ only in which antipode power twists the outer
legs; ``check_ayd`` uses the inverse antipode where ``check_yd`` uses the
antipode and vice versa, so one spec per side convention serves both.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algebra import FinAlgebra
from .errors import CheckFailedError, InputError, ShapeError
from .fields import Field
from .groups import Group, index_in
from .hopf import (
    FinHopfAlgebra,
    antipode_inverse,
    check_element,
    group_algebra,
    iterated_coproduct,
    own_generators,
)
from .identity import Identity, check, evaluate, on_generators
from .report import Report
from .reps import (
    ActionStructure,
    CoactionStructure,
    action_laws,
    coaction_laws,
    coaction_letters,
    coaction_shape,
    verify_action,
)
from .tensor import Tensor, matrix_rank

CASES = ("ll", "lr", "rl", "rr")


@dataclass
class TwoSidedStructure:
    """A space carrying one H-action and one H-coaction."""

    hopf: FinHopfAlgebra
    action: ActionStructure
    coaction: CoactionStructure

    def __post_init__(self):
        if self.action.dim != self.coaction.dim:
            raise ShapeError(
                f"action dim {self.action.dim} != coaction dim {self.coaction.dim}"
            )
        if self.action.hopf_dim != self.hopf.dim or self.coaction.hopf_dim != self.hopf.dim:
            raise ShapeError("structure tensors do not match the Hopf dimension")

    @property
    def case(self) -> str:
        return self.action.side[0] + self.coaction.side[0]

    @property
    def dim(self) -> int:
        return self.action.dim

    def laws(self, reduced=False) -> list:
        """The action's laws, then the coaction's; ``reduced`` scans the
        action's associativity on H's own generators (``action_laws``)."""
        return [*action_laws(self.hopf, self.action, reduced),
                *coaction_laws(self.hopf, self.coaction)]

    def verify(self, reduced=False) -> Report:
        """``laws``, scanned in order; a pass is labelled as
        ``verify_coaction``'s."""
        return check(f"coaction-{self.coaction.side}", *self.laws(reduced))


def compatibility(M: TwoSidedStructure, anti: bool) -> Identity:
    """The case-matching action/coaction compatibility law, labelled
    ``anti-yetter-drinfeld-{case}`` or ``yetter-drinfeld-{case}``.

    With (h1, h2, h3) the legs of the two-step coproduct of h and T the
    twisting antipode power, the coaction of h.m must equal, per case:
    ll  h1 m_h T(h3) (x) h2.m_0      lr  h2.m_0 (x) h3 m_h T(h1)
    rl  T(h3) m_h h1 (x) m_0.h2      rr  m_0.h2 (x) T(h1) m_h h3
    """
    H = M.hopf
    H.require_verified()
    case, side = M.case, M.coaction.side
    mult, act, co = H.mult, M.action.tensor, M.coaction.tensor
    # which antipode power twists the outer coproduct leg, per case
    twist = antipode_inverse(H) if anti == (case in ("ll", "rr")) else H.antipode
    twisted = {
        "ll": [(mult, "phw"), (twist, "rt"), (mult, "wtj")],
        "lr": [(mult, "rhw"), (twist, "pt"), (mult, "wtj")],
        "rl": [(twist, "rt"), (mult, "thw"), (mult, "wpj")],
        "rr": [(twist, "pt"), (mult, "thw"), (mult, "wrj")],
    }[case]
    out = coaction_letters(side, "", "j", "b")
    # the twisted factors bind h first, so the coaction is looked up on (a, h)
    return Identity(
        f"{'anti-yetter-drinfeld' if anti else 'yetter-drinfeld'}-{case}", "ia", out,
        [(act, "iax"), (co, "x" + out)],
        [(iterated_coproduct(H, 3), "ipqr"), *twisted,
         (co, coaction_letters(side, "a", "h", "x")), (act, "qxb")],
    )


def stability(M: TwoSidedStructure) -> Identity:
    """The coaction leg acting back on the rest reproduces each element,
    labelled ``stability-{case}``."""
    M.hopf.require_verified()
    legs = coaction_letters(M.coaction.side, "a", "h", "x")
    return Identity(
        f"stability-{M.case}", "a", "b", [(M.coaction.tensor, legs), (M.action.tensor, "hxb")],
        [(Tensor.identity(M.hopf.field, M.dim), "ab")],
    )


def _prove(law: Identity, M: TwoSidedStructure, with_laws=False) -> Report:
    """``law`` alone; ``with_laws``: M's laws first, the action's
    associativity reduced, and then ``law`` with h on H's own generators
    (``identity.on_generators``), resting on the action's laws."""
    if not with_laws:
        return check(law.label, law)
    laws = M.laws(reduced=True)
    needs = [ident.full or ident for ident in laws[:2]]  # the action's unit and associativity
    return check(law.label, *laws, on_generators(law, own_generators(M.hopf), needs=needs))


def check_ayd(M: TwoSidedStructure, with_laws=False) -> Report:
    """Coaction of the acted element equals the inverse-antipode-twisted side.
    ``with_laws`` proves M's laws first in the same call, and scans the
    action's associativity and this law on H's own generators
    (``hopf.own_generators``)."""
    return _prove(compatibility(M, anti=True), M, with_laws)


def check_yd(M: TwoSidedStructure, with_laws=False) -> Report:
    """The antipode-twisted compatibility in the same four conventions, and
    with ``with_laws`` as in ``check_ayd``."""
    return _prove(compatibility(M, anti=False), M, with_laws)


def check_stability(M: TwoSidedStructure) -> Report:
    """The coaction leg acting back on the rest must reproduce each element."""
    return _prove(stability(M), M)


# -- tensor construction ---------------------------------------------------------


def tensor_product(N: TwoSidedStructure, M: TwoSidedStructure, case: str) -> TwoSidedStructure:
    """Tensor a compatible ("plain") structure N with a twisted one M.

    For the two left-module cases the carrier is N (x) M; for the two
    right-module cases it is M (x) N.  The output passes check_ayd whenever
    N passes check_yd and M passes check_ayd in the same case.
    """
    if case not in CASES:
        raise InputError(f"unknown case {case!r}")
    if N.hopf is not M.hopf and (
        N.hopf.mult != M.hopf.mult or N.hopf.comult != M.hopf.comult
    ):
        raise InputError("tensor factors live over different Hopf algebras")
    if N.case != case or M.case != case:
        raise InputError(
            f"factors are in cases {N.case}/{M.case}, requested {case}"
        )
    # the right factor is scanned only once the left one passes
    for factor, check_factor, S in (("left", check_yd, N), ("right", check_ayd, M)):
        r = check_factor(S)
        if not r.passed:
            raise CheckFailedError(replace(r, axiom=f"tensor-{factor}-factor-{r.axiom}"))

    H = N.hopf
    dim = N.dim * M.dim
    # the carrier's first factor is N for left modules, M for right ones; it
    # takes the first coproduct leg j of h in ll and rr, the second k otherwise
    first, second = (N, M) if case[0] == "l" else (M, N)
    hf, hs = ("j", "k") if case in ("ll", "rr") else ("k", "j")
    act = evaluate(["i", "uv", "UV"], [
        (H.comult, "ijk"), (first.action.tensor, hf + "uU"), (second.action.tensor, hs + "vV"),
    ])

    # the first factor's coaction leg multiplies on the left
    side = first.coaction.side
    lam = evaluate(coaction_letters(side, ["uv"], ["t"], ["UV"]), [
        (first.coaction.tensor, coaction_letters(side, "u", "a", "U")),
        (second.coaction.tensor, coaction_letters(side, "v", "b", "V")), (H.mult, "abt"),
    ])
    return TwoSidedStructure(
        H,
        ActionStructure(first.action.side, dim, act),
        CoactionStructure(side, dim, lam),
    )


# -- entwinings -------------------------------------------------------------------


@dataclass
class EntwiningData:
    """A map psi: H (x) H -> H (x) H entwining multiplication with comultiplication.

    Axis order of psi: (coalgebra-in, algebra-in, algebra-out, coalgebra-out).
    """

    hopf: FinHopfAlgebra
    psi: Tensor
    label: str = "custom"


def entwining_map(H: FinHopfAlgebra, variant: str) -> EntwiningData:
    """The map h' (x) h -> h2 (x) T(h1) h' h3 with T = S (yd) or S^-1 (ayd)."""
    H.require_verified()
    if variant not in ("yd", "ayd"):
        raise InputError(f"entwining variant must be yd or ayd, got {variant!r}")
    twist = antipode_inverse(H) if variant == "ayd" else H.antipode
    psi = evaluate("ijql", [
        (iterated_coproduct(H, 3), "jpqr"), (twist, "px"), (H.mult, "xiw"), (H.mult, "wrl"),
    ])
    data = EntwiningData(H, psi, label=variant)
    check_entwining(data).require()
    return data


def check_entwining(E: EntwiningData) -> Report:
    """The four compatibility axioms of an entwining map, exhaustively."""
    H = E.hopf
    H.require_verified()
    mult, comult, psi = H.mult, H.comult, E.psi
    delta = Tensor.identity(H.field, H.dim)
    return check(
        f"entwining-{E.label}",
        # psi(c (x) ab) == (mult (x) id)(id (x) psi)(psi (x) id)
        Identity("entwining-multiplicativity", "cab", "zd",
                 [(psi, "cmzd"), (mult, "abm")],
                 [(psi, "caxe"), (psi, "ebyd"), (mult, "xyz")]),
        # (id (x) comult) psi == (psi (x) id)(id (x) psi)(comult (x) id)
        Identity("entwining-comultiplicativity", "ca", "xyz",
                 [(psi, "caxd"), (comult, "dyz")],
                 [(comult, "cde"), (psi, "eawz"), (psi, "dwxy")]),
        # psi(c (x) 1) == 1 (x) c
        Identity("entwining-unit", "c", "xd",
                 [(H.unit, "j"), (psi, "cjxd")], [(H.unit, "x"), (delta, "cd")]),
        # (id (x) counit) psi == counit (x) id
        Identity("entwining-counit", "ca", "x",
                 [(psi, "caxd"), (H.counit, "d")], [(H.counit, "c"), (delta, "ax")]),
    )


def check_entwined_module(E: EntwiningData, M: TwoSidedStructure) -> Report:
    """Right-right compatibility through psi: coaction(m.a) = m0 psi(m1 (x) a)."""
    if M.case != "rr":
        raise InputError(f"entwined-module check expects the rr case, got {M.case}")
    E.hopf.require_verified()
    act, co = M.action.tensor, M.coaction.tensor
    label = f"entwined-module-{E.label}"
    return check(label, Identity(
        label, "ir", "bd",
        [(act, "irx"), (co, "xbd")], [(E.psi, "tiyd"), (co, "rxt"), (act, "yxb")],
    ))


# -- one-dimensional structures and modular pairs ---------------------------------


def _require_modular_candidates(H: FinHopfAlgebra, delta: Tensor, sigma: Tensor):
    """An InputError unless delta is a character and sigma a group-like of H."""
    if not check_element(H, delta, "character"):
        raise InputError("delta is not a character")
    if not check_element(H, sigma, "group_like"):
        raise InputError("sigma is not group-like")


def one_dim_module(H: FinHopfAlgebra, delta: Tensor, sigma: Tensor, case="rl") -> TwoSidedStructure:
    """The ground field acted on by a character delta and coacted on by a
    group-like sigma, on the sides the case letters name; (counit, unit) is the
    trivial structure.  In dimension one the module and comodule laws are the
    character and group-like identities, so nothing more needs verifying."""
    if case not in CASES:
        raise InputError(f"unknown case {case!r}")
    _require_modular_candidates(H, delta, sigma)
    act_side, co_side = ("left" if c == "l" else "right" for c in case)
    return TwoSidedStructure(
        H,
        ActionStructure(act_side, 1, delta.reshape((H.dim, 1, 1))),
        CoactionStructure(co_side, 1, sigma.reshape(coaction_shape(co_side, 1, H.dim))),
    )


def check_modular_pair(H: FinHopfAlgebra, delta: Tensor, sigma: Tensor) -> bool:
    """delta(sigma) = 1, and the delta-twisted antipode S_d(h) = delta(h1) S(h2)
    squares to conjugation by sigma: S_d(S_d(h)) = sigma h S(sigma)."""
    _require_modular_candidates(H, delta, sigma)
    label, cop, s, mult = "modular-pair", H.comult, H.antipode, H.mult
    return check(label, Identity(label, "", "", [(sigma, "i"), (delta, "i")], []), Identity(
        label, "i", "m",
        [(cop, "ijl"), (delta, "j"), (s, "lk"), (cop, "kpq"), (delta, "p"), (s, "qm")],
        [(sigma, "a"), (mult, "aiw"), (sigma, "c"), (s, "cb"), (mult, "wbm")],
    )).passed


# -- quotient-induced stability ----------------------------------------------------


def check_pi_stability(
    H: FinHopfAlgebra,
    M: FinAlgebra,
    coaction: CoactionStructure,
    pi: Tensor,
) -> Report:
    """Verify the hypotheses that force stability of an algebra quotient of H.

    pi is the matrix (H-basis, M-basis) of a linear map H -> M.  Checked in
    order: the coaction axioms, pi multiplicative and unital, pi surjective,
    the induced action h.m = pi(h) m being a module and satisfying the ll
    compatibility, the unit condition on the coaction of 1, and finally
    stability itself.  The groups before it imply stability
    (pi(h1) pi(1_-1) pi(S^-1(h3) h2) 1_0 = pi(h) 1 = m), so that last group
    checks the theorem rather than a hypothesis, and it stays as that check.
    """
    H.require_verified()
    n, m = H.dim, M.dim
    if pi.shape != (n, m):
        raise ShapeError(f"pi has shape {pi.shape}, expected {(n, m)}")
    if coaction.side != "left" or coaction.dim != m:
        raise InputError("expected a left coaction on the algebra underlying M")
    r = check(
        "pi-algebra-map", *coaction_laws(H, coaction),
        Identity("pi-algebra-map", "ij", "w",
                 [(H.mult, "ijk"), (pi, "kw")], [(pi, "iu"), (pi, "jv"), (M.mult, "uvw")]),
        Identity("pi-algebra-map", "", "w", [(H.unit, "i"), (pi, "iw")], [(M.unit, "w")]),
    )
    if not r.passed:
        return r
    rank = matrix_rank(pi)
    if rank != m:
        return Report.fail("pi-surjective", (rank,), pi, None)
    # induced action through pi and multiplication in M
    action = ActionStructure("left", m, pi.contract(M.mult, [(1, 0)]))
    structure = TwoSidedStructure(H, action, coaction)
    return check(
        "pi-stability", *action_laws(H, action), compatibility(structure, anti=True),
        # pi applied to the coaction leg of 1 must multiply back to 1
        Identity("unit-condition", "", "w",
                 [(M.unit, "a"), (coaction.tensor, "aib"), (pi, "iu"), (M.mult, "ubw")],
                 [(M.unit, "w")]),
        stability(structure),
    )


# -- group gradings -----------------------------------------------------------------


def group_graded_module(
    group: Group,
    grading,
    action,
    field: Field | None = None,
) -> TwoSidedStructure:
    """A graded space over a group algebra with a permutation-with-scalars action.

    ``grading`` lists a group element index per basis vector; ``action`` maps
    (group index, basis index) -> (image index, scalar).  The coaction tags
    each basis vector with its grade; run check_ayd on the result to test the
    conjugation rule and check_stability for grade-wise fixedness.
    """
    H = group_algebra(group, field)
    f = H.field
    m = len(grading)
    grading = [index_in(g, len(group), f"grading[{a}]") for a, g in enumerate(grading)]
    entries: dict[tuple, object] = {}
    for g in range(len(group)):
        for a in range(m):
            try:
                b, c = action[(g, a)] if not callable(action) else action(g, a)
            except KeyError as exc:
                raise InputError(f"action is missing the pair (g={g}, m={a})") from exc
            index_in(b, m, f"the image of (g={g}, m={a})")
            c = f.coerce(c)
            if not f.is_zero(c):
                entries[(g, a, b)] = c
    e = group.identity
    for a in range(m):
        if entries.get((e, a, a)) != f.one or any(
            k[0] == e and k[1] == a and k[2] != a for k in entries
        ):
            raise InputError("action is not unital: the identity must fix every vector")
    act = ActionStructure("left", m, Tensor(f, (H.dim, m, m), entries, _normalized=True))
    verify_action(H, act).require()
    co = Tensor(
        f, (m, H.dim, m), {(a, grading[a], a): f.one for a in range(m)}, _normalized=True
    )
    return TwoSidedStructure(H, act, CoactionStructure("left", m, co))
