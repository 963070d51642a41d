"""Builtin example registry and the named check battery behind the CLI."""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

from .algebra import AlgebraModule
from .ayd import (
    TwoSidedStructure,
    check_ayd,
    check_entwined_module,
    check_modular_pair,
    check_stability,
    check_yd,
    entwining_map,
    one_dim_module,
)
from .double import (
    ah_double_coaction,
    ah_module_roundtrip,
    build_ah,
    build_double,
    build_double_hopf,
    yd_to_double_module,
)
from .errors import CheckFailedError, InputError
from .fields import prime_field
from .galois import (
    hopf_galois_data,
    make_sayd_prop5,
    mu_action,
    restrict_coaction,
)
from .groups import cyclic, symmetric
from .hopf import (
    FinHopfAlgebra,
    antipode_inverse,
    check_element,
    dual_hopf,
    function_algebra,
    group_algebra,
    sweedler,
    taft,
    variant,
    verify_hopf_axioms,
)
from .identity import Identity, check, evaluate, ledger
from .report import Report
from .reps import ActionStructure, CoactionStructure, trivial_action
from .schema import load_hopf
from .tensor import Tensor, matrix_rank

BUILTINS = {
    "group-c2": lambda: group_algebra(cyclic(2)),
    "group-c3": lambda: group_algebra(cyclic(3)),
    "group-s3": lambda: group_algebra(symmetric(3)),
    "fun-c2": lambda: function_algebra(cyclic(2)),
    "fun-s3": lambda: function_algebra(symmetric(3)),
    "sweedler-2": lambda: sweedler(),
    "taft-3-f7": lambda: taft(3, prime_field(7), 2),
}


def builtin(name: str) -> FinHopfAlgebra:
    try:
        factory = BUILTINS[name]
    except KeyError:
        raise InputError(f"unknown builtin {name!r}; see list-builtins") from None
    return factory()


def hopf_target(name: str) -> FinHopfAlgebra:
    """The builtin called ``name``, or the Hopf algebra of the hopf document
    at that path."""
    return builtin(name) if name in BUILTINS else load_hopf(name)


# -- stock two-sided structures used by several checks ----------------------------


def adjoint_structure(H: FinHopfAlgebra, twisted: bool) -> TwoSidedStructure:
    """H on itself: p.h = T(h1) p h2 with T = S (plain) or S^-1 (twisted),
    with the comultiplication as right coaction (the rr convention)."""
    H.require_verified()
    twist = antipode_inverse(H) if twisted else H.antipode
    act = evaluate("iab", [(H.comult, "ijk"), (twist, "jx"), (H.mult, "xaw"), (H.mult, "wkb")])
    action = ActionStructure("right", H.dim, act)
    return TwoSidedStructure(H, action, CoactionStructure("right", H.dim, H.comult))


def screened_group_likes(H: FinHopfAlgebra):
    """Cheap candidates (basis vectors and the unit) that pass check_element."""
    seen = []
    candidates = [H.unit] + [H.basis_vector(i) for i in range(H.dim)]
    for v in candidates:
        if check_element(H, v, "group_like") and v not in seen:
            seen.append(v)
    return seen


def screened_characters(H: FinHopfAlgebra):
    """The counit plus dual-basis covectors that happen to be characters."""
    seen = [H.counit]
    for i in range(H.dim):
        v = H.basis_vector(i)
        if v not in seen and check_element(H, v, "character"):
            seen.append(v)
    return seen


def rr_test_modules(H: FinHopfAlgebra):
    """A small zoo of verified right-right structures over H."""
    mods = [("trivial", one_dim_module(H, H.counit, H.unit, "rr"))]
    for k, sigma in enumerate(screened_group_likes(H)):
        if sigma != H.unit:  # that one is the trivial module
            mods.append((f"one-dim-{k}", one_dim_module(H, H.counit, sigma, "rr")))
    for name, twisted in (("adjoint", False), ("adjoint-twisted", True)):
        M = adjoint_structure(H, twisted)
        M.verify().require()
        mods.append((name, M))
    return mods


# -- the named checks ---------------------------------------------------------------


def _check_antipode_antialgebra(H):
    mult, s = H.mult, H.antipode
    return check("antipode-antialgebra", Identity(
        "antipode-antialgebra", "ij", "l",
        [(mult, "ijk"), (s, "kl")], [(s, "ia"), (s, "jb"), (mult, "bal")],
    ))


def _agree(label, *pairs) -> Report:
    """Each pair (a, b) of same-shape tensors agrees entry by entry, checked
    in order: a failure names the least index where the first differing pair
    differs, with both entries there."""
    letters = "abcdefgh"
    return check(label, *(
        Identity(label, letters[:a.rank], "", [(a, letters[:a.rank])], [(b, letters[:b.rank])])
        for a, b in pairs
    ))


def _check_antipode_inverse(H):
    s, sinv, delta = H.antipode, antipode_inverse(H), Tensor.identity(H.field, H.dim)
    return check("antipode-inverse", [
        Identity("antipode-inverse", "i", "k", [(s, "ij"), (sinv, "jk")], [(delta, "ik")]),
        Identity("antipode-inverse", "i", "k", [(sinv, "ij"), (s, "jk")], [(delta, "ik")]),
    ])


def _same(label, A, B, parts) -> Report:
    """A and B agree on each structure tensor named in ``parts``, in that order."""
    return _agree(label, *((getattr(A, part), getattr(B, part)) for part in parts.split()))


def _check_entwining_equivalence(H):
    psi_ayd = entwining_map(H, "ayd")
    psi_yd = entwining_map(H, "yd")
    for name, M in rr_test_modules(H):
        pairs = (
            ("ayd", check_ayd(M), check_entwined_module(psi_ayd, M)),
            ("yd", check_yd(M), check_entwined_module(psi_yd, M)),
        )
        for label, direct, entwined in pairs:
            if direct.passed != entwined.passed:
                return Report.fail(
                    "entwining-equivalence",
                    (name, label),
                    direct.lhs,
                    entwined.lhs,
                )
    return Report.ok("entwining-equivalence")


def _check_modular_pair_equivalence(H):
    sigmas = screened_group_likes(H)
    for k, delta in enumerate(screened_characters(H)):
        for l, sigma in enumerate(sigmas):
            M = one_dim_module(H, delta, sigma)
            stable_ayd = check_ayd(M).passed and check_stability(M).passed
            if check_modular_pair(H, delta, sigma) != stable_ayd:
                return Report.fail("modular-pair-equivalence", (k, l), delta, sigma)
    return Report.ok("modular-pair-equivalence")


def _check_galois_baseline(H):
    G = hopf_galois_data(H)
    CA = G.ca
    if not G.bijective:
        return Report.fail("galois-baseline", (matrix_rank(G.can),), G.can, None)
    action, carrier = mu_action(G, flipped=False)
    M = TwoSidedStructure(
        H, action, CoactionStructure("right", carrier.shape[0], restrict_coaction(CA, carrier))
    )
    r = check_yd(M)
    if not r.passed:
        return r
    if CA.P.is_commutative():
        want = trivial_action(H, carrier.shape[0], "right").tensor
        return _agree("galois-baseline", (action.tensor, want))
    return Report.ok("galois-baseline")


def _check_ah_vs_double(H):
    # A_H and the double share their product exactly when S^2 = id
    delta = Tensor.identity(H.field, H.dim)
    squares_to_id = check("ah-vs-double", Identity(
        "ah-vs-double", "i", "k", [(H.antipode, "ij"), (H.antipode, "jk")], [(delta, "ik")]))
    same = _agree("ah-vs-double", (build_ah(H).mult, build_double(H).mult))
    if same.passed != squares_to_id.passed:
        return squares_to_id if same.passed else same
    return Report.ok("ah-vs-double")


def _check_ah_roundtrip(H):
    A = build_ah(H)
    reg = AlgebraModule(A, A.mult)
    r = _agree("ah-roundtrip", (ah_module_roundtrip(H, reg).action, reg.action))
    if r.passed:  # the trivial structure converts: yd_to_double_module asserts check_yd
        yd_to_double_module(H, one_dim_module(H, H.counit, H.unit, "lr"))
    return r


# A check takes H.  It fails by returning a failing Report or by raising
# CheckFailedError; any other result is a pass, such as the structure a
# builder proved on construction.  Each builder is called by its module-level
# name, looked up at call time, so a rebinding of that name (a trace wrapper)
# is seen.
SUITE_CHECKS = {
    "hopf-axioms": lambda H: verify_hopf_axioms(H),
    "antipode-antialgebra": _check_antipode_antialgebra,
    "antipode-inverse": _check_antipode_inverse,
    "dual-reflexive": lambda H: _same("dual-reflexive", dual_hopf(dual_hopf(H)), H,
                                      "mult unit comult counit antipode"),
    "dual-op-cop": lambda H: _same("dual-op-cop", dual_hopf(variant(H, "op")),
                                   variant(dual_hopf(H), "cop"), "mult comult antipode unit counit"),
    "variant-involution": lambda H: _same("variant-involution", variant(variant(H, "op"), "op"), H,
                                          "mult comult antipode"),
    "entwining-axioms": lambda H: (entwining_map(H, "ayd"), entwining_map(H, "yd")),
    "entwining-equivalence": _check_entwining_equivalence,
    "modular-pair-equivalence": _check_modular_pair_equivalence,
    "galois-baseline": _check_galois_baseline,
    "sayd-prop5": lambda H: make_sayd_prop5((G := hopf_galois_data(H)).ca, G),
    "ah-associative": lambda H: build_ah(H),
    "double-associative": lambda H: build_double(H),
    "ah-vs-double": _check_ah_vs_double,
    "double-hopf": lambda H: build_double_hopf(H),
    "ah-comodule-algebra": lambda H: ah_double_coaction(H),
    "ah-roundtrip": _check_ah_roundtrip,
}


@dataclass
class SuiteItem:
    target: str
    check: str
    report: Report
    millis: int


@dataclass
class SuiteResult:
    items: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(item.report.passed for item in self.items)


def run_suite(targets: dict, checks=None) -> SuiteResult:
    """Run the named checks on each target of ``targets``, a mapping from
    display names to FinHopfAlgebra instances (``resolve_targets``); the
    targets verify up front.  The checks of one target share an
    ``identity.ledger()`` scope, so an identity several of them state is
    scanned once.  Any InputError escapes to the caller before checks run.
    """
    chosen = sorted(set(checks)) if checks else sorted(SUITE_CHECKS)
    for name in chosen:
        if name not in SUITE_CHECKS:
            raise InputError(f"unknown check {name!r}; known: {sorted(SUITE_CHECKS)}")
    for label, H in targets.items():
        H.require_verified(f"target {label}")
    result = SuiteResult()
    for label in sorted(targets):
        H = targets[label]
        with ledger():
            for name in chosen:
                start = time.monotonic()
                try:
                    report = SUITE_CHECKS[name](H)
                except CheckFailedError as exc:
                    report = exc.report
                if not isinstance(report, Report):
                    report = Report.ok(name)
                millis = int((time.monotonic() - start) * 1000)
                result.items.append(SuiteItem(label, name, report, millis))
        # the Galois data refers back to H: dropping it breaks that cycle, so
        # H and its cached builds are freed as soon as the caller lets go
        H._cache.pop("galois", None)
    return result


def resolve_targets(names) -> dict:
    """Builtin names (or 'all') and hopf-document paths to their algebras."""
    out = {}
    for name in names:
        for target in BUILTINS if name == "all" else [name]:
            out[target] = hopf_target(target)
    return out
