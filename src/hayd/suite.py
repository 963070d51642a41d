"""Builtin example registry and the named check battery behind the CLI.

Each suite check is a function FinHopfAlgebra -> Report.  Checks either pass,
fail with a witness, or raise InputError for malformed inputs; construction
helpers that assert their own postconditions surface failures through
CheckFailedError, which the runner converts into the embedded failing Report.
"""

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
    translation_map,
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
from .identity import Identity, check, evaluate
from .report import Report
from .reps import ActionStructure, CoactionStructure, trivial_action
from .schema import load_hopf
from .tensor import Tensor

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


def verified_input(H: FinHopfAlgebra, label: str) -> FinHopfAlgebra:
    """H once every Hopf axiom holds on it; builtins, which their factories
    verify, are not scanned again.  A failure is an InputError naming
    ``label``."""
    if not H.verified:
        report = verify_hopf_axioms(H)
        if not report.passed:
            raise InputError(
                f"{label} fails '{report.axiom}' at {report.witness}; "
                "supply a valid Hopf structure"
            )
    return H


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
        r = M.verify()
        if not r.passed:
            raise CheckFailedError(r)
        mods.append((name, M))
    return mods


# -- the named checks ---------------------------------------------------------------


def _check_hopf_axioms(H):
    return verify_hopf_axioms(H)


def _check_antipode_antialgebra(H):
    mult, s = H.mult, H.antipode
    return check("antipode-antialgebra", Identity(
        "antipode-antialgebra", "ij", "l",
        [(mult, "ijk"), (s, "kl")], [(s, "ia"), (s, "jb"), (mult, "bal")],
    ))


def _check_antipode_inverse(H):
    sinv = antipode_inverse(H)
    ident = Tensor.identity(H.field, H.dim)
    ok = (
        H.antipode.contract(sinv, [(1, 0)]) == ident
        and sinv.contract(H.antipode, [(1, 0)]) == ident
    )
    return Report.ok("antipode-inverse") if ok else Report.fail("antipode-inverse", (0,))


def _check_dual_reflexive(H):
    DD = dual_hopf(dual_hopf(H))
    ok = (
        DD.mult == H.mult
        and DD.unit == H.unit
        and DD.comult == H.comult
        and DD.counit == H.counit
        and DD.antipode == H.antipode
    )
    return Report.ok("dual-reflexive") if ok else Report.fail("dual-reflexive", (0,))


def _check_dual_op_cop(H):
    left = dual_hopf(variant(H, "op"))
    right = variant(dual_hopf(H), "cop")
    ok = (
        left.mult == right.mult
        and left.comult == right.comult
        and left.antipode == right.antipode
        and left.unit == right.unit
        and left.counit == right.counit
    )
    return Report.ok("dual-op-cop") if ok else Report.fail("dual-op-cop", (0,))


def _check_variant_involution(H):
    back = variant(variant(H, "op"), "op")
    ok = back.mult == H.mult and back.comult == H.comult and back.antipode == H.antipode
    return Report.ok("variant-involution") if ok else Report.fail("variant-involution", (0,))


def _check_entwining_axioms(H):
    for label in ("ayd", "yd"):
        entwining_map(H, label)  # runs check_entwining, raising CheckFailedError on failure
    return Report.ok("entwining-axioms")


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
    for delta in screened_characters(H):
        for sigma in screened_group_likes(H):
            M = one_dim_module(H, delta, sigma)
            stable_ayd = check_ayd(M).passed and check_stability(M).passed
            if check_modular_pair(H, delta, sigma) != stable_ayd:
                return Report.fail("modular-pair-equivalence", (0,), delta, sigma)
    return Report.ok("modular-pair-equivalence")


def _check_galois_baseline(H):
    G = hopf_galois_data(H)
    CA = G.ca
    if not G.bijective:
        return Report.fail("galois-baseline", (0,))
    translation_map(G)  # asserts can(T(h)) = 1 (x) h exactly
    action, carrier = mu_action(G, flipped=False)
    M = TwoSidedStructure(
        H, action, CoactionStructure("right", len(carrier), restrict_coaction(CA, carrier))
    )
    r = check_yd(M)
    if not r.passed:
        return r
    if CA.P.is_commutative():
        want = trivial_action(H, len(carrier), "right").tensor
        if action.tensor != want:
            return Report.fail("galois-baseline", (1,), action.tensor, want)
    return Report.ok("galois-baseline")


def _check_sayd_prop5(H):
    # asserts check_ayd and check_stability, raising CheckFailedError on failure
    G = hopf_galois_data(H)
    make_sayd_prop5(G.ca, G)
    return Report.ok("sayd-prop5")


def _check_ah_associative(H):
    build_ah(H)  # FinAlgebra construction verifies associativity and the unit
    return Report.ok("ah-associative")


def _check_double_associative(H):
    build_double(H)
    return Report.ok("double-associative")


def _check_ah_vs_double(H):
    s2 = H.antipode.contract(H.antipode, [(1, 0)])
    squares_to_id = s2 == Tensor.identity(H.field, H.dim)
    same = build_ah(H).mult == build_double(H).mult
    if same != squares_to_id:
        return Report.fail("ah-vs-double", (0,), s2, None)
    return Report.ok("ah-vs-double")


def _check_double_hopf(H):
    build_double_hopf(H)
    return Report.ok("double-hopf")


def _check_ah_comodule_algebra(H):
    ah_double_coaction(H)  # runs check_comodule_algebra, raising CheckFailedError on failure
    return Report.ok("comodule-algebra")


def _check_ah_roundtrip(H):
    A = build_ah(H)
    reg = AlgebraModule(A, A.mult, check=False)  # A is verified, so this is a module
    back = ah_module_roundtrip(H, reg)
    if back.action != reg.action:
        return Report.fail("ah-roundtrip", (0,), back.action, reg.action)
    triv = one_dim_module(H, H.counit, H.unit, "lr")
    if check_yd(triv).passed:
        V = yd_to_double_module(H, triv)
        if V.dim != 1:
            return Report.fail("ah-roundtrip", (1,))
    return Report.ok("ah-roundtrip")


SUITE_CHECKS = {
    "hopf-axioms": _check_hopf_axioms,
    "antipode-antialgebra": _check_antipode_antialgebra,
    "antipode-inverse": _check_antipode_inverse,
    "dual-reflexive": _check_dual_reflexive,
    "dual-op-cop": _check_dual_op_cop,
    "variant-involution": _check_variant_involution,
    "entwining-axioms": _check_entwining_axioms,
    "entwining-equivalence": _check_entwining_equivalence,
    "modular-pair-equivalence": _check_modular_pair_equivalence,
    "galois-baseline": _check_galois_baseline,
    "sayd-prop5": _check_sayd_prop5,
    "ah-associative": _check_ah_associative,
    "double-associative": _check_double_associative,
    "ah-vs-double": _check_ah_vs_double,
    "double-hopf": _check_double_hopf,
    "ah-comodule-algebra": _check_ah_comodule_algebra,
    "ah-roundtrip": _check_ah_roundtrip,
}


@dataclass
class SuiteItem:
    target: str
    check: str
    passed: bool
    witness: tuple | None
    millis: int
    lhs: object = None
    rhs: object = None


@dataclass
class SuiteResult:
    items: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)


def run_suite(targets, checks=None) -> SuiteResult:
    """Run the named checks on each target; targets parse and verify up front.

    ``targets`` is either a list of builtin names / hopf-document paths or a
    mapping from display names to FinHopfAlgebra instances.  Any InputError
    escapes to the caller before checks run.
    """
    if not isinstance(targets, dict):
        targets = resolve_targets(targets)
    chosen = sorted(set(checks)) if checks else sorted(SUITE_CHECKS)
    for name in chosen:
        if name not in SUITE_CHECKS:
            raise InputError(f"unknown check {name!r}; known: {sorted(SUITE_CHECKS)}")
    for label, H in targets.items():
        verified_input(H, f"target {label}")
    result = SuiteResult()
    for label in sorted(targets):
        H = targets[label]
        for name in chosen:
            start = time.monotonic()
            try:
                report = SUITE_CHECKS[name](H)
            except CheckFailedError as exc:
                report = exc.report
            millis = int((time.monotonic() - start) * 1000)
            result.items.append(
                SuiteItem(
                    label, name, report.passed, report.witness, millis,
                    None if report.passed else report.lhs,
                    None if report.passed else report.rhs,
                )
            )
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
