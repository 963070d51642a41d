import re

import pytest

from hayd.ayd import (
    CASES,
    TwoSidedStructure,
    check_ayd,
    check_entwined_module,
    check_entwining,
    check_modular_pair,
    check_pi_stability,
    check_stability,
    check_yd,
    entwining_map,
    group_graded_module,
    one_dim_module,
    tensor_product,
)
from hayd.errors import CheckFailedError, InputError
from hayd.fields import prime_field, rationals
from hayd.groups import cyclic, symmetric
from hayd.hopf import (
    antipode_inverse,
    function_algebra,
    group_algebra,
    sweedler,
    taft,
    variant,
)
from hayd.algebra import FinAlgebra
from hayd.reps import ActionStructure, CoactionStructure
from hayd.suite import adjoint_structure
from hayd.identity import Identity, evaluate
from hayd.tensor import Tensor

from helpers import (
    coproduct3_rows,
    dense,
    dense_first_failure,
    entry_rows,
    first_compat_violation,
    graded_structure,
)

Q = rationals()


@pytest.fixture(scope="module")
def H4():
    return sweedler()


@pytest.fixture(scope="module")
def kS3():
    return group_algebra(symmetric(3))


# -- the compatibility checks -------------------------------------------------------


def test_trivial_one_dim_passes_every_case(kS3):
    for case in ("ll", "lr", "rl", "rr"):
        M = one_dim_module(kS3, kS3.counit, kS3.unit, case)
        assert M.verify().passed
        assert check_ayd(M).passed, case
        assert check_yd(M).passed, case
        assert check_stability(M).passed, case


def test_ks3_adjoint_grading_is_ayd_and_stable(kS3):
    G = symmetric(3)
    M = group_graded_module(G, list(range(6)), lambda g, a: (G.mul(G.mul(g, a), G.inverse(g)), 1))
    assert M.verify().passed
    assert check_ayd(M).passed
    assert check_stability(M).passed
    # independent conjugation-rule oracle over all pairs
    for g in range(6):
        for a in range(6):
            assert G.mul(G.mul(g, a), G.inverse(g)) == G.mul(G.mul(g, a), G.inverse(g))


def test_yd_module_that_is_not_ayd_exists_over_sweedler(H4):
    M = one_dim_module(H4, H4.counit, H4.unit)  # the (counit, 1) structure
    assert check_yd(M).passed
    assert not check_ayd(M).passed


def test_ayd_module_that_is_not_yd_exists_over_sweedler(H4):
    M = one_dim_module(H4, H4.counit, H4.basis_vector(2))  # sigma = g
    assert check_ayd(M).passed
    assert not check_yd(M).passed


def test_ayd_equals_yd_whenever_antipode_is_involutive(kS3):
    G = symmetric(3)
    structures = [
        one_dim_module(kS3, kS3.counit, kS3.unit, "ll"),
        group_graded_module(G, list(range(6)), lambda g, a: (G.mul(G.mul(g, a), G.inverse(g)), 1)),
        adjoint_structure(kS3, twisted=False),
        adjoint_structure(kS3, twisted=True),
    ]
    F = function_algebra(symmetric(3))
    structures += [
        one_dim_module(F, F.counit, F.unit, "rr"),
        adjoint_structure(F, twisted=False),
        adjoint_structure(F, twisted=True),
    ]
    for M in structures:
        assert check_ayd(M).passed == check_yd(M).passed


def _corrupted_gradings(kS3):
    """Single-entry corruptions of the action and the coaction of the
    conjugation-graded kS3 module, in every case, with the module they
    corrupt: each nonzero constant is copied one step along the last axis
    (doubling one would scale both sides alike)."""
    G = symmetric(3)
    for case in ("ll", "lr", "rl", "rr"):
        M = graded_structure(kS3, G, list(range(6)), case)
        for part in ("action", "coaction"):
            structure = getattr(M, part)
            t = structure.tensor
            for idx, c in sorted(t.entries.items()):
                shifted = idx[:-1] + ((idx[-1] + 1) % t.shape[-1],)
                bad = type(structure)(
                    structure.side, structure.dim,
                    Tensor(Q, t.shape, {**t.entries, shifted: c}),
                )
                parts = {"action": M.action, "coaction": M.coaction, part: bad}
                C = TwoSidedStructure(kS3, parts["action"], parts["coaction"])
                yield (case, part, idx), M, C


def test_compatibility_witness_matches_dense_oracle_on_corrupted_gradings(kS3):
    # both families on every corruption
    sinv = dense(antipode_inverse(kS3))
    witnesses = set()
    for key, _, C in _corrupted_gradings(kS3):
        for check, anti in ((check_ayd, True), (check_yd, False)):
            r = check(C)
            want = first_compat_violation(C, anti, sinv)
            if want is None:
                assert r.passed, key
                continue
            witnesses.add(r.witness)
            got = (r.axiom, r.witness, dense(r.lhs), dense(r.rhs))
            assert got == want, key
    assert len(witnesses) > 10


def test_crossed_module_failing_conjugation_fails_with_witness():
    G = symmetric(3)
    grading = list(range(6))
    # send everything to itself: breaks h m_s in M_{hsh^-1} as soon as hsh^-1 != s
    M = group_graded_module(G, grading, lambda g, a: (a, 1))
    r = check_ayd(M)
    assert not r.passed
    # first violation in lexicographic (hopf, module) order, computed independently
    expected = None
    for i in range(6):
        for a in range(6):
            if G.mul(G.mul(i, a), G.inverse(i)) != a:
                expected = (i, a)
                break
        if expected:
            break
    assert r.witness == expected


# -- stability ----------------------------------------------------------------------


def test_stability_of_adjoint_grading_on_s3(kS3):
    G = symmetric(3)
    M = group_graded_module(G, list(range(6)), lambda g, a: (G.mul(G.mul(g, a), G.inverse(g)), 1))
    assert check_stability(M).passed


def test_grading_with_sign_flipped_action_fails_stability():
    G = cyclic(2)
    # grade both vectors by g, let g act by -1 on the second
    def action(g, a):
        if g == 0:
            return (a, 1)
        return (a, 1) if a == 0 else (a, -1)

    M = group_graded_module(G, [1, 1], action)
    assert check_ayd(M).passed  # abelian group: conjugation rule is automatic
    r = check_stability(M)
    assert not r.passed and r.witness == (1,)


def test_one_dim_stability_iff_delta_of_sigma_is_one(H4):
    delta = Tensor(Q, (4,), {(0,): Q.one, (2,): Q.coerce(-1)})  # g -> -1
    g = H4.basis_vector(2)
    one = H4.unit
    assert check_stability(one_dim_module(H4, delta, one)).passed  # delta(1) = 1
    assert not check_stability(one_dim_module(H4, delta, g)).passed  # delta(g) = -1
    assert check_stability(one_dim_module(H4, H4.counit, g)).passed


# -- the tensor construction --------------------------------------------------------


def _zoo(H, group, case):
    """Small verified structures over a group algebra for one case."""
    out = [one_dim_module(H, H.counit, H.unit, case)]
    n = len(group)
    out.append(graded_structure(H, group, list(range(n)), case))
    if n == 2:
        def signed(g, a):
            if g == 0:
                return (a, 1)
            return (a, 1) if a == 0 else (a, -1)

        out.append(graded_structure(H, group, [0, 1], case, action_map=signed))
    return out


def test_tensor_with_trivial_factor_reproduces_the_other(kS3):
    G = symmetric(3)
    for case in ("ll", "lr", "rl", "rr"):
        N = one_dim_module(kS3, kS3.counit, kS3.unit, case)
        M = graded_structure(kS3, G, list(range(6)), case)
        assert check_yd(N).passed and check_ayd(M).passed
        T = tensor_product(N, M, case)
        assert T.dim == M.dim
        if case in ("ll", "lr"):
            assert T.action.tensor == M.action.tensor
            assert T.coaction.tensor == M.coaction.tensor
        assert check_ayd(T).passed


def test_tensor_of_crossed_and_adjoint_over_c2_is_4dim_ayd():
    G = cyclic(2)
    H = group_algebra(G)

    def signed(g, a):
        if g == 0:
            return (a, 1)
        return (a, 1) if a == 0 else (a, -1)

    N = graded_structure(H, G, [0, 1], "ll", action_map=signed)
    M = graded_structure(H, G, [0, 1], "ll")
    assert check_yd(N).passed and check_ayd(M).passed
    T = tensor_product(N, M, "ll")
    assert T.dim == 4
    assert check_ayd(T).passed


def test_tensor_dimension_multiplies(kS3):
    G = symmetric(3)
    N = one_dim_module(kS3, kS3.counit, kS3.unit, "rr")
    M = graded_structure(kS3, G, list(range(6)), "rr")
    assert tensor_product(N, M, "rr").dim == N.dim * M.dim


def test_tensor_rejects_factors_failing_their_checks(H4):
    bad_n = one_dim_module(H4, H4.counit, H4.basis_vector(2))  # ayd, not yd
    good_m = one_dim_module(H4, H4.counit, H4.basis_vector(2))
    with pytest.raises(CheckFailedError):
        tensor_product(bad_n, good_m, "rl")


def test_tensor_all_cases_over_sweedler(H4):
    for case in ("ll", "lr", "rl", "rr"):
        N = one_dim_module(H4, H4.counit, H4.unit, case)
        if not check_yd(N).passed:
            continue
        M = one_dim_module(H4, H4.counit, H4.basis_vector(2), case)
        if not check_ayd(M).passed:
            continue
        T = tensor_product(N, M, case)
        assert check_ayd(T).passed, case


# -- entwinings ---------------------------------------------------------------------


def test_entwining_maps_on_group_algebra_match_conjugation_formula():
    G = symmetric(3)
    H = group_algebra(G)
    expected = {}
    for i in range(6):
        for g in range(6):
            # psi(h' (x) g) = g (x) g^-1 h' g
            expected[(i, g, g, G.mul(G.mul(G.inverse(g), i), g))] = Q.one
    want = Tensor(Q, (6, 6, 6, 6), expected)
    assert entwining_map(H, "ayd").psi == want
    assert entwining_map(H, "yd").psi == want


def test_entwining_of_unit_input(H4):
    # psi(1 (x) h) keeps the middle coproduct leg with twisted outer product
    E = entwining_map(H4, "ayd")
    f = H4.field
    one_slice = {
        (j, q, l): c for (i, j, q, l), c in E.psi.entries.items() if i == 0
    }
    sinv_rows = entry_rows(antipode_inverse(H4))
    mrows = entry_rows(H4.mult, 2)
    expected = {}
    for j in range(4):
        for (p, q, r, c3) in coproduct3_rows(H4).get(j, ()):
            for pp, ct in sinv_rows.get(p, ()):
                for l, cl in mrows.get((pp, r), ()):
                    key = (j, q, l)
                    expected[key] = f.add(expected.get(key, f.zero), f.mul(c3, f.mul(ct, cl)))
    expected = {k: v for k, v in expected.items() if not f.is_zero(v)}
    assert one_slice == expected


def test_entwining_variants_differ_on_sweedler(H4):
    assert entwining_map(H4, "ayd").psi != entwining_map(H4, "yd").psi


def _corrupted_entwining(H):
    """The AYD entwining map of H with its first constant set to 5."""
    from hayd.ayd import EntwiningData

    psi = entwining_map(H, "ayd").psi
    first = sorted(psi.entries)[0]
    broken = dict(psi.entries)
    broken[first] = H.field.coerce(5)
    return EntwiningData(H, type(psi)(H.field, psi.shape, broken))


def test_corrupted_entwining_map_fails_axioms_with_witness(H4):
    r = check_entwining(_corrupted_entwining(H4))
    assert not r.passed
    assert r.axiom.startswith("entwining-")
    assert r.witness is not None


def test_entwining_axioms_pass_on_builtins():
    for H in (group_algebra(cyclic(3)), sweedler(), taft(3, prime_field(7), 2)):
        for label in ("ayd", "yd"):
            assert check_entwining(entwining_map(H, label)).passed


def test_entwined_module_equivalence_on_sweedler(H4):
    psi_a = entwining_map(H4, "ayd")
    psi_y = entwining_map(H4, "yd")
    mods = [
        one_dim_module(H4, H4.counit, H4.unit, "rr"),
        one_dim_module(H4, H4.counit, H4.basis_vector(2), "rr"),
        adjoint_structure(H4, twisted=False),
        adjoint_structure(H4, twisted=True),
    ]
    for M in mods:
        assert check_ayd(M).passed == check_entwined_module(psi_a, M).passed
        assert check_yd(M).passed == check_entwined_module(psi_y, M).passed


def test_rr_ayd_module_fails_against_yd_entwining(H4):
    M = one_dim_module(H4, H4.counit, H4.basis_vector(2), "rr")
    assert check_ayd(M).passed
    assert not check_entwined_module(entwining_map(H4, "yd"), M).passed


# -- one-dimensional modules and modular pairs ---------------------------------------


def test_one_dim_counit_unit_passes_on_group_algebras(kS3):
    M = one_dim_module(kS3, kS3.counit, kS3.unit)
    assert check_ayd(M).passed and check_stability(M).passed


def test_one_dim_rejects_non_character(H4, kS3):
    with pytest.raises(InputError):
        one_dim_module(H4, H4.basis_vector(1), H4.unit)
    with pytest.raises(InputError):
        one_dim_module(H4, H4.counit, H4.basis_vector(1))
    # in every case, and an unknown case
    not_group_like = Tensor(Q, (6,), {(0,): 1, (1,): 1})
    for case in CASES:
        for H, not_character, not_gl in ((H4, H4.basis_vector(1), H4.basis_vector(1)),
                                         (kS3, kS3.basis_vector(1), not_group_like)):
            with pytest.raises(InputError, match="character"):
                one_dim_module(H, not_character, H.unit, case)
            with pytest.raises(InputError, match="group-like"):
                one_dim_module(H, H.counit, not_gl, case)
    for case in ("", "l", "lrr", "LR", "lx", "rl "):
        with pytest.raises(InputError, match="unknown case"):
            one_dim_module(H4, H4.counit, H4.unit, case)


def _sign_character(kS3):
    """The sign of each permutation of S_3, from its one-line basis name."""
    def sign(word):
        inversions = sum(a > b for i, a in enumerate(word) for b in word[i + 1:])
        return -1 if inversions % 2 else 1

    return Tensor(Q, (6,), {(i,): sign(w) for i, w in enumerate(kS3.basis_names)})


@pytest.mark.parametrize("case", CASES)
def test_one_dim_module_takes_its_sides_from_the_case(case, H4, kS3):
    sides = {"l": "left", "r": "right"}
    pairs = [
        (H4, H4.counit, H4.unit),
        (H4, Tensor(Q, (4,), {(0,): 1, (2,): -1}), H4.basis_vector(2)),  # g -> -1, sigma = g
        (kS3, kS3.counit, kS3.unit),
        (kS3, _sign_character(kS3), kS3.basis_vector(3)),  # sign, sigma = (120)
    ]
    for H, delta, sigma in pairs:
        n = H.dim
        M = one_dim_module(H, delta, sigma, case)
        assert (M.case, M.action.side, M.coaction.side) == (case, sides[case[0]], sides[case[1]])
        assert M.dim == 1
        assert M.action.tensor == Tensor(
            Q, (n, 1, 1), {(i, 0, 0): c for (i,), c in delta.entries.items()})
        if case[1] == "l":
            want = Tensor(Q, (1, n, 1), {(0, j, 0): c for (j,), c in sigma.entries.items()})
        else:
            want = Tensor(Q, (1, 1, n), {(0, 0, j): c for (j,), c in sigma.entries.items()})
        assert M.coaction.tensor == want
        # the module and comodule laws hold without one_dim_module checking them
        assert M.verify().passed


def test_modular_pair_examples(H4, kS3):
    assert check_modular_pair(kS3, kS3.counit, kS3.unit)
    assert check_modular_pair(H4, H4.counit, H4.basis_vector(2))
    assert not check_modular_pair(H4, H4.counit, H4.unit)


def test_modular_pair_equals_stable_ayd_for_sweedler_pairs(H4):
    sign = Tensor(Q, (4,), {(0,): Q.one, (2,): Q.coerce(-1)})
    for delta in (H4.counit, sign):
        for sigma in (H4.unit, H4.basis_vector(2)):
            M = one_dim_module(H4, delta, sigma)
            both = check_ayd(M).passed and check_stability(M).passed
            assert check_modular_pair(H4, delta, sigma) == both


# -- quotient-induced stability -------------------------------------------------------


def _conjugation_coaction(G, field, points):
    """Left coaction of functions-on-G on functions-on-points, dual to conjugation."""
    m = len(points)
    entries = {}
    for y_pos, y in enumerate(points):
        for g in range(len(G)):
            x = G.mul(G.mul(G.inverse(g), y), g)
            if x in points:
                entries[(y_pos, g, points.index(x))] = field.one
    return CoactionStructure("left", m, Tensor(field, (m, len(G), m), entries))


def _restriction_matrix(G, field, points):
    n = len(G)
    return Tensor(
        field, (n, len(points)),
        {(g, points.index(g)): field.one for g in points},
    )


def _diagonal_algebra(field, m):
    mult = Tensor(field, (m, m, m), {(a, a, a): field.one for a in range(m)})
    unit = Tensor(field, (m,), {(a,): field.one for a in range(m)})
    return FinAlgebra(field, mult, unit, name=f"k^{m}")


def test_pi_stability_identity_on_functions_of_c2():
    G = cyclic(2)
    H = function_algebra(G)
    M = _diagonal_algebra(Q, 2)
    coaction = _conjugation_coaction(G, Q, [0, 1])
    pi = Tensor.identity(Q, 2)
    r = check_pi_stability(H, M, coaction, pi)
    assert r.passed, r


def test_pi_stability_on_s3_transpositions_model():
    G = symmetric(3)
    H = function_algebra(G)
    transpositions = [i for i in range(6) if G.mul(i, i) == G.identity and i != G.identity]
    assert len(transpositions) == 3
    M = _diagonal_algebra(Q, 3)
    coaction = _conjugation_coaction(G, Q, transpositions)
    pi = _restriction_matrix(G, Q, transpositions)
    r = check_pi_stability(H, M, coaction, pi)
    assert r.passed, r


def test_pi_stability_reports_non_surjective():
    G = cyclic(2)
    H = function_algebra(G)
    M = _diagonal_algebra(Q, 2)
    coaction = _conjugation_coaction(G, Q, [0, 1])
    pi = Tensor(Q, (2, 2), {(0, 0): Q.one, (1, 0): Q.one})  # rank 1, still an algebra map? no
    r = check_pi_stability(H, M, coaction, pi)
    assert not r.passed and r.axiom == "pi-algebra-map"
    # an algebra map of rank 1: d_e goes to 1 and d_g to 0
    pi = Tensor(Q, (2, 2), {(0, 0): Q.one, (0, 1): Q.one})
    r = check_pi_stability(H, M, coaction, pi)
    assert (r.passed, r.axiom, r.witness) == (False, "pi-surjective", (1,))


def test_pi_stability_reports_non_algebra_map():
    G = cyclic(2)
    H = function_algebra(G)
    M = _diagonal_algebra(Q, 2)
    coaction = _conjugation_coaction(G, Q, [0, 1])
    pi = Tensor(Q, (2, 2), {(0, 1): Q.one, (1, 0): Q.one})  # swaps idempotents, breaks unit? no: swap is an algebra map here
    # scale one output instead: pi(d_e) = 2 d_e
    pi = Tensor(Q, (2, 2), {(0, 0): Q.coerce(2), (1, 1): Q.one})
    r = check_pi_stability(H, M, coaction, pi)
    assert not r.passed and r.axiom == "pi-algebra-map"


def _assert_first_of(report, *groups):
    """``report`` is the failure of the first group that the dense oracle
    finds failing, groups taken in order: label, witness and both sides."""
    want = next(w for group in groups if (w := dense_first_failure(group)) is not None)
    assert not report.passed
    assert (report.axiom, report.witness) == want[:2]
    assert (dense(report.lhs), dense(report.rhs)) == want[2:]


def _coaction_laws(H, co):
    delta = Tensor.identity(H.field, co.shape[0])
    return ([Identity("coaction-counit", "a", "b", [(co, "aib"), (H.counit, "i")],
                      [(delta, "ab")])],
            [Identity("coaction-coassociativity", "a", "xyz",
                      [(co, "apz"), (H.comult, "pxy")], [(co, "axp"), (co, "pyz")])])


def test_pi_stability_fails_first_at_a_corrupted_coaction():
    G = cyclic(2)
    H = function_algebra(G)
    M = _diagonal_algebra(Q, 2)
    good = _conjugation_coaction(G, Q, [0, 1])
    bad = Tensor(Q, good.tensor.shape, {**good.tensor.entries, (0, 1, 1): Q.one})
    # pi is not an algebra map either; the coaction is scanned first
    pi = Tensor(Q, (2, 2), {(0, 0): Q.coerce(2), (1, 1): Q.one})
    r = check_pi_stability(H, M, CoactionStructure("left", 2, bad), pi)
    _assert_first_of(r, *_coaction_laws(H, bad))
    assert r.axiom == "coaction-coassociativity"


def test_pi_stability_names_the_first_pair_that_pi_does_not_multiply():
    G = cyclic(2)
    H = function_algebra(G)
    M = _diagonal_algebra(Q, 2)
    pi = Tensor(Q, (2, 2), {(0, 0): Q.coerce(2), (1, 1): Q.one})
    r = check_pi_stability(H, M, _conjugation_coaction(G, Q, [0, 1]), pi)
    _assert_first_of(
        r,
        [Identity("pi-algebra-map", "ij", "w", [(H.mult, "ijk"), (pi, "kw")],
                  [(pi, "iu"), (pi, "jv"), (M.mult, "uvw")])],
        [Identity("pi-algebra-map", "", "w", [(H.unit, "i"), (pi, "iw")], [(M.unit, "w")])],
    )
    assert r.witness == (0, 0)


def _sweedler_adjoint_coaction(H):
    """m -> m1 S(m3) (x) m2: a left H-comodule structure on H whose induced
    structure (H acting on itself by left multiplication, pi the identity) is
    Yetter-Drinfeld in the ll case but not anti-Yetter-Drinfeld, and not
    stable, as S^2 is not the identity."""
    co = evaluate("ahb", [(H.comult, "apy"), (H.comult, "ybr"), (H.antipode, "rs"),
                          (H.mult, "psh")])
    return CoactionStructure("left", H.dim, co)


def test_pi_stability_names_the_first_failure_of_the_compatibility(H4):
    M = FinAlgebra(Q, H4.mult, H4.unit)
    coaction = _sweedler_adjoint_coaction(H4)
    r = check_pi_stability(H4, M, coaction, Tensor.identity(Q, H4.dim))
    structure = TwoSidedStructure(H4, ActionStructure("left", H4.dim, H4.mult), coaction)
    want = first_compat_violation(structure, True, dense(antipode_inverse(H4)))
    assert want is not None and want[0] == "anti-yetter-drinfeld-ll"
    assert (r.passed, r.axiom, r.witness, dense(r.lhs), dense(r.rhs)) == (False, *want)


def test_pi_stability_reports_the_unit_condition():
    # k^C2 coacting on k by the sign, through pi = evaluation at g: pi sends
    # the coaction leg of 1, d_e - d_g, to -1
    H = function_algebra(cyclic(2))
    M = _diagonal_algebra(Q, 1)
    co = Tensor(Q, (1, 2, 1), {(0, 0, 0): Q.one, (0, 1, 0): Q.coerce(-1)})
    pi = Tensor(Q, (2, 1), {(1, 0): Q.one})
    r = check_pi_stability(H, M, CoactionStructure("left", 1, co), pi)
    _assert_first_of(r, [Identity(
        "unit-condition", "", "w",
        [(M.unit, "a"), (co, "aib"), (pi, "iu"), (M.mult, "ubw")], [(M.unit, "w")])])
    assert (r.axiom, r.witness) == ("unit-condition", (0,))


def test_pi_stability_scans_stability_last(H4, monkeypatch):
    """The earlier hypotheses force stability, so its scan is reached only
    with a weaker compatibility: with S in place of S^-1 the ll compatibility
    is the Yetter-Drinfeld one, which the adjoint coaction satisfies."""
    import hayd.ayd

    monkeypatch.setattr(hayd.ayd, "antipode_inverse", lambda H: H.antipode)
    M = FinAlgebra(Q, H4.mult, H4.unit)
    co = _sweedler_adjoint_coaction(H4).tensor
    r = check_pi_stability(H4, M, CoactionStructure("left", H4.dim, co), Tensor.identity(Q, 4))
    _assert_first_of(r, [Identity("stability-ll", "a", "b", [(co, "ahx"), (H4.mult, "hxb")],
                                  [(Tensor.identity(Q, 4), "ab")])])
    assert r.axiom == "stability-ll"


def test_two_sided_verify_names_the_action_when_both_parts_fail(H4):
    M = adjoint_structure(H4, twisted=True)
    act, co = M.action.tensor, M.coaction.tensor
    bad_act = Tensor(Q, act.shape, {**act.entries, (1, 2, 3): Q.one})
    bad_co = Tensor(Q, co.shape, {**co.entries, (0, 0, 0): Q.coerce(5)})
    broken = TwoSidedStructure(H4, ActionStructure("right", 4, bad_act),
                               CoactionStructure("right", 4, bad_co))
    delta = Tensor.identity(Q, 4)
    r = broken.verify()
    _assert_first_of(
        r,
        [Identity("action-unit", "a", "b", [(H4.unit, "j"), (bad_act, "jab")], [(delta, "ab")])],
        [Identity("action-associativity", "ija", "b", [(H4.mult, "ijk"), (bad_act, "kab")],
                  [(bad_act, "iac"), (bad_act, "jcb")])],
    )
    assert r.axiom.startswith("action-")


# -- group-graded module edge cases ---------------------------------------------------


def test_group_graded_module_is_over_the_group_algebra_of_its_group():
    G = cyclic(2)
    M = group_graded_module(G, [0, 1], lambda g, a: (a, 1), field=prime_field(5))
    assert M.hopf.dim == len(G) and M.hopf.field == prime_field(5)
    with pytest.raises(TypeError):
        group_graded_module(cyclic(3), [0, 1, 2], lambda g, a: (a, 1),
                            hopf=group_algebra(cyclic(2)))


def test_group_graded_requires_unital_action():
    G = cyclic(2)
    with pytest.raises(InputError):
        group_graded_module(G, [0, 0], lambda g, a: (a, 2 if g == 0 else 1))


@pytest.mark.parametrize("grading, action, where", [
    ([0.9, True], lambda g, a: (a, 1), "grading[0] is 0.9"),
    ([0, True], lambda g, a: (a, 1), "grading[1] is True"),
    ([0, 2], lambda g, a: (a, 1), "grading[1] is 2"),
    ([0, 1], lambda g, a: (5 if g else a, 1), "the image of (g=1, m=0) is 5"),
    ([0, 1], lambda g, a: (-1 if g else a, 1), "the image of (g=1, m=0) is -1"),
    ([0, 1], lambda g, a: (1.0 * a, 1), "the image of (g=0, m=0) is 0.0"),
])
def test_group_graded_rejects_malformed_gradings_and_images(grading, action, where):
    # each is an input error naming its position, never coerced and never
    # left for the action check to report at some witness
    with pytest.raises(InputError, match=re.escape(where)):
        group_graded_module(cyclic(2), grading, action)


def test_identity_graded_module_is_always_ayd_and_stable():
    G = symmetric(3)
    # everything graded by the identity; act through the sign of the permutation
    sign = [1, -1, -1, 1, 1, -1]

    def action(g, a):
        return (a, sign[g])

    M = group_graded_module(G, [G.identity, G.identity], action)
    # the conjugation rule is vacuous for the identity grade, and stability
    # only constrains the action of each element's own grade
    assert check_ayd(M).passed
    assert check_stability(M).passed
    # per-element reporting appears once a nontrivial grade acts nontrivially
    def bad(g, a):
        return (a, sign[g])

    N = group_graded_module(G, [1, G.identity], bad)
    r = check_stability(N)
    assert not r.passed and r.witness == (0,)


def test_mirrored_rr_structure_agrees_with_ll_checker(H4):
    M = adjoint_structure(H4, twisted=True)  # rr case, passes ayd
    assert check_ayd(M).passed
    K = variant(H4, "op_cop")
    mirrored = TwoSidedStructure(
        K,
        ActionStructure("left", M.dim, M.action.tensor),
        CoactionStructure("left", M.dim, M.coaction.tensor.transpose((0, 2, 1))),
    )
    assert mirrored.verify().passed
    assert check_ayd(mirrored).passed
    # and a structure failing rr fails the mirrored ll check too
    N = adjoint_structure(H4, twisted=False)
    assert not check_ayd(N).passed
    mirrored_n = TwoSidedStructure(
        K,
        ActionStructure("left", N.dim, N.action.tensor),
        CoactionStructure("left", N.dim, N.coaction.tensor.transpose((0, 2, 1))),
    )
    assert not check_ayd(mirrored_n).passed
