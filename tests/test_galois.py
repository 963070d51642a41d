import pytest

from hayd.algebra import FinAlgebra
from hayd.ayd import TwoSidedStructure, check_ayd, check_stability, check_yd
from hayd.errors import CheckFailedError, InputError, NotGaloisError
from hayd.fields import rationals
from hayd.galois import (
    ComoduleAlgebra,
    canonical_map,
    centralizer,
    check_comodule_algebra,
    check_sandwich,
    coinvariants,
    comodule_algebra_from_hopf,
    make_sayd_prop5,
    mu_action,
    relative_tensor,
    restrict_coaction,
    translation_map,
)
from hayd.groups import cyclic, symmetric
from hayd.hopf import function_algebra, group_algebra, sweedler
from hayd.reps import CoactionStructure
from hayd.tensor import Tensor

from helpers import dense, dense_project, entry_rows

Q = rationals()


def _sign_graded_s3():
    """kS3 graded by the sign character over kC2: the coinvariants are the
    even span kA3, which is not central."""
    G = symmetric(3)
    H = group_algebra(cyclic(2))
    sign = [0, 1, 1, 0, 0, 1]  # parity of each permutation
    P = FinAlgebra(Q, group_algebra(G).mult, group_algebra(G).unit)
    entries = {(a, a, sign[a]): Q.one for a in range(6)}
    return ComoduleAlgebra(P, H, CoactionStructure("right", 6, Tensor(Q, (6, 6, 2), entries)))


@pytest.fixture(scope="module")
def H4():
    return sweedler()


@pytest.fixture(scope="module")
def CA4(H4):
    return comodule_algebra_from_hopf(H4)


def _trivial_comodule_algebra(H, P: FinAlgebra):
    entries = {}
    for a in range(P.dim):
        for (i,), u in H.unit.entries.items():
            entries[(a, a, i)] = u
    co = CoactionStructure("right", P.dim, Tensor(P.field, (P.dim, P.dim, H.dim), entries))
    return ComoduleAlgebra(P, H, co)


def test_comodule_algebra_axioms_rejects_non_multiplicative():
    H = group_algebra(cyclic(2))
    P = FinAlgebra(Q, H.mult, H.unit)
    # coaction tagging basis elements with themselves is comultiplication: fine
    good = CoactionStructure("right", 2, H.comult)
    assert check_comodule_algebra(P, H, good).passed
    # grade the idempotent basis (1 +- g)/2 by group elements; a valid
    # comodule whose grades do not multiply, so the algebra map law fails
    half = Q.coerce("1/2")
    neg_half = Q.coerce("-1/2")
    bad = CoactionStructure(
        "right",
        2,
        Tensor(
            Q,
            (2, 2, 2),
            {
                (0, 0, 0): half, (0, 1, 0): half, (0, 0, 1): half, (0, 1, 1): neg_half,
                (1, 0, 0): half, (1, 1, 0): half, (1, 0, 1): neg_half, (1, 1, 1): half,
            },
        ),
    )
    from hayd.reps import verify_coaction

    assert verify_coaction(H, bad).passed
    r = check_comodule_algebra(P, H, bad)
    assert not r.passed
    assert r.axiom == "coaction-multiplicative"


def test_coinvariants_of_self_coaction_is_the_unit_line():
    for H in (group_algebra(cyclic(3)), sweedler(), function_algebra(symmetric(3))):
        CA = comodule_algebra_from_hopf(H)
        B = coinvariants(CA)
        assert B.shape[0] == 1
        # the line through 1: proportional to the unit vector
        unit = CA.P.unit
        scale = None
        for (_, i), c in B.entries.items():
            u = unit.get((i,))
            assert not CA.field.is_zero(u)
            s = c / u
            scale = s if scale is None else scale
            assert s == scale


def test_coinvariants_of_trivial_coaction_is_everything(H4):
    P = FinAlgebra(Q, H4.mult, H4.unit)
    CA = _trivial_comodule_algebra(H4, P)
    assert coinvariants(CA).shape[0] == P.dim


def test_centralizer_of_unit_line_is_everything(CA4):
    B = CA4.P.unit.reshape((1, CA4.dim))
    assert centralizer(CA4, B).shape[0] == CA4.dim


def test_centralizer_of_one_g_inside_sweedler(CA4):
    # the span of 1 and g centralizes exactly the span of 1 and g
    B = Tensor(Q, (2, 4), {**{(0, i): c for (i,), c in CA4.P.unit.entries.items()},
                           (1, 2): Q.one})
    Z = centralizer(CA4, B)
    assert Z.shape[0] == 2
    assert all(i in (0, 2) for (_, i) in Z.entries)


def test_centralizer_of_commutative_algebra_is_everything():
    H = function_algebra(symmetric(3))
    CA = comodule_algebra_from_hopf(H)
    assert centralizer(CA, coinvariants(CA)).shape[0] == 6


def test_relative_tensor_full_dimension_for_unit_line(CA4):
    rel = relative_tensor(CA4, coinvariants(CA4))
    assert rel.dim == 16
    assert rel.relations.shape == (0, 16)


def test_relative_tensor_collapses_for_full_commutative_b():
    H = function_algebra(cyclic(2))
    P = FinAlgebra(Q, H.mult, H.unit)
    CA = _trivial_comodule_algebra(H, P)
    B = coinvariants(CA)
    assert B.shape[0] == P.dim
    rel = relative_tensor(CA, B)
    assert rel.dim == P.dim
    # projection composed with section is the identity on the quotient
    f = Q
    for s, lift in enumerate(dense(rel.section)):
        back = dense_project(rel, lift)
        assert back == [f.one if t == s else f.zero for t in range(rel.dim)]


def test_canonical_map_bijective_for_self_coaction_on_all_builtins():
    from hayd.suite import BUILTINS

    for name, factory in BUILTINS.items():
        G = canonical_map(comodule_algebra_from_hopf(factory()))
        assert G.bijective, name


def test_canonical_map_fails_for_trivial_coaction(H4):
    P = FinAlgebra(Q, H4.mult, H4.unit)
    CA = _trivial_comodule_algebra(H4, P)
    G = canonical_map(CA)
    assert not G.bijective
    with pytest.raises(NotGaloisError):
        translation_map(G)


def test_direct_sum_with_diagonal_coaction_is_disconnected_galois():
    # two copies of the group algebra, diagonal coaction: the coinvariants are
    # two-dimensional and the canonical map is bijective blockwise
    H = group_algebra(cyclic(2))
    f = Q
    mult = {}
    for (i, j, k), c in H.mult.entries.items():
        mult[(i, j, k)] = c
        mult[(i + 2, j + 2, k + 2)] = c
    unit = {(0,): f.one, (2,): f.one}
    P = FinAlgebra(f, Tensor(f, (4, 4, 4), mult), Tensor(f, (4,), unit))
    co = {}
    for (i, j, k), c in H.comult.entries.items():
        co[(i, j, k)] = c
        co[(i + 2, j + 2, k)] = c
    CA = ComoduleAlgebra(P, H, CoactionStructure("right", 4, Tensor(f, (4, 4, 2), co)))
    assert coinvariants(CA).shape[0] == 2
    G = canonical_map(CA)
    assert G.rel.dim == 8 == CA.dim * H.dim
    assert G.bijective
    M = make_sayd_prop5(CA)
    assert check_stability(M).passed


def test_translation_of_unit_is_projected_unit_square(CA4):
    G = canonical_map(CA4)
    T = translation_map(G)
    f = Q
    unit_sq = [f.zero] * 16
    unit_sq[0] = f.one  # 1 (x) 1 in the flattened square basis
    expected = dense_project(G.rel, unit_sq)
    assert [T.get((0, s)) for s in range(G.rel.dim)] == expected


def test_translation_matches_antipode_coproduct_formula(CA4, H4):
    # independent identity for the self-coaction: T(h) = projection of
    # S(h-left-leg) (x) h-right-leg, checked entrywise for every basis element
    G = canonical_map(CA4)
    T = translation_map(G)
    f = Q
    m = 4
    for i in range(m):
        dense = [f.zero] * (m * m)
        for (j, k, c) in entry_rows(H4.comult).get(i, ()):
            for l, cs in entry_rows(H4.antipode).get(j, ()):
                dense[l * m + k] = f.add(dense[l * m + k], f.mul(c, cs))
        expected = dense_project(G.rel, dense)
        assert [T.get((i, s)) for s in range(G.rel.dim)] == expected


def test_translation_is_linear(CA4):
    G = canonical_map(CA4)
    T = translation_map(G)
    assert T.shape == (4, G.rel.dim)


def test_standard_mu_action_on_group_algebra_is_right_adjoint():
    G = symmetric(3)
    H = group_algebra(G)
    data = canonical_map(comodule_algebra_from_hopf(H))
    action, carrier = mu_action(data, flipped=False)
    assert carrier.shape[0] == 6
    # with the full carrier in basis order, p . g = g^-1 p g
    expected = {}
    for g in range(6):
        for a in range(6):
            expected[(g, a, G.mul(G.mul(G.inverse(g), a), g))] = Q.one
    # carrier basis vectors come from kernel computations; map them back
    perm = []
    for z in range(carrier.shape[0]):
        items = [(j, c) for (r, j), c in carrier.entries.items() if r == z]
        assert len(items) == 1 and items[0][1] == Q.one
        perm.append(items[0][0])
    remap = {}
    for (g, r, s), c in action.tensor.entries.items():
        remap[(g, perm[r], perm[s])] = c
    assert remap == expected


def test_mu_actions_trivial_on_commutative_builtins():
    for H in (function_algebra(cyclic(2)), function_algebra(symmetric(3))):
        data = canonical_map(comodule_algebra_from_hopf(H))
        action, carrier = mu_action(data, flipped=False)
        f = H.field
        expected = {}
        for (i,), c in H.counit.entries.items():
            for a in range(carrier.shape[0]):
                expected[(i, a, a)] = c
        assert action.tensor == Tensor(f, (H.dim, carrier.shape[0], carrier.shape[0]), expected)
        flipped, carrier2 = mu_action(data, flipped=True)
        assert flipped.tensor == action.tensor


def test_flipped_mu_action_on_sweedler_conjugates_x_to_minus_x(CA4):
    G = canonical_map(CA4)
    action, carrier = mu_action(G, flipped=True)
    assert carrier.shape[0] == 4
    # x . g = -x with basis order 1, x, g, gx
    assert action.tensor.get((2, 1, 1)) == Q.coerce(-1)


def test_flipped_mu_action_requires_central_coinvariants():
    CA = _sign_graded_s3()
    B = coinvariants(CA)
    assert B.shape[0] == 3  # the even permutations
    data = canonical_map(CA)
    assert data.bijective
    with pytest.raises(InputError):
        mu_action(data, flipped=True)
    # the standard action still works, on the centralizer of the even span
    action, carrier = mu_action(data, flipped=False)
    assert carrier.shape[0] >= 1


def test_sign_graded_group_algebra_mu_action_is_yd():
    # continues the previous construction: standard action + coaction is
    # compatible in the plain sense on the centralizer
    CA = _sign_graded_s3()
    data = canonical_map(CA)
    action, carrier = mu_action(data, flipped=False)
    co = CoactionStructure("right", carrier.shape[0], restrict_coaction(CA, carrier))
    M = TwoSidedStructure(CA.H, action, co)
    assert check_yd(M).passed


def test_sandwich_is_well_defined_on_every_relation_over_the_centralizer():
    CA = _sign_graded_s3()
    data = canonical_map(CA)
    carrier = centralizer(CA, data.b_basis)
    assert data.rel.relations.shape[0] == 24 and carrier.shape[0] == 4
    assert check_sandwich(CA, data.rel, carrier).passed


def test_reversed_sandwich_over_all_of_p_fails_at_the_first_relation_and_vector():
    CA = _sign_graded_s3()
    data = canonical_map(CA)
    carrier = Tensor.identity(Q, 6)
    r = check_sandwich(CA, data.rel, carrier, reverse=True)
    # dense scan: relation row sum c u (x) v sends e_z to sum c v e_z u
    mult = dense(CA.P.mult)
    images = []
    for ri, row in enumerate(dense(data.rel.relations)):
        for z in range(6):
            out = [Q.zero] * 6
            for t, c in enumerate(row):
                if c:
                    a, b = divmod(t, 6)
                    for x in range(6):
                        for l in range(6):
                            out[l] += c * mult[b][z][x] * mult[x][a][l]
            if any(out):
                images.append(((ri, z), out))
    assert len(images) == 72  # of 24 x 6 products
    assert not r.passed and r.axiom == "sandwich-well-defined"
    assert (r.witness, dense(r.lhs), dense(r.rhs)) == (*images[0], [Q.zero] * 6)


def test_make_sayd_prop5_on_builtins():
    from hayd.suite import BUILTINS

    for name, factory in BUILTINS.items():
        H = factory()
        M = make_sayd_prop5(comodule_algebra_from_hopf(H))
        assert M.case == "rr"
        assert check_ayd(M).passed, name
        assert check_stability(M).passed, name


def test_quotient_galois_extension_with_bigger_coinvariants():
    # functions on C4 as a comodule algebra over functions on the subgroup
    # {0, 2}: the coaction is dual to translation, coinvariants have dim 2
    C4 = cyclic(4)
    C2 = cyclic(2)
    H = function_algebra(C2)
    P = FinAlgebra(
        Q,
        Tensor(Q, (4, 4, 4), {(a, a, a): Q.one for a in range(4)}),
        Tensor(Q, (4,), {(a,): Q.one for a in range(4)}),
    )
    sub = [0, 2]  # the copy of C2 inside C4
    entries = {}
    for y in range(4):
        for n_pos, n in enumerate(sub):
            g = (y - n) % 4
            entries[(y, g, n_pos)] = Q.one
    CA = ComoduleAlgebra(P, H, CoactionStructure("right", 4, Tensor(Q, (4, 4, 2), entries)))
    B = coinvariants(CA)
    assert B.shape[0] == 2
    rel = relative_tensor(CA, B)
    assert rel.dim == 8  # 4 . dim H
    assert not rel.relations.is_zero()
    data = canonical_map(CA)
    assert data.bijective
    M = make_sayd_prop5(CA)
    assert check_ayd(M).passed and check_stability(M).passed
    # commutative, so the flipped action is the counit action
    f = Q
    expected = {}
    for (i,), c in H.counit.entries.items():
        for a in range(4):
            expected[(i, a, a)] = c
    assert M.action.tensor == Tensor(f, (2, 4, 4), expected)


def test_restrict_coaction_rejects_a_span_that_is_not_a_subcomodule(CA4):
    # coproduct(x) = x (x) 1 + g (x) x: the h = x slice of the coaction of x is g
    x = Tensor.basis(Q, (4,), (1,))
    with pytest.raises(CheckFailedError) as info:
        restrict_coaction(CA4, x.reshape((1, 4)))
    r = info.value.report
    assert (r.axiom, r.witness, r.lhs) == ("centralizer-subcomodule", (0, 1), x)
    assert restrict_coaction(CA4, Tensor.identity(Q, 4)) == CA4.coaction.tensor
