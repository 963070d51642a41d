import random
from fractions import Fraction

import pytest

from hayd.errors import ShapeError
from hayd.fields import prime_field, rationals
from hayd.groups import cyclic
from hayd.hopf import (
    FinHopfAlgebra,
    dual_hopf,
    group_algebra,
    sweedler,
    taft,
    variant,
    verify_hopf_axioms,
)
from hayd.reps import (
    ActionStructure,
    CoactionStructure,
    comodule_to_dual_action,
    comult_coaction,
    dual_action_to_comodule,
    regular_action,
    trivial_action,
    trivial_coaction,
    verify_action,
    verify_coaction,
)
from hayd.tensor import Tensor, invert_matrix, matrix_rank

Q = rationals()
F7 = prime_field(7)


def _typed(t):
    """The entries of t with each scalar's type, so a pin tells 1 from Fraction(1)."""
    return {idx: (type(c), c) for idx, c in t.entries.items()}


def test_regular_action_passes():
    H = sweedler()
    assert verify_action(H, regular_action(H, "left")).passed
    assert verify_action(H, regular_action(H, "right")).passed


def test_trivial_action_passes():
    H = group_algebra(cyclic(3))
    assert verify_action(H, trivial_action(H, 2, "left")).passed
    assert verify_action(H, trivial_action(H, 5, "right")).passed


def test_action_with_wrong_unit_fails_with_witness():
    H = group_algebra(cyclic(2))
    t = Tensor(Q, (2, 3, 3), {(0, a, a): Q.coerce(2) for a in range(3)})
    r = verify_action(H, ActionStructure("left", 3, t))
    assert not r.passed
    assert r.axiom == "action-unit"
    assert r.witness == (0,)


def test_comult_coaction_passes_both_sides():
    H = sweedler()
    assert verify_coaction(H, comult_coaction(H, "right")).passed
    assert verify_coaction(H, comult_coaction(H, "left")).passed


def test_trivial_coaction_passes():
    H = sweedler()
    assert verify_coaction(H, trivial_coaction(H, 3, "left")).passed
    assert verify_coaction(H, trivial_coaction(H, 3, "right")).passed


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_trivial_structures_pin_entries_and_scalar_types(dim):
    # sweedler-2 over Q has counit 1 on 1 and g (basis 0, 2); taft(3) over F_7
    # has counit 1 on 1, g, g^2 (basis 0, 3, 6); both units are basis 0
    one_q, one_7 = (int, 1), (int, 1)
    for H, counit_support, one in ((sweedler(), (0, 2), one_q),
                                   (taft(3, F7, 2), (0, 3, 6), one_7)):
        n = H.dim
        for side in ("left", "right"):
            A = trivial_action(H, dim, side)
            assert (A.side, A.dim, A.tensor.shape) == (side, dim, (n, dim, dim))
            assert _typed(A.tensor) == {(i, a, a): one for i in counit_support
                                        for a in range(dim)}
        C = trivial_coaction(H, dim, "left")
        assert (C.side, C.dim, C.tensor.shape) == ("left", dim, (dim, n, dim))
        assert _typed(C.tensor) == {(a, 0, a): one for a in range(dim)}
        C = trivial_coaction(H, dim, "right")
        assert (C.side, C.dim, C.tensor.shape) == ("right", dim, (dim, dim, n))
        assert _typed(C.tensor) == {(a, a, 0): one for a in range(dim)}


def test_dual_basis_conversions_pin_entries_and_scalar_types():
    H = sweedler()
    lam = Tensor(Q, (2, 2, 4), {(0, 1, 2): 3, (1, 0, 3): "1/2"})
    A = comodule_to_dual_action(H, CoactionStructure("right", 2, lam))
    assert (A.side, A.dim, A.tensor.shape) == ("left", 2, (4, 2, 2))
    assert _typed(A.tensor) == {(2, 0, 1): (int, 3),
                                (3, 1, 0): (Fraction, Fraction(1, 2))}
    C = dual_action_to_comodule(H, A)
    assert (C.side, C.dim, C.tensor.shape) == ("right", 2, (2, 2, 4))
    assert _typed(C.tensor) == {(0, 1, 2): (int, 3),
                                (1, 0, 3): (Fraction, Fraction(1, 2))}
    T = taft(3, F7, 2)
    act = Tensor(F7, (9, 2, 2), {(4, 1, 0): 5, (8, 0, 0): 6})
    C = dual_action_to_comodule(T, ActionStructure("left", 2, act))
    assert (C.side, C.dim, C.tensor.shape) == ("right", 2, (2, 2, 9))
    assert _typed(C.tensor) == {(1, 0, 4): (int, 5), (0, 0, 8): (int, 6)}
    A = comodule_to_dual_action(T, C)
    assert (A.side, A.dim, A.tensor.shape) == ("left", 2, (9, 2, 2))
    assert _typed(A.tensor) == {(4, 1, 0): (int, 5), (8, 0, 0): (int, 6)}


def test_coaction_violating_counit_law_fails():
    H = group_algebra(cyclic(2))
    t = Tensor(Q, (1, 2, 1), {(0, 0, 0): Q.coerce(2)})  # scaled unit tag
    r = verify_coaction(H, CoactionStructure("left", 1, t))
    assert not r.passed
    assert r.axiom == "coaction-counit"
    assert r.witness == (0,)


def test_trivial_coaction_converts_to_evaluation_at_one():
    H = group_algebra(cyclic(2))
    C = trivial_coaction(H, 3, "right")
    A = comodule_to_dual_action(H, C)
    # phi . m = phi(1) m: only the dual-basis element at the identity acts
    assert A.tensor == Tensor(Q, (2, 3, 3), {(0, a, a): Q.one for a in range(3)})
    assert verify_action(dual_hopf(H), A).passed


def test_comult_coaction_converts_to_function_algebra_multiplication():
    H = group_algebra(cyclic(2))
    D = dual_hopf(H)
    A = comodule_to_dual_action(H, comult_coaction(H, "right"))
    assert verify_action(D, A).passed
    # entrywise: the dual action on H is multiplication in the function algebra
    assert A.tensor == D.mult


def test_round_trips_are_identity_on_structure_constants():
    from hayd.suite import BUILTINS

    for name, factory in BUILTINS.items():
        H = factory()
        C = comult_coaction(H, "right")
        A = comodule_to_dual_action(H, C)
        C2 = dual_action_to_comodule(H, A)
        assert C2.tensor == C.tensor, name
        A2 = comodule_to_dual_action(H, C2)
        assert A2.tensor == A.tensor, name
        assert C2.dim == C.dim


def test_regular_dual_action_converts_to_comodule():
    H = group_algebra(cyclic(2))
    D = dual_hopf(H)
    A = regular_action(D, "left")
    C = dual_action_to_comodule(H, ActionStructure("left", D.dim, A.tensor))
    assert verify_coaction(H, C).passed
    # the coaction dual to multiplication in the dual is the comultiplication
    assert C.tensor == D.mult.transpose((1, 2, 0))


def _transform_hopf(H, P):
    """Change of basis e'_i = sum_j P[i,j] e_j on every structure tensor."""
    Pinv = invert_matrix(P)
    mult = P.contract(P.contract(H.mult, [(1, 1)]), [(1, 1)])  # (i, j, old-out)
    mult = mult.contract(Pinv, [(2, 0)])
    unit = H.unit.contract(Pinv, [(0, 0)])
    comult = P.contract(H.comult, [(1, 0)])    # (i, old-left, old-right)
    comult = comult.contract(Pinv, [(1, 0)])   # (i, old-right, new-left)
    comult = comult.contract(Pinv, [(1, 0)])   # (i, new-left, new-right)
    counit = P.contract(H.counit, [(1, 0)])
    antipode = P.contract(H.antipode, [(1, 0)]).contract(Pinv, [(1, 0)])
    return FinHopfAlgebra(H.field, mult, unit, comult, counit, antipode)


def test_dual_basis_expansion_is_basis_independent():
    f5 = prime_field(5)
    H = group_algebra(cyclic(2), f5)
    rng = random.Random(11)
    while True:
        P = Tensor(
            f5, (2, 2), {(i, j): rng.randrange(5) for i in range(2) for j in range(2)}
        )
        if matrix_rank(P) == 2:
            break
    H2 = _transform_hopf(H, P)
    assert verify_hopf_axioms(H2).passed
    Pinv = invert_matrix(P)
    # graded module with a fixed basis; only the Hopf basis changes
    lam = Tensor(f5, (2, 2, 2), {(0, 0, 1): 1, (1, 1, 0): 1})
    C = CoactionStructure("right", 2, lam)
    assert verify_coaction(H, C).passed
    A = comodule_to_dual_action(H, C)
    # the dual basis transforms contragradiently
    A2_tensor = Pinv.contract(A.tensor, [(0, 0)])
    C2 = dual_action_to_comodule(H2, ActionStructure("left", 2, A2_tensor))
    # expected coaction: original with its Hopf leg rewritten in the new basis
    expected = C.tensor.contract(Pinv, [(2, 0)])
    assert C2.tensor == expected
    assert verify_coaction(H2, C2).passed


def test_conversion_shape_guards():
    H = group_algebra(cyclic(2))
    C = comult_coaction(H, "left")
    with pytest.raises(Exception):
        comodule_to_dual_action(H, C)  # left coaction not accepted
    # a right coaction over another Hopf dimension is rejected, not relabelled
    C = CoactionStructure("right", 1, Tensor(Q, (1, 1, 2), {(0, 0, 0): 1}))
    with pytest.raises(ShapeError):
        comodule_to_dual_action(sweedler(), C)


def test_left_right_mirror_through_cop_variant():
    # a right coaction over H is a left coaction over the co-opposite
    H = sweedler()
    Hcop = variant(H, "cop")
    C = comult_coaction(H, "right")
    mirrored = CoactionStructure("left", H.dim, C.tensor.transpose((0, 2, 1)))
    assert verify_coaction(Hcop, mirrored).passed
