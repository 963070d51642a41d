from itertools import product

import pytest

from hayd.algebra import AlgebraModule
from hayd.ayd import check_ayd, check_yd, one_dim_module
from hayd import double
from hayd.double import (
    ah_double_coaction,
    ah_module_roundtrip,
    ah_module_to_ayd,
    ayd_to_ah_module,
    build_ah,
    build_double,
    build_double_hopf,
    yd_to_double_module,
)
from hayd.errors import CheckFailedError
from hayd.fields import prime_field, rationals
from hayd.galois import check_comodule_algebra
from hayd.groups import cyclic, symmetric
from hayd.hopf import (FinHopfAlgebra, group_algebra, sweedler, taft,
                       verify_hopf_axioms)
from hayd.reps import verify_coaction
from hayd.suite import BUILTINS
from hayd.tensor import Tensor

from helpers import entry_rows, graded_structure

Q = rationals()


@pytest.fixture(scope="module")
def H4():
    return sweedler()


def test_unit_of_product_space_is_counit_tensor_one():
    H = group_algebra(cyclic(3))
    A = build_ah(H)
    expected = {}
    for (i,), c in H.counit.entries.items():
        for (j,), u in H.unit.entries.items():
            expected[(i * 3 + j,)] = Q.mul(c, u)
    assert A.unit == Tensor(Q, (9,), expected)
    assert build_double(H).unit == A.unit


def test_trivial_hopf_gives_one_dimensional_product_space():
    H = group_algebra(cyclic(1))
    A = build_ah(H)
    assert A.dim == 1
    assert A.mult == Tensor(Q, (1, 1, 1), {(0, 0, 0): Q.one})


def test_dimension_is_square_of_hopf_dimension():
    for H in (group_algebra(cyclic(2)), sweedler(), taft(3, prime_field(7), 2)):
        assert build_ah(H).dim == H.dim**2


def test_ah_equals_double_exactly_when_antipode_squares_to_identity():
    for H in (group_algebra(cyclic(2)), group_algebra(symmetric(3))):
        assert build_ah(H).mult == build_double(H).mult
    H4 = sweedler()
    assert build_ah(H4).mult != build_double(H4).mult
    T = taft(3, prime_field(7), 2)
    assert build_ah(T).mult != build_double(T).mult


def test_counit_tensor_acts_as_plain_action(H4):
    # (counit (x) h) m = h m on any lr structure
    M = one_dim_module(H4, H4.counit, H4.basis_vector(2), "lr")
    assert check_ayd(M).passed
    V = ayd_to_ah_module(H4, M)
    n = H4.dim
    f = H4.field
    for j in range(n):
        lhs = {}
        for (i,), ce in H4.counit.entries.items():
            for (alpha, r, s), c in V.action.entries.items():
                if alpha == i * n + j:
                    lhs[(r, s)] = f.add(lhs.get((r, s), f.zero), f.mul(ce, c))
        lhs = {k: v for k, v in lhs.items() if not f.is_zero(v)}
        rhs = {
            (r, s): c for (jj, r, s), c in M.action.tensor.entries.items() if jj == j
        }
        assert lhs == rhs


def test_phi_tensor_one_acts_through_the_coaction(H4):
    # (phi (x) 1) m = phi(m-leg) m-rest
    M = one_dim_module(H4, H4.counit, H4.basis_vector(2), "lr")
    V = ayd_to_ah_module(H4, M)
    n = H4.dim
    f = H4.field
    for i in range(n):
        lhs = {}
        for (j,), cu in H4.unit.entries.items():
            for (alpha, r, s), c in V.action.entries.items():
                if alpha == i * n + j:
                    lhs[(r, s)] = f.add(lhs.get((r, s), f.zero), f.mul(cu, c))
        lhs = {k: v for k, v in lhs.items() if not f.is_zero(v)}
        rhs = {
            (r, s): c
            for (r, s, ii), c in M.coaction.tensor.entries.items()
            if ii == i
        }
        assert lhs == rhs


def test_trivial_lr_structure_converts_to_module_over_double(H4):
    triv = one_dim_module(H4, H4.counit, H4.unit, "lr")
    assert check_yd(triv).passed
    V = yd_to_double_module(H4, triv)
    assert V.dim == 1


def test_round_trip_on_adjoint_graded_s3():
    G = symmetric(3)
    H = group_algebra(G)
    M = graded_structure(H, G, list(range(6)), "lr")
    assert check_ayd(M).passed
    V = ayd_to_ah_module(H, M)
    M2 = ah_module_to_ayd(H, V)
    assert M2.action.tensor == M.action.tensor
    assert M2.coaction.tensor == M.coaction.tensor
    V2 = ayd_to_ah_module(H, M2)
    assert V2.action == V.action


def test_round_trip_on_regular_module_of_product_space():
    H = group_algebra(cyclic(2))
    A = build_ah(H)
    reg = AlgebraModule(A, A.mult)
    M = ah_module_to_ayd(H, reg)
    assert M.dim == 4
    assert check_ayd(M).passed
    back = ayd_to_ah_module(H, M)
    assert back.action == reg.action


@pytest.mark.parametrize("name", ["group-s3", "fun-s3", "sweedler-2", "taft-3-f7"])
def test_round_trip_scans_the_structure_once(monkeypatch, name):
    H = BUILTINS[name]()
    A = build_ah(H)
    reg = AlgebraModule(A, A.mult)
    calls = []

    def counted(M, **kwargs):
        calls.append((M, kwargs))
        return check_ayd(M, **kwargs)

    monkeypatch.setattr(double, "check_ayd", counted)
    back = ah_module_roundtrip(H, reg)
    assert len(calls) == 1 and back.algebra is A and back.action == reg.action
    # the one call proves the structure's laws too, on H's own generators
    assert calls[0][1] == {"with_laws": True}
    assert ayd_to_ah_module(H, calls[0][0]).action == back.action
    assert len(calls) == 2  # every other caller keeps the check


def test_round_trip_verifies_the_converted_action(monkeypatch, H4):
    # a module whose structure passes but whose conversion breaks the module
    # laws is refused, not returned
    A = build_ah(H4)
    reg = AlgebraModule(A, A.mult)
    zero = Tensor.zeros(A.field, reg.action.shape)
    monkeypatch.setattr(double, "_conversion_action", lambda H, M: zero)
    with pytest.raises(CheckFailedError) as err:
        ah_module_roundtrip(H4, reg)
    assert err.value.report.axiom == "module-unit"


def test_conversion_rejects_structures_failing_the_check(H4):
    bad = one_dim_module(H4, H4.counit, H4.unit, "lr")  # plain-compatible but not twisted
    assert not check_ayd(bad).passed
    with pytest.raises(CheckFailedError):
        ayd_to_ah_module(H4, bad)
    good = one_dim_module(H4, H4.counit, H4.basis_vector(2), "lr")
    with pytest.raises(CheckFailedError):
        yd_to_double_module(H4, good)


def test_characters_of_product_space_give_one_dim_modules():
    f5 = prime_field(5)
    H = group_algebra(cyclic(2), f5)
    A = build_ah(H)
    rows = entry_rows(A.mult, 2)
    chars = []
    for coords in product(range(5), repeat=4):
        chi = {i: c for i, c in enumerate(coords) if c}
        unit_val = sum(
            u * chi.get(i, 0) for (i,), u in A.unit.entries.items()
        ) % 5
        if unit_val != 1:
            continue
        good = True
        for a in range(4):
            for b in range(4):
                prod_val = 0
                for k, c in rows.get((a, b), ()):
                    prod_val = (prod_val + c * chi.get(k, 0)) % 5
                if prod_val != (chi.get(a, 0) * chi.get(b, 0)) % 5:
                    good = False
                    break
            if not good:
                break
        if good:
            chars.append(chi)
    assert len(chars) == 4  # evaluations x group characters
    for chi in chars:
        act = Tensor(f5, (4, 1, 1), {(alpha, 0, 0): c for alpha, c in chi.items()})
        V = AlgebraModule(A, act)
        M = ah_module_to_ayd(H, V)
        assert M.dim == 1 and check_ayd(M).passed


def test_group_algebra_conversions_agree_between_both_products():
    G = cyclic(3)
    H = group_algebra(G)
    M = graded_structure(H, G, [0, 1, 2], "lr")
    assert check_ayd(M).passed and check_yd(M).passed
    V_ah = ayd_to_ah_module(H, M)
    V_d = yd_to_double_module(H, M)
    assert V_ah.action == V_d.action


def test_conversion_separates_the_two_products_on_taft3():
    # over taft(3) exactly half the one-dimensional lr structures satisfy each
    # compatibility; the induced action is a module over the matching product
    # space and fails associativity over the other
    from hayd.double import _conversion_action

    T = taft(3, prime_field(7), 2)
    f = T.field
    A, D = build_ah(T), build_double(T)
    chars = [
        Tensor(f, (9,), {(a * 3,): pow(2, j * a, 7) for a in range(3)})
        for j in range(3)
    ]
    seen_ayd = seen_yd = 0
    for delta in chars:
        for a in range(3):
            M = one_dim_module(T, delta, T.basis_vector(a * 3), "lr")
            act = _conversion_action(T, M)
            over_a = AlgebraModule(A, act, check=False).verify().passed
            over_d = AlgebraModule(D, act, check=False).verify().passed
            assert over_a == check_ayd(M).passed
            assert over_d == check_yd(M).passed
            seen_ayd += over_a
            seen_yd += over_d
    assert seen_ayd == 3 and seen_yd == 3


def test_double_hopf_passes_axioms_on_all_builtins():
    from hayd.suite import BUILTINS

    for name, factory in BUILTINS.items():
        D = build_double_hopf(factory())
        assert D.verified, name
        # the builder skips the algebra axioms; a from-scratch scan of the same
        # five tensors must agree, so the split drops no axiom
        fresh = FinHopfAlgebra(D.field, D.mult, D.unit, D.comult, D.counit, D.antipode)
        assert verify_hopf_axioms(fresh).passed and fresh.verified, name


def test_build_double_hopf_scans_the_double_product_once(monkeypatch):
    from hayd import identity

    scanned = []
    real = identity._first_failure
    monkeypatch.setattr(identity, "_first_failure",
                        lambda group: scanned.append(group) or real(group))
    D = build_double_hopf(sweedler())
    on_d = [[ident.label for ident in group] for group in scanned
            if any(t is D.mult for ident in group for t, _ in ident.lhs)]
    # associativity (on the generators) and the two unit laws, once each;
    # the Hopf identities that also read the product come after them
    assert on_d[:2] == [["associativity"], ["unit", "unit"]]
    assert not {"associativity", "unit"} & {label for group in on_d[2:] for label in group}


def test_double_coaction_is_comodule_algebra_on_all_builtins():
    from hayd.suite import BUILTINS

    for name, factory in BUILTINS.items():
        H = factory()
        lam = ah_double_coaction(H)
        r = check_comodule_algebra(build_ah(H), build_double_hopf(H), lam)
        assert r.passed, name


def test_double_coaction_counit_law_entrywise_on_kc2():
    H = group_algebra(cyclic(2))
    D = build_double_hopf(H)
    lam = ah_double_coaction(H)
    assert verify_coaction(D, lam).passed
    # applying the counit of the double to the coaction leg gives the identity
    f = H.field
    acc = {}
    for (a, b, i), c in lam.tensor.entries.items():
        e = D.counit.get((i,))
        if not f.is_zero(e):
            acc[(a, b)] = f.add(acc.get((a, b), f.zero), f.mul(c, e))
    acc = {k: v for k, v in acc.items() if not f.is_zero(v)}
    assert acc == {(a, a): f.one for a in range(4)}


def test_trivial_hopf_gives_trivial_double_coaction():
    H = group_algebra(cyclic(1))
    lam = ah_double_coaction(H)
    assert lam.tensor == Tensor(Q, (1, 1, 1), {(0, 0, 0): Q.one})
