import pytest

from hayd.ayd import entwining_map, one_dim_module
from hayd.double import _generators, build_ah, build_double, build_double_hopf
from hayd.errors import GuardError, InputError
from hayd.galois import hopf_galois_data
from hayd.fields import prime_field, rationals
from hayd.groups import Group, cyclic, symmetric
from hayd.hopf import (
    antipode_inverse,
    check_element,
    dual_hopf,
    find_characters,
    find_group_likes,
    function_algebra,
    group_algebra,
    iterated_coproduct,
    sweedler,
    taft,
    variant,
    verify_hopf_axioms,
    FinHopfAlgebra,
)
from hayd.reps import CoactionStructure, regular_action, verify_action, verify_coaction
from hayd.tensor import Tensor

from helpers import dense, first_hopf_violation, naive_hopf_axioms

Q = rationals()


@pytest.fixture(scope="module")
def H4():
    return sweedler()


def test_group_algebra_c2_passes_by_independent_brute_force():
    H = group_algebra(cyclic(2))
    assert verify_hopf_axioms(H).passed
    assert naive_hopf_axioms(H) == []
    assert H.dim == 2
    assert H.mult == H.mult.transpose((1, 0, 2))       # commutative
    assert H.comult == H.comult.transpose((0, 2, 1))   # cocommutative


def test_taft3_passes_by_independent_brute_force():
    H = taft(3, prime_field(7), 2)  # 2^3 = 8 = 1 mod 7
    assert verify_hopf_axioms(H).passed
    assert naive_hopf_axioms(H) == []


def test_sweedler_with_identity_antipode_fails_at_antipode_axiom(H4):
    broken = FinHopfAlgebra(
        H4.field, H4.mult, H4.unit, H4.comult, H4.counit,
        Tensor.identity(H4.field, 4), basis_names=H4.basis_names,
    )
    report = verify_hopf_axioms(broken)
    assert not report.passed
    assert report.axiom == "antipode"
    # basis order is 1, x, g, gx: the first violating element is x
    assert report.witness == (1,)


def test_antipode_squared_is_not_identity_on_sweedler(H4):
    s2 = H4.antipode.contract(H4.antipode, [(1, 0)])
    # S^2(x) = -x, frozen from the structure tables
    assert s2.get((1, 1)) == Q.coerce(-1)
    assert s2 != Tensor.identity(Q, 4)


def test_antipode_inverse_of_group_algebra_is_antipode():
    H = group_algebra(symmetric(3))
    assert antipode_inverse(H) == H.antipode


def test_antipode_inverse_of_sweedler_is_cube(H4):
    s = H4.antipode
    s3 = s.contract(s, [(1, 0)]).contract(s, [(1, 0)])
    assert antipode_inverse(H4) == s3
    assert antipode_inverse(H4) != s
    both = s.contract(antipode_inverse(H4), [(1, 0)])
    assert both == Tensor.identity(Q, 4)


def test_antipode_inverse_of_singular_matrix_is_an_error(H4):
    broken = FinHopfAlgebra(
        H4.field, H4.mult, H4.unit, H4.comult, H4.counit,
        Tensor(Q, (4, 4), {(i, 0): Q.one for i in range(4)}),
        basis_names=H4.basis_names,
    )
    with pytest.raises(InputError):
        antipode_inverse(broken)
    report = verify_hopf_axioms(broken)
    assert not report.passed


def test_iterated_coproduct_k1_is_identity(H4):
    assert iterated_coproduct(H4, 1) == Tensor.identity(Q, 4)


def test_iterated_coproduct_is_bracketing_independent(H4):
    t3 = iterated_coproduct(H4, 3)
    # expand the first leg instead of the last; coassociativity makes it equal
    other = H4.comult.contract(H4.comult, [(1, 0)]).transpose((0, 2, 3, 1))
    assert t3 == other


def test_iterated_coproduct_rejects_k_below_one(H4):
    with pytest.raises(InputError):
        iterated_coproduct(H4, 0)


def test_variant_rejects_unknown_name(H4):
    with pytest.raises(InputError):
        variant(H4, "co-op")


def test_iterated_coproduct_of_group_like_is_diagonal():
    H = group_algebra(cyclic(3))
    t = iterated_coproduct(H, 3)
    assert t == Tensor(Q, (3, 3, 3, 3), {(i, i, i, i): Q.one for i in range(3)})


def test_iterated_coproduct_of_x_in_sweedler(H4):
    # coproduct(x) = x (x) 1 + g (x) x with basis order 1, x, g, gx
    t = iterated_coproduct(H4, 2)
    x_row = {k[1:]: v for k, v in t.entries.items() if k[0] == 1}
    assert x_row == {(1, 0): Q.one, (2, 1): Q.one}


def test_dual_of_group_algebra_is_function_algebra_built_independently():
    G = symmetric(3)
    H = group_algebra(G)
    D = dual_hopf(H)
    n = len(G)
    # independent construction of the function Hopf algebra on G
    mult = Tensor(Q, (n, n, n), {(i, i, i): Q.one for i in range(n)})
    unit = Tensor(Q, (n,), {(i,): Q.one for i in range(n)})
    comult = Tensor(
        Q, (n, n, n),
        {(G.mul(a, b), a, b): Q.one for a in range(n) for b in range(n)},
    )
    counit = Tensor(Q, (n,), {(G.identity,): Q.one})
    antipode = Tensor(Q, (n, n), {(i, G.inverse(i)): Q.one for i in range(n)})
    assert D.mult == mult
    assert D.unit == unit
    assert D.comult == comult
    assert D.counit == counit
    assert D.antipode == antipode
    assert function_algebra(G).mult == mult


def test_double_dual_is_identity_entrywise(H4):
    DD = dual_hopf(dual_hopf(H4))
    assert DD.mult == H4.mult and DD.comult == H4.comult
    assert DD.unit == H4.unit and DD.counit == H4.counit and DD.antipode == H4.antipode
    assert DD.dim == H4.dim


def test_variant_op_is_involutive(H4):
    back = variant(variant(H4, "op"), "op")
    assert back.mult == H4.mult and back.comult == H4.comult
    assert back.antipode == H4.antipode


def test_variant_cop_of_cocommutative_group_algebra_is_same():
    H = group_algebra(cyclic(3))
    v = variant(H, "cop")
    assert v.comult == H.comult and v.mult == H.mult and v.antipode == H.antipode


def test_variant_op_antipode_is_inverse(H4):
    assert variant(H4, "op").antipode == antipode_inverse(H4)
    assert variant(H4, "op_cop").antipode == H4.antipode


def test_dual_of_op_is_cop_of_dual(H4):
    left = dual_hopf(variant(H4, "op"))
    right = variant(dual_hopf(H4), "cop")
    assert left.mult == right.mult and left.comult == right.comult
    assert left.antipode == right.antipode


def test_taft_wrong_order_zeta_rejected():
    with pytest.raises(InputError):
        taft(3, prime_field(7), 6)  # 6 = -1 has order 2, not 3
    with pytest.raises(InputError):
        taft(2, prime_field(7), 2)  # 2 has order 3, not 2


def test_taft_zeta_4_has_order_3_and_passes():
    H = taft(3, prime_field(7), 4)  # 4^3 = 64 = 1 mod 7
    assert verify_hopf_axioms(H).passed


@pytest.mark.parametrize("n, p, zeta", [(5, 11, 3), (6, 7, 3)])
def test_taft_builds_past_n_4(n, p, zeta):
    # the factory proves its closed-form coproduct and antipode
    # (by_construction), here with zeta-binomials [b k] for b up to n - 1
    H = taft(n, prime_field(p), zeta)
    assert H.verified and H.dim == n * n


def test_non_group_cayley_table_rejected():
    with pytest.raises(InputError):
        Group([[0, 1], [1, 1]])  # not a latin square / no inverses
    with pytest.raises(InputError):
        Group([[1, 0], [0, 0]], identity=0)  # wrong identity index


def test_check_element_group_likes_and_characters(H4):
    one = H4.unit
    g = H4.basis_vector(2)
    x = H4.basis_vector(1)
    assert check_element(H4, one, "group_like")
    assert check_element(H4, g, "group_like")
    assert not check_element(H4, x, "group_like")
    assert check_element(H4, H4.counit, "character")
    sign = Tensor(Q, (4,), {(0,): Q.one, (2,): Q.coerce(-1)})
    assert check_element(H4, sign, "character")
    assert not check_element(H4, H4.basis_vector(0), "character")


def test_find_group_likes_kc2_over_f3_by_independent_enumeration():
    f3 = prime_field(3)
    H = group_algebra(cyclic(2), f3)
    found = find_group_likes(H)
    expected = {((0,), 1), ((1,), 1)}  # exactly the basis elements 1 and g
    assert {tuple(sorted(v.entries.items()))[0] for v in found} == expected
    assert all(len(v.entries) == 1 for v in found)
    # oracle: enumerate all 9 vectors with dense loops
    oracle = []
    for a in range(3):
        for b in range(3):
            v = Tensor(f3, (2,), {(0,): a, (1,): b})
            cop = v.contract(H.comult, [(0, 0)])
            if cop == v.contract(v, []) and v.contract(H.counit, [(0, 0)]).get(()) == 1:
                oracle.append(v)
    assert sorted(tuple(sorted(v.entries.items())) for v in oracle) == sorted(
        tuple(sorted(v.entries.items())) for v in found
    )


def test_find_group_likes_sweedler_over_f5():
    H = sweedler(prime_field(5))
    found = find_group_likes(H)
    for v in found:
        assert check_element(H, v, "group_like")
    supports = sorted(tuple(sorted(v.entries)) for v in found)
    assert supports == [((0,),), ((2,),)]  # exactly 1 and g
    assert all(c == 1 for v in found for c in v.entries.values())


def test_find_group_likes_guard_over_rationals():
    with pytest.raises(GuardError):
        find_group_likes(group_algebra(cyclic(2)))


def test_find_group_likes_guard_on_big_prime_field():
    H = taft(3, prime_field(7), 2)  # 7^9 vectors is past the guard
    with pytest.raises(GuardError):
        find_group_likes(H)


def test_find_characters_via_dual():
    f5 = prime_field(5)
    H = group_algebra(cyclic(2), f5)
    chars = find_characters(H)
    assert len(chars) == 2
    for c in chars:
        assert check_element(H, c, "character")


def test_antipode_is_antialgebra_map_on_all_builtins():
    from hayd.suite import BUILTINS

    for name, factory in BUILTINS.items():
        H = factory()

        def mul(x, y):
            return x.contract(H.mult, [(0, 0)]).contract(y, [(0, 0)])

        def S(x):
            return x.contract(H.antipode, [(0, 0)])

        for i in range(H.dim):
            for j in range(H.dim):
                ei, ej = H.basis_vector(i), H.basis_vector(j)
                assert S(mul(ei, ej)) == mul(S(ej), S(ei)), (name, i, j)


def _single_entry_corruptions():
    """Every nonzero constant of the builtins' five structure tensors, doubled
    (over F_p: 2c mod p, or 1 if that is 0), one at a time."""
    from hayd.suite import BUILTINS

    labels = ("mult", "unit", "comult", "counit", "antipode")
    for name, factory in sorted(BUILTINS.items()):
        H = factory()
        f = H.field
        for label in labels:
            tensor = getattr(H, label)
            for idx, c in sorted(tensor.entries.items()):
                bad = f.add(c, c) if f.p is None else (2 * c) % f.p or 1
                data = {key: getattr(H, key) for key in labels}
                data[label] = Tensor(f, tensor.shape, {**tensor.entries, idx: bad})
                yield (name, label, idx), FinHopfAlgebra(f, name=H.name, **data)


def test_hopf_witness_matches_dense_oracle_on_every_single_entry_corruption():
    count = 0
    for case, C in _single_entry_corruptions():
        count += 1
        r = verify_hopf_axioms(C)
        want = first_hopf_violation(C)
        if want is None:
            assert r.passed or r.axiom == "antipode-invertible", case
            continue
        assert not r.passed, case
        assert (r.axiom, r.witness, dense(r.lhs), dense(r.rhs)) == want, case
    assert count == 261


# -- the verify-or-raise gate and the per-H memo ----------------------------------

# each call over a Hopf algebra B, with H4 (sweedler-2) supplying well-shaped data
GATED = {
    "build_ah": lambda B, H: build_ah(B),
    "build_double": lambda B, H: build_double(B),
    "build_double_hopf": lambda B, H: build_double_hopf(B),
    "dual_hopf": lambda B, H: dual_hopf(B),
    "variant": lambda B, H: variant(B, "op"),
    "iterated_coproduct": lambda B, H: iterated_coproduct(B, 3),
    "antipode_inverse": lambda B, H: antipode_inverse(B),
    "check_element": lambda B, H: check_element(B, H.unit, "group_like"),
    "hopf_galois_data": lambda B, H: hopf_galois_data(B),
    "verify_action": lambda B, H: verify_action(B, regular_action(H, "left")),
    "verify_coaction": lambda B, H: verify_coaction(B, CoactionStructure("right", 4, H.comult)),
    "entwining_map": lambda B, H: entwining_map(B, "ayd"),
    "one_dim_module": lambda B, H: one_dim_module(B, H.counit, H.unit),
}


@pytest.mark.parametrize("name", sorted(GATED))
def test_every_build_and_check_over_h_passes_the_gate(name, H4):
    broken = FinHopfAlgebra(
        H4.field, H4.mult, H4.unit, H4.comult, H4.counit,
        Tensor.identity(H4.field, 4), basis_names=H4.basis_names,
    )
    with pytest.raises(InputError, match=r"fails 'antipode' at \(1,\); supply a valid Hopf"):
        GATED[name](broken, H4)
    assert GATED[name](H4, H4) is not None


def test_the_gate_names_its_label_and_returns_h(H4):
    assert H4.require_verified("target x") is H4
    broken = FinHopfAlgebra(
        H4.field, H4.mult, H4.unit, H4.comult, H4.counit,
        Tensor.identity(H4.field, 4), basis_names=H4.basis_names, name="B",
    )
    with pytest.raises(InputError, match=r"^target x fails 'antipode' at \(1,\)"):
        broken.require_verified("target x")
    with pytest.raises(InputError, match=r"^FinHopfAlgebra\(B, dim=4, field=Q\) fails"):
        broken.require_verified()


@pytest.mark.parametrize("build, args", [
    (iterated_coproduct, (3,)), (dual_hopf, ()), (_generators, ()), (build_ah, ()),
    (build_double, ()), (build_double_hopf, ()), (hopf_galois_data, ()),
], ids=lambda x: getattr(x, "__name__", ""))
def test_a_derived_build_is_made_once_per_h(build, args):
    H = sweedler()
    first = build(H, *args)
    assert build(H, *args) is first
    assert build(sweedler(), *args) is not first
