import random

import pytest

from hayd.errors import ShapeError, SingularMatrixError
from hayd.fields import prime_field, rationals
from hayd.groups import cyclic
from hayd.hopf import group_algebra
from hayd.tensor import (
    SpanSolver,
    Tensor,
    contract,
    invert_matrix,
    kernel_rows,
    matrix_rank,
)

from helpers import dense, dense_contract

F5 = prime_field(5)
Q = rationals()


def random_tensor(rng, field, shape, density=0.5):
    entries = {}
    from itertools import product

    for idx in product(*(range(d) for d in shape)):
        if rng.random() < density:
            entries[idx] = field.coerce(rng.randrange(field.p))
    return Tensor(field, shape, entries)


def test_entries_normalized_and_equality():
    t = Tensor(Q, (2, 2), {(0, 0): Q.coerce(0), (1, 1): Q.coerce(3)})
    assert (0, 0) not in t.entries
    assert t == Tensor(Q, (2, 2), {(1, 1): Q.coerce(3)})
    assert t != Tensor(Q, (2, 2), {(1, 1): Q.coerce(2)})


def test_out_of_range_index_rejected():
    with pytest.raises(ShapeError):
        Tensor(Q, (2,), {(2,): Q.one})


def test_reshape_is_row_major_and_round_trips():
    rng = random.Random(3)
    t = random_tensor(rng, F5, (2, 3, 4))
    merged = t.reshape((6, 4))
    assert merged.shape == (6, 4)
    assert all(merged.get((i * 3 + j, k)) == c for (i, j, k), c in t.entries.items())
    assert len(merged.entries) == len(t.entries)
    for shape in [(24,), (2, 12), (4, 3, 2), (1, 24, 1)]:
        assert t.reshape(shape).reshape((2, 3, 4)) == t
    scalar = Tensor(Q, (), {(): Q.coerce(3)})
    assert scalar.reshape((1, 1)).get((0, 0)) == Q.coerce(3)


def test_reshape_rejects_a_size_mismatch():
    t = Tensor.identity(Q, 3)
    with pytest.raises(ShapeError):
        t.reshape((2, 4))
    with pytest.raises(ShapeError):
        t.reshape((10,))


def test_boolean_index_rejected():
    for flag in (False, True):
        with pytest.raises(ShapeError):
            Tensor(Q, (2,), {(flag,): Q.one})


def test_contract_identity_composition():
    i2 = Tensor.identity(Q, 2)
    assert contract(i2, i2, [(1, 0)]) == i2


def test_contract_outer_product_shape():
    v = Tensor(Q, (2,), {(0,): Q.one, (1,): Q.coerce(2)})
    w = Tensor(Q, (3,), {(2,): Q.coerce(3)})
    out = contract(v, w, [])
    assert out.shape == (2, 3)
    assert out.get((1, 2)) == Q.coerce(6)


def test_contract_counit_law_on_group_algebra():
    # independent oracle: dense loops compute sum_j comult[i,j,k] counit[j]
    H = group_algebra(cyclic(2))
    got = contract(H.comult, H.counit, [(1, 0)])
    oracle = dense_contract(
        H.field, dense(H.comult), H.comult.shape, dense(H.counit), H.counit.shape, [(1, 0)]
    )
    assert got == oracle == Tensor.identity(H.field, 2)


def test_contract_matches_dense_oracle_on_random_tensors():
    rng = random.Random(20240817)
    for _ in range(25):
        sa = tuple(rng.choice((2, 3)) for _ in range(rng.choice((1, 2, 3))))
        sb = tuple(rng.choice((2, 3)) for _ in range(rng.choice((1, 2, 3))))
        a = random_tensor(rng, F5, sa)
        b = random_tensor(rng, F5, sb)
        pairs = []
        for ai, da in enumerate(sa):
            for bi, db in enumerate(sb):
                if da == db and not pairs and rng.random() < 0.6:
                    pairs.append((ai, bi))
        got = contract(a, b, pairs)
        want = dense_contract(F5, dense(a), sa, dense(b), sb, pairs)
        assert got == want


def test_contract_shape_mismatch_is_error():
    a = Tensor(Q, (2,), {(0,): Q.one})
    b = Tensor(Q, (3,), {(0,): Q.one})
    with pytest.raises(ShapeError):
        contract(a, b, [(0, 0)])


def test_contract_bilinear_over_f5():
    rng = random.Random(7)
    for _ in range(10):
        a1 = random_tensor(rng, F5, (3, 2))
        a2 = random_tensor(rng, F5, (3, 2))
        b = random_tensor(rng, F5, (2, 3))
        lhs = contract(a1 + a2, b, [(1, 0)])
        rhs = contract(a1, b, [(1, 0)]) + contract(a2, b, [(1, 0)])
        assert lhs == rhs
        c = F5.coerce(3)
        assert contract(a1.scale(c), b, [(1, 0)]) == contract(a1, b, [(1, 0)]).scale(c)


def test_contract_associative_under_compatible_pairings():
    rng = random.Random(99)
    for _ in range(10):
        a = random_tensor(rng, F5, (2, 3))
        b = random_tensor(rng, F5, (3, 2))
        c = random_tensor(rng, F5, (2, 3))
        left = contract(contract(a, b, [(1, 0)]), c, [(1, 0)])
        right = contract(a, contract(b, c, [(1, 0)]), [(1, 0)])
        assert left == right


def test_transpose_roundtrip():
    rng = random.Random(3)
    t = random_tensor(rng, F5, (2, 3, 2))
    assert t.transpose((1, 2, 0)).transpose((2, 0, 1)) == t


def test_invert_identity_and_swap():
    i3 = Tensor.identity(Q, 3)
    assert invert_matrix(i3) == i3
    swap = Tensor(Q, (2, 2), {(0, 1): Q.one, (1, 0): Q.one})
    assert invert_matrix(swap) == swap


def test_invert_singular_reports_rank():
    ones = Tensor(Q, (2, 2), {(i, j): Q.one for i in range(2) for j in range(2)})
    with pytest.raises(SingularMatrixError) as err:
        invert_matrix(ones)
    assert err.value.rank == 1


def test_invert_twice_is_identity_on_random_invertibles():
    rng = random.Random(123)
    found = 0
    while found < 10:
        m = random_tensor(rng, F5, (4, 4), density=0.7)
        if matrix_rank(m) < 4:
            continue
        found += 1
        inv = invert_matrix(m)
        assert invert_matrix(inv) == m
        assert contract(m, inv, [(1, 0)]) == Tensor.identity(F5, 4)


def test_invert_exact_over_rationals():
    m = Tensor.from_nested(Q, [[1, 2], [3, 5]])
    inv = invert_matrix(m)
    assert inv == Tensor.from_nested(Q, [[-5, 2], [3, -1]])


def test_kernel_rows():
    m = Tensor.from_nested(Q, [[1, 1], [1, 1], [0, 0]])
    basis = kernel_rows(m)
    assert len(basis) == 2
    for v in basis:
        assert contract(v, m, [(0, 0)]).is_zero()


def test_span_solver_coordinates():
    rows = [[Q.coerce(1), Q.coerce(0), Q.coerce(1)], [Q.coerce(0), Q.coerce(1), Q.coerce(1)]]
    solver = SpanSolver(Q, rows)
    coords = solver.coords([Q.coerce(2), Q.coerce(3), Q.coerce(5)])
    assert coords == [Q.coerce(2), Q.coerce(3)]
    assert solver.coords([Q.one, Q.zero, Q.zero]) is None
