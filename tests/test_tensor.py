import random
from fractions import Fraction
from itertools import product

import pytest

from hayd.errors import FieldError, ShapeError, SingularMatrixError
from hayd.fields import prime_field, rationals
from hayd.groups import cyclic
from hayd.hopf import group_algebra
from hayd.identity import evaluate
from hayd.tensor import (
    Tensor,
    closure,
    invert_matrix,
    kernel_rows,
    matrix_rank,
    span_coordinates,
)

from helpers import (
    dense,
    dense_contract,
    dense_inverse,
    dense_left_kernel,
    dense_rank,
    dense_span_coordinates,
)

F5 = prime_field(5)
F7 = prime_field(7)
Q = rationals()


def random_tensor(rng, field, shape, density=0.5):
    entries = {}
    for idx in product(*(range(d) for d in shape)):
        if rng.random() < density:
            entries[idx] = field.coerce(rng.randrange(field.p))
    return Tensor(field, shape, entries)


def test_entries_normalized_and_equality():
    t = Tensor(Q, (2, 2), {(0, 0): Q.coerce(0), (1, 1): Q.coerce(3)})
    assert (0, 0) not in t.entries
    assert t == Tensor(Q, (2, 2), {(1, 1): Q.coerce(3)})
    assert t != Tensor(Q, (2, 2), {(1, 1): Q.coerce(2)})


def test_equal_tensors_hash_equal_whatever_route_built_them():
    # the identity ledger finds a proof by hash, then confirms it by ==
    rng = random.Random(5)
    t = random_tensor(rng, F5, (2, 3, 2))
    routes = [
        Tensor.from_nested(F5, t.to_nested()),
        t.transpose((1, 2, 0)).transpose((2, 0, 1)),
        evaluate("ijk", [(t, "ijm"), (Tensor.identity(F5, 2), "mk")]),
        Tensor(F5, t.shape, {idx: c + 5 for idx, c in t.entries.items()}),
    ]
    for u in routes:
        assert u is not t and u == t and hash(u) == hash(t)
    q = Tensor(Q, (2, 2), {(0, 1): Fraction(3), (1, 0): Fraction(-1, 2)})
    for u in (
        Tensor(Q, (2, 2), {(0, 1): 3, (1, 0): "-1/2"}),
        Tensor(Q, (2, 2), {(0, 1): 3, (1, 0): Fraction(-1, 2)}, _normalized=True),  # an int entry
        Tensor.from_nested(Q, [[0, 3], ["-1/2", 0]]),
        evaluate("ij", [(q, "ji")]).transpose((1, 0)),
    ):
        assert u == q and hash(u) == hash(q)


def test_one_entry_the_field_or_the_shape_makes_tensors_unequal():
    t = Tensor(F7, (2, 2), {(0, 1): 3, (1, 1): 1})
    others = [
        Tensor(F7, (2, 2), {(0, 1): 4, (1, 1): 1}),
        Tensor(F7, (2, 2), {(0, 1): 3}),
        Tensor(F7, (2, 2), {(0, 1): 3, (1, 1): 1, (0, 0): 1}),
        Tensor(F7, (2, 2), {(1, 0): 3, (1, 1): 1}),
        Tensor(F5, (2, 2), {(0, 1): 3, (1, 1): 1}),
        Tensor(Q, (2, 2), {(0, 1): 3, (1, 1): 1}),
        Tensor(F7, (2, 3), {(0, 1): 3, (1, 1): 1}),
        Tensor(F7, (2, 2, 1), {(0, 1, 0): 3, (1, 1, 0): 1}),
    ]
    for u in others:
        assert u != t
    assert len({t, *others}) == 1 + len(others)


def test_constructor_coerces_every_entry():
    t = Tensor(F7, (2,), {(0,): 8, (1,): 7})
    assert t.entries == {(0,): 1}
    assert t == Tensor(F7, (2,), {(0,): 1})
    assert type(Tensor(Q, (1,), {(0,): 2}).get((0,))) is int
    with pytest.raises(FieldError):
        Tensor(Q, (1,), {(0,): 0.5})


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
    assert i2.contract(i2, [(1, 0)]) == i2


def test_contract_outer_product_shape():
    v = Tensor(Q, (2,), {(0,): Q.one, (1,): Q.coerce(2)})
    w = Tensor(Q, (3,), {(2,): Q.coerce(3)})
    out = v.contract(w, [])
    assert out.shape == (2, 3)
    assert out.get((1, 2)) == Q.coerce(6)


def test_contract_counit_law_on_group_algebra():
    # independent oracle: dense loops compute sum_j comult[i,j,k] counit[j]
    H = group_algebra(cyclic(2))
    got = H.comult.contract(H.counit, [(1, 0)])
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
        got = a.contract(b, pairs)
        want = dense_contract(F5, dense(a), sa, dense(b), sb, pairs)
        assert got == want


def test_contract_shape_mismatch_is_error():
    a = Tensor(Q, (2,), {(0,): Q.one})
    b = Tensor(Q, (3,), {(0,): Q.one})
    with pytest.raises(ShapeError):
        a.contract(b, [(0, 0)])


def test_contract_bilinear_over_f5():
    rng = random.Random(7)
    for _ in range(10):
        a1 = random_tensor(rng, F5, (3, 2))
        a2 = random_tensor(rng, F5, (3, 2))
        b = random_tensor(rng, F5, (2, 3))
        lhs = (a1 + a2).contract(b, [(1, 0)])
        rhs = a1.contract(b, [(1, 0)]) + a2.contract(b, [(1, 0)])
        assert lhs == rhs


def test_contract_associative_under_compatible_pairings():
    rng = random.Random(99)
    for _ in range(10):
        a = random_tensor(rng, F5, (2, 3))
        b = random_tensor(rng, F5, (3, 2))
        c = random_tensor(rng, F5, (2, 3))
        left = a.contract(b, [(1, 0)]).contract(c, [(1, 0)])
        right = a.contract(b.contract(c, [(1, 0)]), [(1, 0)])
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
        assert m.contract(inv, [(1, 0)]) == Tensor.identity(F5, 4)


def test_invert_exact_over_rationals():
    m = Tensor.from_nested(Q, [[1, 2], [3, 5]])
    inv = invert_matrix(m)
    assert inv == Tensor.from_nested(Q, [[-5, 2], [3, -1]])


def test_kernel_rows():
    m = Tensor.from_nested(Q, [[1, 1], [1, 1], [0, 0]])
    basis = kernel_rows(m)
    assert basis.shape[0] == 2
    assert basis.contract(m, [(1, 0)]).is_zero()


def test_span_solver_coordinates():
    basis = Tensor.from_nested(Q, [[1, 0, 1], [0, 1, 1]])
    coords, outside = span_coordinates(basis, Tensor.from_nested(Q, [[2, 3, 5]]))
    assert outside is None
    assert dense(coords) == [[Q.coerce(2), Q.coerce(3)]]
    assert span_coordinates(basis, Tensor.from_nested(Q, [[1, 0, 0]])) == (None, 0)


# -- the sparse elimination against the dense oracle of tests/helpers.py -------------


def _typed(t):
    """Entries with their scalar types, so that 1 and Fraction(1) differ."""
    return {idx: (type(c), c) for idx, c in t.entries.items()}


def _from_dense(field, rows, shape):
    return Tensor(field, shape, {(i, j): c for i, row in enumerate(rows) for j, c in enumerate(row)})


def _random_matrix(rng, field, shape, density):
    values = range(field.p) if field.p else [Fraction(a, b) for a in range(-3, 4) for b in (1, 2)]
    return Tensor(field, shape, {
        idx: field.coerce(rng.choice(values))
        for idx in product(*(range(d) for d in shape)) if rng.random() < density
    })


def _combination(rng, field, rows, count):
    """count random linear combinations of the given dense rows."""
    out = []
    for _ in range(count):
        vec = [field.zero] * len(rows[0])
        for row in rows:
            c = field.coerce(rng.randrange(-2, 3))
            vec = [field.add(a, field.mul(c, b)) for a, b in zip(vec, row)]
        out.append(vec)
    return out


def _matrices(field):
    """Zero, empty, tall, wide, singular and full-rank matrices with zero rows."""
    rng = random.Random(field.p or 0)
    out = [Tensor.zeros(field, (3, 4)), Tensor.zeros(field, (0, 3)), Tensor.zeros(field, (3, 0)),
           Tensor.zeros(field, (0, 0)), Tensor.identity(field, 4)]
    for shape in [(6, 3), (3, 6), (4, 4), (5, 5), (1, 4), (4, 1)]:
        for density in (0.2, 0.5, 0.9):
            out.append(_random_matrix(rng, field, shape, density))
    # a zero row, and a row that is a combination of two others
    rows = dense(_random_matrix(rng, field, (5, 5), 0.8))
    rows[1] = [field.zero] * 5
    rows[3] = _combination(rng, field, rows[:3], 1)[0]
    out.append(_from_dense(field, rows, (5, 5)))
    return out


FIELDS = [Q, F5, F7]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rank_matches_the_dense_oracle(field):
    for m in _matrices(field):
        assert matrix_rank(m) == dense_rank(m), m


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_inverse_matches_the_dense_oracle(field):
    square = [m for m in _matrices(field) if m.shape[0] == m.shape[1]]
    outcomes = set()
    for m in square:
        want = dense_inverse(m)
        if isinstance(want, int):
            with pytest.raises(SingularMatrixError) as err:
                invert_matrix(m)
            assert err.value.rank == want, m
            outcomes.add("singular")
        else:
            assert _typed(invert_matrix(m)) == _typed(_from_dense(field, want, m.shape)), m
            outcomes.add("invertible")
    assert outcomes == {"singular", "invertible"}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_left_kernel_matches_the_dense_oracle(field):
    for m in _matrices(field):
        n = m.shape[0]
        basis = kernel_rows(m)
        want = dense_left_kernel(m)
        assert _typed(basis) == _typed(_from_dense(field, want, (len(want), n))), m
        assert basis.shape == (n - dense_rank(m), n)
        assert basis.contract(m, [(1, 0)]).is_zero()


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_span_coordinates_match_the_dense_oracle(field):
    rng = random.Random(7)
    outcomes = set()
    for basis in _matrices(field):
        r, k = basis.shape
        rows = _combination(rng, field, dense(basis), 4) if r else []
        for t in range(len(rows) + 1):
            stray = dense(_random_matrix(rng, field, (1, k), 0.6))
            for trial in (rows, rows[:t] + stray + rows[t:]):
                given = _from_dense(field, trial, (len(trial), k))
                want = dense_span_coordinates(basis, given)
                got = span_coordinates(basis, given)
                if None in want:
                    assert got == (None, want.index(None)), basis
                    outcomes.add("outside")
                else:
                    coords, outside = got
                    assert outside is None
                    assert _typed(coords) == _typed(_from_dense(field, want, (len(trial), r)))
                    outcomes.add("inside")
    assert outcomes == {"inside", "outside"}


def test_closure_rows_are_in_normal_form_where_halves_cancel():
    # e0 -> (e1 + e2)/2 -> e1 + e2: the leading 2 * 1/2 and the whole second
    # word are integral; e0 -> e1/2 + e2/3 leaves 2/3 beside the pivot
    half = Fraction(1, 2)
    start = Tensor(Q, (3,), {(0,): 1})
    maps = Tensor(Q, (1, 3, 3), {(0, 0, 1): half, (0, 0, 2): half, (0, 1, 2): 2, (0, 2, 1): 2})
    rows = closure(start, maps)
    assert rows == {0: {0: 1}, 1: {1: 1, 2: 1}}
    assert all(type(c) is int for row in rows.values() for c in row.values())
    maps = Tensor(Q, (1, 3, 3), {(0, 0, 1): half, (0, 0, 2): Fraction(1, 3)})
    rows = closure(start, maps)
    assert rows == {0: {0: 1}, 1: {1: 1, 2: Fraction(2, 3)}}
    assert [type(c) for c in rows[1].values()] == [int, Fraction]
