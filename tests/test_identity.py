import random
from fractions import Fraction
from itertools import product

import pytest

from hayd.errors import ShapeError
from hayd.fields import prime_field, rationals
from hayd.groups import cyclic, symmetric
from hayd.hopf import group_algebra, sweedler
from hayd.identity import Identity, check, evaluate
from hayd.tensor import Tensor

from helpers import dense

Q = rationals()


def _assoc(mult):
    return Identity("associativity", "ijk", "l",
                    [(mult, "ijm"), (mult, "mkl")], [(mult, "iml"), (mult, "jkm")])


def _with(t, idx, c):
    return Tensor(t.field, t.shape, {**t.entries, idx: c})


def test_empty_witness_scans_one_slice_and_reports_the_placeholder():
    H = sweedler()
    spec = Identity("bialgebra-unit", "", "ab",
                    [(H.unit, "i"), (H.comult, "iab")], [(H.unit, "a"), (H.unit, "b")])
    assert check("ok", spec).passed
    two = _with(H.unit, (0,), Q.coerce(2))
    r = check("ok", Identity("bialgebra-unit", "", "ab",
                             [(two, "i"), (H.comult, "iab")], [(two, "a"), (two, "b")]))
    assert (r.passed, r.axiom, r.witness) == (False, "bialgebra-unit", (0,))
    assert r.lhs == Tensor(Q, (4, 4), {(0, 0): Q.coerce(2)})
    assert r.rhs == Tensor(Q, (4, 4), {(0, 0): Q.coerce(4)})
    # a scalar identity against the empty product, 1
    assert check("ok", Identity("u", "", "", [(H.unit, "i"), (H.counit, "i")], [])).passed


def test_kronecker_side_reports_its_slice():
    H = group_algebra(symmetric(3))
    delta = Tensor.identity(Q, 6)
    bad = _with(H.mult, (2, 0, 2), Q.coerce(3))  # e_2 . 1 = 3 e_2
    r = check("unit", [
        Identity("unit", "i", "k", [(H.unit, "j"), (bad, "jik")], [(delta, "ik")]),
        Identity("unit", "i", "k", [(H.unit, "j"), (bad, "ijk")], [(delta, "ik")]),
    ])
    assert (r.axiom, r.witness) == ("unit", (2,))
    assert dense(r.lhs) == [0, 0, 3, 0, 0, 0]
    assert dense(r.rhs) == [0, 0, 1, 0, 0, 0]


def test_group_reports_least_witness_then_first_listed():
    H = group_algebra(cyclic(3))
    delta = Tensor.identity(Q, 3)
    left_bad = _with(H.mult, (0, 2, 1), Q.one)   # breaks 1 . e_2 at i = 2
    right_bad = _with(H.mult, (1, 0, 0), Q.one)  # breaks e_1 . 1 at i = 1

    def left(m):
        return Identity("left", "i", "k", [(H.unit, "j"), (m, "jik")], [(delta, "ik")])

    def right(m):
        return Identity("right", "i", "k", [(H.unit, "j"), (m, "ijk")], [(delta, "ik")])

    assert check("ok", [left(left_bad), right(right_bad)]).axiom == "right"
    assert check("ok", [left(left_bad), right(left_bad)]).witness == (2,)
    tie = _with(_with(H.mult, (0, 1, 0), Q.one), (1, 0, 2), Q.one)  # both sides break at i = 1
    assert check("ok", [left(tie), right(tie)]).axiom == "left"
    assert check("ok", [right(tie), left(tie)]).axiom == "right"
    # sequential groups: the first group's failure wins whatever its witness
    assert check("ok", left(left_bad), right(right_bad)).axiom == "left"


def test_witness_is_lexicographically_first_and_factor_order_is_only_evaluation_order():
    H = group_algebra(symmetric(3))
    bad = _with(H.mult, (3, 4, 1), Q.coerce(5))
    r = check("associativity", _assoc(bad))
    reordered = Identity("associativity", "ijk", "l",
                         [(bad, "mkl"), (bad, "ijm")], [(bad, "jkm"), (bad, "iml")])
    s = check("associativity", reordered)
    assert (r.witness, r.lhs, r.rhs) == (s.witness, s.lhs, s.rhs)
    lhs = bad.contract(bad, [(2, 0)])  # (i, j, k, l)
    rhs = bad.contract(bad, [(1, 2)])  # (i, l, j, k)
    differ = [(i, j, k) for (i, j, k, l) in lhs.entries.keys() | rhs.transpose((0, 2, 3, 1)).entries.keys()
              if lhs.get((i, j, k, l)) != rhs.get((i, l, j, k))]
    assert r.witness == min(differ)


def test_zero_side():
    H = group_algebra(cyclic(2))
    # e_i (e_0 + e_1) is never zero
    r = check("ok", Identity("zero", "i", "k", [(H.mult, "ijk"), (H.counit, "j")], None))
    assert (r.passed, r.witness) == (False, (0,))
    assert dense(r.lhs) == [1, 1] and dense(r.rhs) == [0, 0]


def test_rationals_against_prime_field():
    reports = []
    for field in (Q, prime_field(5)):
        H = group_algebra(symmetric(3), field)
        assert check("ok", _assoc(H.mult)).passed
        reports.append(check("ok", _assoc(_with(H.mult, (1, 2, 3), field.coerce(2)))))
        assert all(isinstance(c, type(field.one)) for c in reports[-1].lhs.entries.values())
    q, p = reports
    assert q.witness == p.witness == (1, 1, 2)
    assert {k: c % 5 for k, c in q.lhs.entries.items()} == p.lhs.entries
    # 5 e = 0 holds over F_5 after reduction, and fails over Q
    for field, holds in ((Q, False), (prime_field(5), True)):
        five = Tensor(field, (1, 1), {(0, 0): field.coerce(5)})
        assert check("ok", Identity("five", "i", "", [(five, "ij")], None)).passed is holds


def test_malformed_specs_are_rejected():
    H = group_algebra(cyclic(2))
    with pytest.raises(ShapeError):
        Identity("x", "i", "", [(H.mult, "iij")], None)  # repeated letter
    with pytest.raises(ShapeError):
        Identity("x", "i", "", [(H.mult, "ij")], None)  # wrong rank
    with pytest.raises(ShapeError):
        Identity("x", "i", "", [(H.mult, "ijk"), (Tensor.identity(Q, 3), "kl")], None)
    with pytest.raises(ShapeError):
        check("x", Identity("x", "i", "k", [(H.counit, "i")], None))  # k never bound


def _random(rng, field, shape):
    entries = {}
    for idx in product(*(range(d) for d in shape)):
        if rng.random() < 0.5:
            c = rng.randrange(-4, 5)
            entries[idx] = field.coerce(Fraction(c, rng.randrange(1, 4)) if field.p is None else c)
    return Tensor(field, shape, entries)


def _dense_einsum(field, out, factors):
    """Sum over every assignment of every letter: no sparsity, no planning."""
    dims = {x: t.shape[k] for t, letters in factors for k, x in enumerate(letters)}
    letters = sorted(dims)
    total = {}
    for values in product(*(range(dims[x]) for x in letters)):
        at = dict(zip(letters, values))
        c = field.one
        for t, idx in factors:
            c = field.mul(c, t.get(tuple(at[x] for x in idx)))
        key = tuple(at[x] for x in out)
        total[key] = field.add(total.get(key, field.zero), c)
    return Tensor(field, tuple(dims[x] for x in out), total)


@pytest.mark.parametrize("field", [Q, prime_field(5)], ids=["Q", "F5"])
def test_evaluate_agrees_with_a_dense_einsum(field):
    rng = random.Random(7)
    a, b, c = (_random(rng, field, s) for s in [(3, 4, 2), (2, 4, 5), (5,)])
    for out, factors in [
        ("ki", [(a, "ijl"), (b, "ljk")]),
        ("ik", [(a, "ijl"), (b, "ljm"), (c, "m"), (c, "k")]),
        ("", [(a, "ijl"), (b, "ljm"), (c, "m")]),
        ("mji", [(c, "m"), (a, "ijl")]),
    ]:
        got = evaluate(out, factors)
        assert got == _dense_einsum(field, out, factors)
        assert all(type(v) is type(field.one) for v in got.entries.values())


def test_evaluate_returns_fractions_over_q_even_for_integral_entries():
    H = group_algebra(cyclic(3))
    square = evaluate("ik", [(H.mult, "ijk"), (H.counit, "j")])
    assert square.entries and all(type(v) is Fraction for v in square.entries.values())
    assert square == H.mult.contract(H.counit, [(1, 0)])


def test_evaluate_rejects_malformed_specs():
    H = group_algebra(cyclic(2))
    with pytest.raises(ShapeError):
        evaluate("i", [(H.mult, "ij")])  # wrong rank
    with pytest.raises(ShapeError):
        evaluate("l", [(H.mult, "ijk")])  # l is never bound
    with pytest.raises(ShapeError):
        evaluate("i", [(H.counit, "i"), (group_algebra(cyclic(2), prime_field(5)).unit, "j")])
