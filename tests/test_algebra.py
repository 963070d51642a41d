import pytest

from hayd.algebra import AlgebraModule, FinAlgebra
from hayd.errors import CheckFailedError, InputError
from hayd.fields import rationals
from hayd.groups import Group, cyclic, symmetric
from hayd.tensor import Tensor

Q = rationals()


def _group_mult(G):
    n = len(G)
    mult = Tensor(Q, (n, n, n), {(i, j, G.mul(i, j)): Q.one for i in range(n) for j in range(n)})
    unit = Tensor(Q, (n,), {(G.identity,): Q.one})
    return mult, unit


def test_group_multiplication_is_a_valid_algebra():
    mult, unit = _group_mult(symmetric(3))
    A = FinAlgebra(Q, mult, unit)
    assert A.verify().passed
    assert not A.is_commutative()
    B = FinAlgebra(Q, *_group_mult(cyclic(3)))
    assert B.is_commutative()


def test_non_associative_table_is_rejected_with_witness():
    # unital but (e1 e1) e1 = e2 e1 = 0 while e1 (e1 e1) = e1 e2 = e0
    entries = {(0, j, j): Q.one for j in range(3)}
    entries.update({(i, 0, i): Q.one for i in range(1, 3)})
    entries[(1, 1, 2)] = Q.one
    entries[(1, 2, 0)] = Q.one
    mult = Tensor(Q, (3, 3, 3), entries)
    unit = Tensor(Q, (3,), {(0,): Q.one})
    with pytest.raises(CheckFailedError) as err:
        FinAlgebra(Q, mult, unit)
    assert err.value.report.axiom == "associativity"
    # first violating triple in lexicographic order
    assert err.value.report.witness == (1, 1, 1)


def test_wrong_unit_is_rejected():
    mult, _ = _group_mult(cyclic(2))
    bad_unit = Tensor(Q, (2,), {(1,): Q.one})
    with pytest.raises(CheckFailedError) as err:
        FinAlgebra(Q, mult, bad_unit)
    assert err.value.report.axiom == "unit"


def test_regular_module_verifies():
    mult, unit = _group_mult(symmetric(3))
    A = FinAlgebra(Q, mult, unit)
    V = AlgebraModule(A, A.mult)
    assert V.verify().passed


def test_module_with_broken_unit_rejected():
    mult, unit = _group_mult(cyclic(2))
    A = FinAlgebra(Q, mult, unit)
    act = Tensor(Q, (2, 1, 1), {(0, 0, 0): Q.coerce(2), (1, 0, 0): Q.one})
    with pytest.raises(CheckFailedError) as err:
        AlgebraModule(A, act)
    assert err.value.report.axiom == "module-unit"


def test_symmetric_group_structure():
    G = symmetric(3)
    assert len(G) == 6
    assert G.identity == 0
    for i in range(6):
        assert G.mul(i, G.inverse(i)) == G.identity
    # non-abelian witness
    assert any(G.mul(i, j) != G.mul(j, i) for i in range(6) for j in range(6))


def test_cyclic_group_structure():
    G = cyclic(4)
    assert G.mul(3, 2) == 1
    assert G.inverse(1) == 3


def test_group_rejects_bad_tables():
    with pytest.raises(InputError):
        Group([[0, 1], [0, 1]])  # g has no inverse / not latin
    with pytest.raises(InputError):
        Group([[0, 1, 1], [1, 0, 0]])  # not square
    with pytest.raises(InputError):
        # associativity failure: a "subtraction table" mod 3
        Group([[(i - j) % 3 for j in range(3)] for i in range(3)])


@pytest.mark.parametrize("table, identity, where", [
    ([[0, 1], [1.0, 0.0]], None, r"Cayley entry \(1,0\) is 1.0"),
    ([[0, True], [1, 0]], None, r"Cayley entry \(0,1\) is True"),
    ([[0, 1], [1, -1]], None, r"Cayley entry \(1,1\) is -1"),
    ([[0, 1], [1, 0]], 0.5, "identity is 0.5"),
    ([[0, 1], [1, 0]], False, "identity is False"),
    ([[0, 1], [1, 0]], 2, "identity is 2"),
])
def test_group_rejects_entries_and_identities_that_are_not_indices(table, identity, where):
    with pytest.raises(InputError, match=where):
        Group(table, identity=identity)
