"""Associative unital algebras with a fixed basis, and modules over them.

Multiplication is a rank-3 structure tensor: e_i e_j = sum_k mult[i,j,k] e_k.
Each axiom is an identity between structure tensors, declared as a spec and
scanned exhaustively by ``hayd.identity``, which reports the
lexicographically first violating basis tuple.
"""

from __future__ import annotations

from .errors import CheckFailedError, ShapeError
from .identity import Identity, check
from .report import Report
from .tensor import Tensor


def associativity_report(mult: Tensor, label="associativity") -> Report:
    """(e_i e_j) e_k == e_i (e_j e_k) on every basis triple (i, j, k)."""
    return check(label, Identity(
        label, "ijk", "l", [(mult, "ijm"), (mult, "mkl")], [(mult, "iml"), (mult, "jkm")]
    ))


def unit_report(mult: Tensor, unit: Tensor, label="unit") -> Report:
    """1 e_i == e_i == e_i 1 for every i; the left side is reported first."""
    delta = Tensor.identity(mult.field, mult.shape[0])
    return check(label, [
        Identity(label, "i", "k", [(unit, "j"), (mult, "jik")], [(delta, "ik")]),
        Identity(label, "i", "k", [(unit, "j"), (mult, "ijk")], [(delta, "ik")]),
    ])


class FinAlgebra:
    """A finite-dimensional associative unital algebra by structure constants."""

    def __init__(self, field, mult: Tensor, unit: Tensor, basis_names=None, name="algebra",
                 check=True):
        n = unit.shape[0] if unit.rank == 1 else -1
        if mult.rank != 3 or mult.shape != (n, n, n):
            raise ShapeError(f"mult shape {mult.shape} does not match unit shape {unit.shape}")
        if mult.field != field or unit.field != field:
            raise ShapeError("field mismatch in algebra data")
        self.field = field
        self.dim = n
        self.mult = mult
        self.unit = unit
        self.name = name
        self.basis_names = list(basis_names) if basis_names else [f"e{i}" for i in range(n)]
        if len(self.basis_names) != n:
            raise ShapeError("basis_names length does not match dimension")
        if check:
            report = self.verify()
            if not report.passed:
                raise CheckFailedError(report)

    def verify(self) -> Report:
        r = associativity_report(self.mult)
        if not r.passed:
            return r
        r = unit_report(self.mult, self.unit)
        if not r.passed:
            return r
        return Report.ok("algebra")

    def mul_vec(self, x: Tensor, y: Tensor) -> Tensor:
        """Product of two elements given by coefficient vectors."""
        return x.contract(self.mult, [(0, 0)]).contract(y, [(0, 0)])

    def is_commutative(self) -> bool:
        flip = self.mult.transpose((1, 0, 2))
        return flip == self.mult

    def __repr__(self):
        return f"{type(self).__name__}({self.name}, dim={self.dim}, field={self.field})"


class AlgebraModule:
    """A left module over a FinAlgebra, as an action tensor (alg, in, out)."""

    def __init__(self, algebra: FinAlgebra, action: Tensor, check=True):
        if action.rank != 3 or action.shape[0] != algebra.dim:
            raise ShapeError(f"action shape {action.shape} does not match algebra")
        if action.shape[1] != action.shape[2]:
            raise ShapeError("action must act on a single space")
        if action.field != algebra.field:
            raise ShapeError("field mismatch in module data")
        self.algebra = algebra
        self.dim = action.shape[1]
        self.action = action
        if check:
            report = self.verify()
            if not report.passed:
                raise CheckFailedError(report)

    def verify(self) -> Report:
        """The unit acts as the identity, and (e_i e_j) m == e_i (e_j m)."""
        alg, act = self.algebra, self.action
        delta = Tensor.identity(alg.field, self.dim)
        return check(
            "module",
            Identity("module-unit", "a", "b", [(alg.unit, "j"), (act, "jab")], [(delta, "ab")]),
            Identity("module-associativity", "ija", "b",
                     [(alg.mult, "ijk"), (act, "kab")], [(act, "icb"), (act, "jac")]),
        )
