"""Associative unital algebras with a fixed basis, and modules over them.

Multiplication is a rank-3 structure tensor: e_i e_j = sum_k mult[i,j,k] e_k.
Each axiom is an identity between structure tensors, declared as a spec and
scanned exhaustively by ``hayd.identity``, which reports the
lexicographically first violating basis tuple.  An algebra that has proved
generators scans associativity, and its modules their associativity, with
the first argument on the generators alone (``identity.on_generators``).
"""

from __future__ import annotations

from .errors import CheckFailedError, ShapeError
from .identity import Identity, check, on_generators
from .report import Report
from .tensor import Tensor


def associativity_report(mult: Tensor, label="associativity", generators=None) -> Report:
    """(e_i e_j) e_k == e_i (e_j e_k) on every basis triple (i, j, k); with
    ``generators``, proved generators of an algebra with a proved unit, only
    for e_i running over them (``identity.on_generators``)."""
    ident = Identity(
        label, "ijk", "l", [(mult, "ijm"), (mult, "mkl")], [(mult, "iml"), (mult, "jkm")]
    )
    return check(label, ident if generators is None else on_generators(ident, generators))


def unit_report(mult: Tensor, unit: Tensor, label="unit") -> Report:
    """1 e_i == e_i == e_i 1 for every i; the left side is reported first."""
    delta = Tensor.identity(mult.field, mult.shape[0])
    return check(label, [
        Identity(label, "i", "k", [(unit, "j"), (mult, "jik")], [(delta, "ik")]),
        Identity(label, "i", "k", [(unit, "j"), (mult, "ijk")], [(delta, "ik")]),
    ])


class FinAlgebra:
    """A finite-dimensional associative unital algebra by structure constants.

    ``generators``, if given, is a pair of matrices (left, right) of shapes
    (p, dim) and (q, dim) with p q = dim whose rows should multiply to the
    basis, left_i right_j = e_(i q + j).  ``verify`` proves that before it
    relies on it; ``self.generators`` is then their rows stacked, which the
    structures built on this algebra scan in place of its basis.  It is None
    until ``verify`` passes that way.
    """

    def __init__(self, field, mult: Tensor, unit: Tensor, basis_names=None, name="algebra",
                 check=True, generators=None):
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
        self._candidates = generators
        self.generators = None
        if check:
            report = self.verify()
            if not report.passed:
                raise CheckFailedError(report)

    def verify(self) -> Report:
        """Associativity, then the unit.  With candidate generators, first
        the spanning identity, the unit and associativity on the generators
        alone; a failure there reruns the full scans, so the report never
        depends on the candidates."""
        self.generators = None
        if self._candidates is not None:
            left, right = self._candidates
            p = left.shape[0]
            words = Tensor.identity(self.field, self.dim).reshape((p, right.shape[0], self.dim))
            spans = Identity("generators-span", "ij", "z",
                             [(left, "iu"), (right, "jv"), (self.mult, "uvz")], [(words, "ijz")])
            stacked = Tensor(self.field, (p + right.shape[0], self.dim), {
                **left.entries, **{(p + j, z): c for (j, z), c in right.entries.items()}
            }, _normalized=True)
            if (check("generators", spans).passed and unit_report(self.mult, self.unit).passed
                    and associativity_report(self.mult, generators=stacked).passed):
                self.generators = stacked
                return Report.ok("algebra")
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
        """The unit acts as the identity, and (e_i e_j) m == e_i (e_j m);
        over an algebra with proved generators the second is scanned first
        for e_i on the generators alone, and in full only if that fails."""
        alg, act = self.algebra, self.action
        delta = Tensor.identity(alg.field, self.dim)
        unit = Identity("module-unit", "a", "b", [(alg.unit, "j"), (act, "jab")], [(delta, "ab")])
        assoc = Identity("module-associativity", "ija", "b",
                         [(alg.mult, "ijk"), (act, "kab")], [(act, "icb"), (act, "jac")])
        if alg.generators is not None:
            r = check("module", unit, on_generators(assoc, alg.generators))
            if r.passed:
                return r
        return check("module", unit, assoc)
