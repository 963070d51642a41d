"""Associative unital algebras with a fixed basis, and modules over them.

Multiplication is a rank-3 structure tensor: e_i e_j = sum_k mult[i,j,k] e_k.
Each axiom is an identity between structure tensors, declared as a spec and
scanned exhaustively by ``hayd.identity``, which reports the
lexicographically first violating basis tuple.  An algebra that has proved
generators (rows whose left closure of the unit is the whole algebra, found
by elimination in ``left_closure_rank``) scans associativity, and its
modules their associativity, with the first argument on the generators
alone (``identity.on_generators``).
"""

from __future__ import annotations

from .errors import CheckFailedError, ShapeError
from .identity import Identity, check, evaluate, on_generators
from .report import Report
from .tensor import Tensor, closure_rank


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


def left_closure_rank(mult: Tensor, unit: Tensor, generators: Tensor) -> int:
    """Rank of the smallest subspace that holds the unit and is closed under
    left multiplication by the rows of ``generators``: the span of the words
    g_1 (g_2 (... (g_k 1))).  It is the dimension exactly when the rows
    generate the algebra (``identity.on_generators``)."""
    return closure_rank(unit, evaluate("gbc", [(generators, "ga"), (mult, "abc")]))


def greedy_generators(mult: Tensor, unit: Tensor) -> list:
    """Basis indices taken in order, each one that enlarges the left closure
    of the unit under those taken before it; of an associative unital
    algebra they are generators."""
    f, n = mult.field, mult.shape[0]
    chosen, rank = [], 1 if unit.entries else 0  # the closure of the unit alone
    for j in range(n):
        if rank == n:
            break
        rows = Tensor(f, (len(chosen) + 1, n),
                      {(r, i): f.one for r, i in enumerate(chosen + [j])}, _normalized=True)
        grown = left_closure_rank(mult, unit, rows)
        if grown > rank:
            chosen, rank = chosen + [j], grown
    return chosen


class FinAlgebra:
    """A finite-dimensional associative unital algebra by structure constants.

    ``generators``, if given, is a matrix of shape (k, dim) whose rows should
    generate the algebra.  ``verify`` proves that before it relies on it
    (``left_closure_rank``); ``self.generators`` is then that matrix, whose
    rows the structures built on this algebra scan in place of its basis.
    It is None until ``verify`` passes that way.
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
        the proof that they generate (their left closure of the unit has
        rank ``dim``), the unit and associativity on the generators alone; a
        failure there reruns the full scans, so the report never depends on
        the candidates."""
        self.generators = None
        G = self._candidates
        if (G is not None and left_closure_rank(self.mult, self.unit, G) == self.dim
                and unit_report(self.mult, self.unit).passed
                and associativity_report(self.mult, generators=G).passed):
            self.generators = G
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
