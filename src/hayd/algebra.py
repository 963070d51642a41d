"""Associative unital algebras with a fixed basis, and modules over them.

Multiplication is a rank-3 structure tensor: e_i e_j = sum_k mult[i,j,k] e_k.
Each axiom is an identity between structure tensors, declared as a spec and
scanned exhaustively by ``hayd.identity``, which reports the
lexicographically first violating basis tuple.  An algebra that has proved
generators (rows whose left closure of the unit is the whole algebra, found
by elimination in ``left_closure``) scans associativity, and its
modules their associativity, with the first argument on the generators
alone (``identity.on_generators``).
"""

from __future__ import annotations

from .errors import ShapeError
from .identity import Identity, check, evaluate, on_generators
from .report import Report
from .tensor import Tensor, closure


def _associativity(mult: Tensor) -> Identity:
    return Identity("associativity", "ijk", "l",
                    [(mult, "ijm"), (mult, "mkl")], [(mult, "iml"), (mult, "jkm")])


def _unit(mult: Tensor, unit: Tensor) -> list:
    delta = Tensor.identity(mult.field, mult.shape[0])
    return [Identity("unit", "i", "k", [(unit, "j"), (mult, product)], [(delta, "ik")])
            for product in ("jik", "ijk")]  # 1 e_i, then e_i 1


def module_laws(mult: Tensor, unit: Tensor, act: Tensor, side="left", name="module",
                generators=None) -> list:
    """The identities ``{name}-unit`` (1 m == m) and ``{name}-associativity``
    ((e_i e_j) m == e_i (e_j m) on the left, m (e_i e_j) == (m e_i) e_j on the
    right) of an action tensor (alg, in, out) over the algebra (mult, unit);
    associativity with e_i on ``generators``, proved generators of that
    algebra, if given (``identity.on_generators``).  A record proved for
    another product is a ShapeError."""
    if generators is not None and (generators.mult is not mult or generators.unit is not unit):
        raise ShapeError(f"{name}-associativity: generators proved for another product")
    delta = Tensor.identity(mult.field, act.shape[1])
    twice = [(act, "icb"), (act, "jac")] if side == "left" else [(act, "iac"), (act, "jcb")]
    unit_law = Identity(f"{name}-unit", "a", "b", [(unit, "j"), (act, "jab")], [(delta, "ab")])
    assoc = Identity(f"{name}-associativity", "ija", "b", [(mult, "ijk"), (act, "kab")], twice)
    return [unit_law, on_generators(assoc, generators, needs=[unit_law])]


def associativity_report(mult: Tensor) -> Report:
    """(e_i e_j) e_k == e_i (e_j e_k) on every basis triple (i, j, k)."""
    return check("associativity", _associativity(mult))


def unit_report(mult: Tensor, unit: Tensor) -> Report:
    """1 e_i == e_i == e_i 1 for every i; the left side is reported first."""
    return check("unit", _unit(mult, unit))


def left_closure(mult: Tensor, unit: Tensor, generators: Tensor) -> dict:
    """The smallest subspace that holds the unit and is closed under left
    multiplication by the rows of ``generators``, the span of the words
    g_1 (g_2 (... (g_k 1))), as RREF rows {pivot column: row}."""
    return closure(unit, evaluate("gbc", [(generators, "ga"), (mult, "abc")]))


def left_closure_rank(mult: Tensor, unit: Tensor, generators: Tensor) -> int:
    """The rank of ``left_closure``: the dimension exactly when the rows
    generate the algebra (``identity.on_generators``)."""
    return len(left_closure(mult, unit, generators))


def greedy_generators(mult: Tensor, unit: Tensor) -> list:
    """Basis indices taken in order, each one whose basis vector lies outside
    the left closure of the unit under those taken before it.  In an
    associative unital algebra that closure is the subalgebra they generate,
    which e_j enlarges exactly when it lies outside it; the taken indices
    generate the algebra."""
    f, n = mult.field, mult.shape[0]
    chosen, span = [], left_closure(mult, unit, Tensor.zeros(f, (0, n)))
    for j in range(n):
        # e_j is in the span of RREF rows exactly when its pivot row is e_j
        if span.get(j) != {j: 1}:
            chosen.append(j)
            rows = Tensor(f, (len(chosen), n), {(r, i): f.one for r, i in enumerate(chosen)},
                          _normalized=True)
            span = left_closure(mult, unit, rows)
    return chosen


class Generators:
    """The proof record of ``identity.on_generators``' lemma: ``mult`` is
    associative with unit ``unit``, and the left closure of the unit under
    the rows of ``matrix`` is the whole algebra.  Only ``FinAlgebra`` makes
    one, in ``verify`` or, for a Hopf algebra past its gate, in
    ``hopf.own_generators``; ``proof`` is this module's private token."""

    __slots__ = ("matrix", "mult", "unit")

    def __init__(self, matrix: Tensor, mult: Tensor, unit: Tensor, proof):
        if proof is not _PROOF:
            raise TypeError("generators are proved by FinAlgebra.verify")
        self.matrix, self.mult, self.unit = matrix, mult, unit


_PROOF = object()


class FinAlgebra:
    """A finite-dimensional associative unital algebra by structure constants.

    ``generators``, if given, is a matrix of shape (k, dim) whose rows should
    generate the algebra, or a ``Generators`` record proved for these very
    ``mult`` and ``unit``.  ``verify`` proves a matrix before it relies on it
    (``left_closure_rank``); ``self.generators`` is then its record, whose
    rows the structures built on this algebra scan in place of its basis.
    It is None until ``verify`` passes that way or a record is given.

    The structure tensors (``mult`` and ``unit``, and a Hopf algebra's
    ``comult``, ``counit`` and ``antipode``) are not rebound after
    ``verify``: its proof, the proved generators and every build cached
    from the structure rest on them.  The tensors themselves are read-only.
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
        self._candidates = self._generators = None
        if not isinstance(generators, Generators):
            self._candidates = generators
        elif generators.mult is mult and generators.unit is unit:
            self._generators = generators
        else:
            raise ShapeError("generators proved for another product")
        if check:
            self.verify().require()

    @property
    def generators(self) -> Generators | None:
        return self._generators

    def verify(self) -> Report:
        """Associativity, then the unit; with candidate generators that pass
        the proof that they generate (their left closure of the unit has
        rank ``dim``), associativity on the generators alone."""
        G = None if self._candidates is None else self._prove_generators(self._candidates)
        unit = _unit(self.mult, self.unit)
        report = check("algebra", on_generators(_associativity(self.mult), G, needs=unit), unit)
        if G is not None:
            self._generators = G if report.passed else None
        return report

    def _prove_generators(self, rows: Tensor) -> Generators | None:
        """The record of ``rows`` when their left closure of the unit is the
        whole algebra; the caller proves associativity and the unit."""
        if left_closure_rank(self.mult, self.unit, rows) != self.dim:
            return None
        return Generators(rows, self.mult, self.unit, _PROOF)

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
            self.verify().require()

    def verify(self) -> Report:
        """The unit acts as the identity, and (e_i e_j) m == e_i (e_j m),
        over an algebra with proved generators for e_i on them alone."""
        alg = self.algebra
        return check("module", *module_laws(alg.mult, alg.unit, self.action,
                                            generators=alg.generators))
