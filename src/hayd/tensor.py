"""Sparse exact tensors and the exact linear algebra built on them.

A Tensor stores only nonzero entries in a dict keyed by multi-index, so the
very sparse structure constants of group and Taft algebras stay cheap.  Two
tensors are equal exactly when their entry maps are equal; every operation
returns normalized entries (no stored zeros, residues reduced).  ``entries``
is a read-only view of a dict the constructor owns (``_normalized=True``
takes over the dict it is handed), so a Tensor is never written after
construction and hashes by value, consistently with ``==``;
``hayd.identity``'s ledger keys proved identities by their tensors.

``contract`` sums over paired axes; the unpaired axes of the left operand come
first in the output, then those of the right operand.  The empty pairing is
the Kronecker (outer) product.  It names the axes with letters and hands them
to ``hayd.identity.evaluate``, the package's one sparse contraction.
``reshape`` splits axes in row-major order, which is how the flattened
pair indices of product spaces are read; ``evaluate``'s letter groups write
them.

Matrices are rank-2 Tensors.  ``rref`` is one sparse Gauss-Jordan elimination
over rows {col: scalar}; rank, inverse, left kernel and coordinates inside a
span all run on it, and ``closure`` (the span of a vector under a set of
maps) runs on its elimination step.
"""

from __future__ import annotations

from math import prod
from types import MappingProxyType

from .errors import ShapeError, SingularMatrixError
from .fields import Field, q_normal

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class Tensor:
    __slots__ = ("field", "shape", "entries", "_hash")

    def __init__(self, field: Field, shape, entries=None, *, _normalized=False):
        self.field = field
        self.shape = tuple(int(d) for d in shape)
        if any(d < 0 for d in self.shape):
            raise ShapeError(f"negative dimension in shape {self.shape}")
        if _normalized:
            self.entries = MappingProxyType(entries)
            return
        norm = {}
        rank = len(self.shape)
        for idx, c in (entries or {}).items():
            idx = tuple(idx) if isinstance(idx, (tuple, list)) else (idx,)
            if len(idx) != rank:
                raise ShapeError(f"index {idx} has wrong rank for shape {self.shape}")
            for ax, i in enumerate(idx):
                if type(i) is not int or not 0 <= i < self.shape[ax]:
                    raise ShapeError(f"index {idx} out of range for shape {self.shape}")
            c = field.coerce(c)
            if not field.is_zero(c):
                norm[idx] = c
        self.entries = MappingProxyType(norm)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zeros(cls, field, shape):
        return cls(field, shape, {}, _normalized=True)

    @classmethod
    def identity(cls, field, n):
        one = field.one
        return cls(field, (n, n), {(i, i): one for i in range(n)}, _normalized=True)

    @classmethod
    def basis(cls, field, shape, index):
        return cls(field, shape, {tuple(index): field.one})

    @classmethod
    def from_nested(cls, field, nested):
        """Build from dense nested lists; scalars go through field.coerce."""

        entries = {}
        shape = []
        probe = nested
        while isinstance(probe, (list, tuple)):
            shape.append(len(probe))
            probe = probe[0] if len(probe) else None

        def walk(node, prefix):
            if len(prefix) == len(shape):
                c = field.coerce(node)
                if not field.is_zero(c):
                    entries[prefix] = c
                return
            if len(node) != shape[len(prefix)]:
                raise ShapeError("ragged nested list")
            for i, sub in enumerate(node):
                walk(sub, prefix + (i,))

        walk(nested, ())
        return cls(field, tuple(shape), entries, _normalized=True)

    def to_nested(self):
        """Dense nested-list form (small tensors only; used by tests and IO)."""
        zero = self.field.zero

        def build(shape):
            if not shape:
                return zero
            return [build(shape[1:]) for _ in range(shape[0])]

        if not self.shape:
            return self.entries.get((), zero)
        out = build(self.shape)
        for idx, c in self.entries.items():
            node = out
            for i in idx[:-1]:
                node = node[i]
            node[idx[-1]] = c
        return out

    # -- basic structure -----------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.shape)

    def get(self, idx):
        idx = tuple(idx) if isinstance(idx, (tuple, list)) else (idx,)
        return self.entries.get(idx, self.field.zero)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.field.p, self.shape, frozenset(self.entries.items())))
            return self._hash

    def __repr__(self):
        items = sorted(self.entries.items())
        shown = ", ".join(f"{idx}: {c}" for idx, c in items[:8])
        more = "" if len(items) <= 8 else f", ... ({len(items)} entries)"
        return f"Tensor({self.field}, shape={self.shape}, {{{shown}{more}}})"

    # -- linear operations ---------------------------------------------------

    def _check_same(self, other):
        if self.field != other.field:
            raise ShapeError("field mismatch")
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch {self.shape} vs {other.shape}")

    def __add__(self, other):
        self._check_same(other)
        f = self.field
        out = dict(self.entries)
        for idx, c in other.entries.items():
            s = f.add(out.get(idx, f.zero), c)
            if f.is_zero(s):
                out.pop(idx, None)
            else:
                out[idx] = s
        return Tensor(f, self.shape, out, _normalized=True)

    def __neg__(self):
        f = self.field
        return Tensor(
            f, self.shape, {idx: f.neg(c) for idx, c in self.entries.items()}, _normalized=True
        )

    def __sub__(self, other):
        return self + (-other)

    def transpose(self, perm):
        perm = tuple(perm)
        if sorted(perm) != list(range(self.rank)):
            raise ShapeError(f"bad axis permutation {perm}")
        shape = tuple(self.shape[p] for p in perm)
        entries = {tuple(idx[p] for p in perm): c for idx, c in self.entries.items()}
        return Tensor(self.field, shape, entries, _normalized=True)

    def contract(self, other: "Tensor", pairs) -> "Tensor":
        """Sum over paired (self_axis, other_axis); pairs=[] is the outer product."""
        if self.field != other.field:
            raise ShapeError("field mismatch")
        a_axes = [p[0] for p in pairs]
        b_axes = [p[1] for p in pairs]
        if len(set(a_axes)) != len(a_axes) or len(set(b_axes)) != len(b_axes):
            raise ShapeError("repeated axis in contraction pairs")
        for ai, bi in pairs:
            if not (0 <= ai < self.rank and 0 <= bi < other.rank):
                raise ShapeError(f"contraction axis ({ai},{bi}) out of range")
            if self.shape[ai] != other.shape[bi]:
                raise ShapeError(
                    f"paired axes have different dimensions: "
                    f"{self.shape[ai]} vs {other.shape[bi]}"
                )
        from .identity import evaluate

        a = _LETTERS[: self.rank]
        b = list(_LETTERS[self.rank : self.rank + other.rank])
        for ai, bi in pairs:
            b[bi] = a[ai]
        out = "".join(x for ax, x in enumerate(a) if ax not in a_axes)
        out += "".join(x for ax, x in enumerate(b) if ax not in b_axes)
        return evaluate(out, [(self, a), (other, "".join(b))])

    def reshape(self, shape) -> "Tensor":
        """The same entries in row-major order under another shape of equal
        size: (i, j) -> i*n + j merges two axes, the inverse splits one."""
        shape = tuple(int(d) for d in shape)
        if prod(shape) != prod(self.shape):
            raise ShapeError(f"cannot reshape {self.shape} into {shape}")
        # one column per axis: the flat indices, then each target axis's index
        keys = list(self.entries)
        flat = [0] * len(keys)
        for axis, d in enumerate(self.shape):
            flat = [f * d + idx[axis] for f, idx in zip(flat, keys)]
        columns = []
        for d in reversed(shape):
            columns.append([f % d for f in flat])
            flat = [f // d for f in flat]
        new = zip(*reversed(columns)) if shape else [()] * len(keys)
        entries = dict(zip(new, self.entries.values()))
        return Tensor(self.field, shape, entries, _normalized=True)


# -- exact elimination --------------------------------------------------------
#
# Orientation note: hayd stores linear maps as (input, output) tensors and
# applies them to row vectors, v -> v @ M.  Elimination works on sparse rows
# {col: scalar}; over F_p every updated entry is reduced once with % p, over Q
# it is brought to the normal form of hayd.fields.


def _rows(m: Tensor):
    """The rows of a matrix Tensor as sparse dicts {col: scalar}."""
    if m.rank != 2:
        raise ShapeError(f"expected a matrix, got rank {m.rank}")
    rows = [{} for _ in range(m.shape[0])]
    for (i, j), c in m.entries.items():
        rows[i][j] = c
    return rows


def _subtract(row, c, other, p):
    """row -= c * other in place, dropping entries that become zero."""
    for j, b in other.items():
        v = row.get(j, 0) - c * b
        v = v % p if p else q_normal(v)
        if v:
            row[j] = v
        else:
            row.pop(j, None)


def rref(m: Tensor):
    """Reduced row echelon form of a matrix by sparse Gauss-Jordan elimination.

    Returns (rows, pivots): the nonzero reduced rows as dicts {col: scalar},
    in order of their pivot columns, and those columns.  Each row of m is
    reduced by the pivot rows found so far; a nonzero remainder is scaled to
    lead with 1 and cleared from the earlier pivot rows.  The RREF of a row
    space is unique, so the result does not depend on the order of the rows.
    """
    pivot_rows = {}
    for row in _rows(m):
        _insert(pivot_rows, row, m.field)
    pivots = sorted(pivot_rows)
    return [pivot_rows[c] for c in pivots], pivots


def _insert(pivot_rows, row, f) -> bool:
    """One Gauss-Jordan step: reduce ``row`` (consumed) by ``pivot_rows``
    {pivot column: row}; a nonzero remainder is scaled to lead with 1,
    cleared from the other pivot rows and stored.  Returns whether it was."""
    p = f.p
    for col in [j for j in row if j in pivot_rows]:
        _subtract(row, row[col], pivot_rows[col], p)
    if not row:
        return False
    lead = min(row)
    inv = f.inv(row[lead])
    row = {j: (inv * c) % p if p else q_normal(inv * c) for j, c in row.items()}
    for other in pivot_rows.values():
        if lead in other:
            _subtract(other, other[lead], row, p)
    pivot_rows[lead] = row
    return True


def closure(start: Tensor, maps: Tensor) -> dict:
    """The smallest subspace that holds the vector ``start`` and is closed
    under v -> v @ maps[g] for every g, the span of all the words
    start @ maps[g_1] @ ... @ maps[g_k], as its RREF rows {pivot column: row}.

    Each vector that enlarges the span found so far is kept unreduced (words
    in sparse structure constants stay sparse) and later mapped by every
    maps[g]; the span is closed once every kept vector has been mapped.
    """
    if start.rank != 1 or maps.rank != 3 or maps.shape[1:] != start.shape * 2:
        raise ShapeError(f"maps of shape {maps.shape} on vectors of shape {start.shape}")
    f = start.field
    p = f.p
    rows = [{} for _ in range(maps.shape[0])]
    for (g, i, j), c in maps.entries.items():
        rows[g].setdefault(i, {})[j] = c
    pivot_rows = {}
    vec = {i: c for (i,), c in start.entries.items()}
    todo = [vec] if _insert(pivot_rows, dict(vec), f) else []
    while todo:
        vec = todo.pop()
        for mapped in rows:
            out = {}
            for i, c in vec.items():
                for j, d in mapped.get(i, {}).items():
                    out[j] = out.get(j, 0) + c * d
            if p:
                out = {j: r for j, c in out.items() if (r := c % p)}
            else:
                out = {j: q_normal(c) for j, c in out.items() if c}
            if _insert(pivot_rows, dict(out), f):
                todo.append(out)
    return pivot_rows


def _augment(m: Tensor) -> Tensor:
    """[m | identity]: m with the identity matrix appended on the right."""
    n, k = m.shape
    entries = dict(m.entries)
    entries.update({(i, k + i): m.field.one for i in range(n)})
    return Tensor(m.field, (n, k + n), entries, _normalized=True)


def matrix_rank(m: Tensor) -> int:
    return len(rref(m)[1])


def invert_matrix(m: Tensor) -> Tensor:
    """Exact inverse of a square matrix; raises SingularMatrixError with the rank."""
    if m.rank != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"cannot invert shape {m.shape}")
    n = m.shape[0]
    rows, pivots = rref(_augment(m))
    rank = sum(1 for c in pivots if c < n)
    if rank != n:
        raise SingularMatrixError("matrix is not invertible", rank=rank)
    return Tensor(m.field, (n, n), {
        (i, j - n): c for i, row in enumerate(rows) for j, c in row.items() if j >= n
    }, _normalized=True)


def kernel_rows(m: Tensor) -> Tensor:
    """Basis of the left kernel {v : v @ m = 0} as the rows of a (k, n) matrix,
    one row per free column of the RREF of m's transpose, in column order."""
    f = m.field
    n = m.shape[0]
    rows, pivots = rref(m.transpose((1, 0)))
    pivot_set = set(pivots)
    basis = {c: {c: f.one} for c in range(n) if c not in pivot_set}
    for pc, row in zip(pivots, rows):
        for j, c in row.items():
            if j != pc:
                basis[j][pc] = f.neg(c)
    return Tensor(f, (len(basis), n), {
        (r, j): c for r, vec in enumerate(basis.values()) for j, c in vec.items()
    }, _normalized=True)


def span_coordinates(basis: Tensor, rows: Tensor):
    """Coordinates of every row of ``rows`` in the span of the rows of ``basis``.

    Returns (coords, None), where coords[t, r] is the coefficient of basis
    row r in row t, or (None, t) for the first row t outside the span.  The
    coefficients come from the RREF of [basis | identity], so a dependent
    basis gets one fixed choice of them.
    """
    r, k = basis.shape
    if rows.rank != 2 or rows.shape[1] != k:
        raise ShapeError(f"rows of shape {rows.shape} against a basis of shape {basis.shape}")
    f = basis.field
    reduced, pivots = rref(_augment(basis))
    solve = [(pc, row) for pc, row in zip(pivots, reduced) if pc < k]
    coords = {}
    for t, vec in enumerate(_rows(rows)):
        for pc, row in solve:
            if pc in vec:
                _subtract(vec, vec[pc], row, f.p)
        if any(j < k for j in vec):
            return None, t
        # vec now holds minus the coordinates in its identity columns
        coords.update({(t, j - k): f.neg(c) for j, c in vec.items()})
    return Tensor(f, (rows.shape[0], r), coords, _normalized=True), None
