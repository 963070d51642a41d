"""Sparse exact tensors and the dense linear algebra built on them.

A Tensor stores only nonzero entries in a dict keyed by multi-index, so the
very sparse structure constants of group and Taft algebras stay cheap.  Two
tensors are equal exactly when their entry maps are equal; every operation
returns normalized entries (no stored zeros, residues reduced).

``contract`` sums over paired axes; the unpaired axes of the left operand come
first in the output, then those of the right operand.  The empty pairing is
the Kronecker (outer) product.  It names the axes with letters and hands them
to ``hayd.identity.evaluate``, the package's one sparse contraction.
``reshape`` merges or splits axes in row-major order, which is how the
flattened pair indices of product spaces are written.  Matrix utilities (inverse, rank, kernels,
solving inside a span) work on dense scalar rows internally; dimensions here
stay at desk scale, so dense elimination is fine.
"""

from __future__ import annotations

from math import prod

from .errors import ShapeError, SingularMatrixError
from .fields import Field

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class Tensor:
    __slots__ = ("field", "shape", "entries")

    def __init__(self, field: Field, shape, entries=None, *, _normalized=False):
        self.field = field
        self.shape = tuple(int(d) for d in shape)
        if any(d < 0 for d in self.shape):
            raise ShapeError(f"negative dimension in shape {self.shape}")
        if _normalized:
            self.entries = entries
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
            if not field.is_zero(c):
                norm[idx] = c
        self.entries = norm

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

    __hash__ = None

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

    def scale(self, c):
        f = self.field
        if f.is_zero(c):
            return Tensor.zeros(f, self.shape)
        return Tensor(
            f, self.shape, {idx: f.mul(c, v) for idx, v in self.entries.items()}, _normalized=True
        )

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
        entries = {}
        for idx, c in self.entries.items():
            flat = 0
            for i, d in zip(idx, self.shape):
                flat = flat * d + i
            new = []
            for d in reversed(shape):
                flat, i = divmod(flat, d)
                new.append(i)
            entries[tuple(reversed(new))] = c
        return Tensor(self.field, shape, entries, _normalized=True)


def contract(t: Tensor, u: Tensor, pairs) -> Tensor:
    return t.contract(u, pairs)


# -- dense elimination core ---------------------------------------------------
#
# Dense routines take lists of row lists.  Orientation note: hayd stores linear
# maps as (input, output) tensors and applies them to row vectors, v -> v @ M.


def to_rows(m: Tensor):
    if m.rank != 2:
        raise ShapeError(f"expected a matrix, got rank {m.rank}")
    rows = [[m.field.zero] * m.shape[1] for _ in range(m.shape[0])]
    for (i, j), c in m.entries.items():
        rows[i][j] = c
    return rows


def from_rows(field, rows) -> Tensor:
    n = len(rows)
    k = len(rows[0]) if rows else 0
    entries = {}
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            if not field.is_zero(c):
                entries[(i, j)] = c
    return Tensor(field, (n, k), entries, _normalized=True)


def rref(rows, field):
    """Row-reduce in place on a copy; returns (reduced rows, pivot columns)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not field.is_zero(rows[i][col]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(inv, c) for c in rows[r]]
        for i in range(len(rows)):
            if i != r and not field.is_zero(rows[i][col]):
                factor = rows[i][col]
                rows[i] = [
                    field.sub(a, field.mul(factor, b)) for a, b in zip(rows[i], rows[r])
                ]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def matrix_rank(m: Tensor) -> int:
    _, pivots = rref(to_rows(m), m.field)
    return len(pivots)


def invert_matrix(m: Tensor) -> Tensor:
    """Exact inverse of a square matrix; raises SingularMatrixError with the rank."""
    if m.rank != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"cannot invert shape {m.shape}")
    n = m.shape[0]
    f = m.field
    aug = [row + [f.one if i == j else f.zero for j in range(n)] for i, row in enumerate(to_rows(m))]
    reduced, pivots = rref(aug, f)
    if pivots[:n] != list(range(n)) or len([p for p in pivots if p < n]) != n:
        rank = len([p for p in pivots if p < n])
        raise SingularMatrixError("matrix is not invertible", rank=rank)
    inv_rows = [row[n:] for row in reduced[:n]]
    return from_rows(f, inv_rows)


def nullspace(rows, field):
    """Basis of {x : rows @ x = 0} (column vectors, returned as row lists)."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(reduced[r][fc])
        basis.append(vec)
    return basis


def kernel_rows(m: Tensor):
    """Basis of the left kernel {v : v @ m = 0}, as rank-1 Tensors."""
    f = m.field
    rows = to_rows(m)
    nrows = len(rows)
    cols = [[rows[i][j] for i in range(nrows)] for j in range(m.shape[1])]
    return [Tensor(f, (nrows,), {(i,): c for i, c in enumerate(v)}) for v in nullspace(cols, f)]


class SpanSolver:
    """Coordinates of vectors inside the span of a fixed list of rows."""

    def __init__(self, field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.ncols = len(rows[0]) if rows else 0
        aug = [list(r) + [field.one if i == j else field.zero for j in range(len(rows))]
               for i, r in enumerate(rows)]
        reduced, pivots = rref(aug, field) if rows else ([], [])
        self.pivots = [p for p in pivots if p < self.ncols]
        self.reduced = reduced

    def coords(self, vec):
        """Return x with x @ rows == vec, or None if vec is outside the span."""
        f = self.field
        v = list(vec)
        coeff = [f.zero] * len(self.rows)
        for r, pc in enumerate(self.pivots):
            c = v[pc]
            if f.is_zero(c):
                continue
            row = self.reduced[r]
            for j in range(self.ncols):
                v[j] = f.sub(v[j], f.mul(c, row[j]))
            for j in range(len(self.rows)):
                coeff[j] = f.add(coeff[j], f.mul(c, row[self.ncols + j]))
        if any(not f.is_zero(c) for c in v):
            return None
        return coeff
