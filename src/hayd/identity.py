"""One evaluator for the identities that define, and the einsums that build,
every structure in hayd.

Each axiom is an ``Identity``: two multilinear expressions in structure
tensors that must agree for every value of the witness letters.  A side is a
product of factors written einsum-style, ``(tensor, "ijm")``, one letter per
axis.  Letters shared between factors are summed over unless they are witness
letters (the basis tuple a failure names) or output letters (the axes of the
slice tensors a failure reports).  Constant sides use the unit, the counit
and ``Tensor.identity`` (the Kronecker delta) as factors; the empty product
is the scalar 1 and ``None`` is the zero side.  For example associativity is

    Identity("associativity", "ijk", "l",
             [(mult, "ijm"), (mult, "mkl")], [(mult, "iml"), (mult, "jkm")])

Evaluation takes one value of the first witness letter at a time.  Within
that slice each side joins its factors in the order written, looking each one
up in a sparse row index keyed by the letters already bound, and sums a letter
out as soon as no later factor and no witness or output letter needs it, so
the factor order of a spec is its evaluation order.  Over F_p residues are
reduced once per accumulated key (Python ints are exact, so nothing
overflows); over Q integral constants are carried as ints.  A failure reports
the least key on which the two sides differ in the first failing slice: its
witness part is the lexicographically first violating basis tuple, and lhs
and rhs are both sides' slices there.  No whole side is ever built, and the
scan stops at the first failing slice.

``evaluate(out, factors)`` runs the same join on one factor list with no
witness slice and returns the whole result as a Tensor with axes in the order
of ``out``.  Every builder is such a spec: the product spaces, the double's
coalgebra and antipode, tensor products, entwinings, the adjoint and sandwich
actions, and ``Tensor.contract`` itself, so this module holds the package's
only sparse contraction loop.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .errors import ShapeError
from .report import Report
from .tensor import Tensor


class Identity:
    """``lhs == rhs`` for every value of the witness letters.

    ``witness`` and ``out`` are strings of letters; every one of them must
    occur on each side that is not ``None``.
    """

    def __init__(self, label: str, witness: str, out: str, lhs, rhs):
        self.label = label
        self.witness = witness
        self.out = out
        self.lhs = tuple(lhs)
        self.rhs = None if rhs is None else tuple(rhs)
        self.field = self.lhs[0][0].field
        self.dims: dict[str, int] = {}  # of the witness and output letters
        for side in (self.lhs, self.rhs or ()):
            dims: dict[str, int] = {}  # summed letters are local to a side
            for tensor, letters in side:
                if tensor.field is not self.field and tensor.field != self.field:
                    raise ShapeError(f"{label}: factors over {self.field} and {tensor.field}")
                if len(letters) != tensor.rank or len(set(letters)) != len(letters):
                    raise ShapeError(f"{label}: letters {letters!r} do not index {tensor.shape}")
                for letter, dim in zip(letters, tensor.shape):
                    if dims.setdefault(letter, dim) != dim:
                        raise ShapeError(f"{label}: letter {letter!r} has two dimensions")
            for letter in witness + out:
                if letter in dims and self.dims.setdefault(letter, dims[letter]) != dims[letter]:
                    raise ShapeError(f"{label}: letter {letter!r} has two dimensions")
        if set(witness + out) - set(self.dims):
            raise ShapeError(f"{label}: no factor indexes every letter of {witness + out!r}")


def check(ok_label: str, *groups) -> Report:
    """Scan each group of identities in turn; the first failure wins.

    A group is one Identity or a sequence of identities sharing the range of
    their first witness letter.  The identities of a group are scanned slice
    by slice together, so the least failing witness across the group is
    reported, and at equal witnesses the identity listed first.
    """
    for group in groups:
        report = _first_failure((group,) if isinstance(group, Identity) else tuple(group))
        if report is not None:
            return report
    return Report.ok(ok_label)


def evaluate(out: str, factors) -> Tensor:
    """The einsum of ``factors`` (``(tensor, letters)`` pairs, joined in the
    order written), with result axes in the order of ``out``.

    Letters not in ``out`` are summed over.  Over Q the entries are
    Fractions, over F_p reduced residues; zeros are dropped.
    """
    ident = Identity("evaluate", "", out, factors, None)
    field = ident.field
    entries = _evaluate(_plan(ident, ident.lhs, {}), ())
    if field.p is None:
        entries = {k: Fraction(c) for k, c in entries.items()}
    shape = tuple(ident.dims[x] for x in out)
    return Tensor(field, shape, entries, _normalized=True)


def _first_failure(identities) -> Report | None:
    cache: dict = {}
    plans = [(ident, _plan(ident, ident.lhs, cache), _plan(ident, ident.rhs, cache))
             for ident in identities]
    lead = identities[0]
    starts = [(v,) for v in range(lead.dims[lead.witness[0]])] if lead.witness else [()]
    for start in starts:
        best = None
        for ident, lplan, rplan in plans:
            lhs = _evaluate(lplan, start)
            rhs = _evaluate(rplan, start) if rplan is not None else {}
            if lhs == rhs:
                continue
            key = min(k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))
            witness = key[: len(ident.witness)]
            if best is None or witness < best[0]:
                best = (witness, ident, lhs, rhs)
        if best is not None:
            return _report(*best)
    return None


def _evaluate(plan, start) -> dict:
    """One slice of a side: its nonzero entries keyed by the result letters
    in order, reduced mod p over F_p, in a single pass after the join."""
    steps, order, p = plan
    state = {start: 1}
    for rows, bound, keep in steps:
        nxt: dict = {}
        get = nxt.get
        for key, c in state.items():
            hits = rows.get(bound(key))
            if hits:
                if keep is not None:
                    key = keep(key)
                for new, d in hits:
                    k = key + new
                    nxt[k] = get(k, 0) + c * d
        state = nxt
    items = state.items()
    if p is None:
        if order is None:
            return {k: c for k, c in items if c}
        return {order(k): c for k, c in items if c}
    if order is None:
        return {k: r for k, c in items if (r := c % p)}
    return {order(k): r for k, c in items if (r := c % p)}


def _plan(ident: Identity, side, cache):
    """Per factor: its row index, the lookup key into it, and the projection
    of the bound letters that a later factor or the result still needs; new
    letters that nothing needs are summed out inside the row index.  Then the
    permutation that puts the result letters in order, and the characteristic."""
    if side is None:
        return None
    result = ident.witness + ident.out
    live = ident.witness[:1]
    steps = []
    for pos, (tensor, letters) in enumerate(side):
        needed = set(result).union(*(later for _, later in side[pos + 1:]))
        bound = [letters.index(x) for x in live if x in letters]
        old = "".join(x for x in live if x in needed)
        new = "".join(x for x in letters if x not in live and x in needed)
        rows = _rows(tensor, bound, [letters.index(x) for x in new], cache)
        keep = None if old == live else _tuple_getter([live.index(x) for x in old])
        steps.append((rows, _getter([live.index(letters[p]) for p in bound]), keep))
        live = old + new
    if sorted(live) != sorted(result):
        raise ShapeError(f"{ident.label}: a side does not bind {result!r}")
    order = None if live == result else _tuple_getter([live.index(x) for x in result])
    return steps, order, ident.field.p


def _rows(tensor: Tensor, bound, new, cache) -> dict:
    """Entries grouped by their bound coordinates: key -> [(new coordinates, c)]."""
    token = (id(tensor), tuple(bound), tuple(new))
    if token not in cache:
        key, rest = _getter(bound), _tuple_getter(new)
        exact = tensor.field.p is None
        rows: dict = {}
        for idx, c in tensor.entries.items():
            if exact and c.denominator == 1:
                c = c.numerator
            rows.setdefault(key(idx), []).append((rest(idx), c))
        cache[token] = rows
    return cache[token]


def _getter(positions):
    """Row-index key of the given positions: a scalar for one, else a tuple."""
    return itemgetter(*positions) if positions else (lambda key: ())


def _tuple_getter(positions):
    """The given positions as a tuple."""
    if len(positions) == 1:
        (p,) = positions
        return lambda key: (key[p],)
    return _getter(positions)


def _report(witness, ident: Identity, lhs: dict, rhs: dict) -> Report:
    n = len(ident.witness)
    field = ident.field
    shape = tuple(ident.dims[x] for x in ident.out)
    scalar = Fraction if field.p is None else int

    def at_witness(side):
        entries = {k[n:]: scalar(c) for k, c in side.items() if k[:n] == witness}
        return Tensor(field, shape, entries, _normalized=True)

    # an identity without witness letters reports the placeholder (0,)
    return Report.fail(ident.label, witness or (0,), at_witness(lhs), at_witness(rhs))
