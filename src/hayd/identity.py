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
that slice each side joins its factors in the order written, so the factor
order of a spec is its evaluation order.  A partial term is keyed by one int
with a bit field per bound letter, ``(dim - 1).bit_length()`` bits wide.  The
witness letters, then the output letters, sit in the low bits with the first
one most significant, so integer order is the lexicographic order of the
result tuple.  A letter summed between two factors takes the lowest bits that
no other letter holds meanwhile, often those of an output letter not yet
bound.  Each factor is looked up in a sparse row index keyed by its bound
letters' fields (``rows.get(key & bmask)``); the letters that no later factor
and no result needs are masked off (``key &= kmask``) and the factor's new
letters ORed in, and a new letter that nothing needs is summed out inside the
row index.

Both sides of an identity accumulate into one dict per slice, the lhs with
sign +1 and the rhs with -1.  The slice passes when every value is 0 over Q,
or 0 mod p over F_p; Python ints are exact, so nothing overflows, and over Q
integral constants are carried as ints.  A failure reports the least key with
a nonzero value in the first failing slice: its witness part is the
lexicographically first violating basis tuple.  Only then are the failing
identity's two sides evaluated apart on that slice, for the lhs and rhs
slices the report shows.  No whole side is ever built, and the scan stops at
the first failing slice.

Inside a ``ledger()`` scope, which ``suite.run_suite`` opens per target,
each identity is proved once.  Its key is the identity as a value, label
aside: the numbers of witness and output letters, then each side's factors
in order as (tensor, letter pattern), result letters numbered by their place
in ``witness + out`` and summed ones by first appearance on their side.  A
hit is a set lookup, so equal hashes are confirmed by ``==`` on every tensor:
exactly this statement was proved.  Only passing groups are recorded, so a
failure is always scanned; proved identities never fail, so a partly proved
group reports the least witness of the whole group.

An identity reduced to generator rows (``on_generators``) shares a ``check``
call with the preconditions that make its scan a proof.  When a group of
that call fails at or after the first group that holds a reduced identity,
``check`` rescans from that group on with each reduced identity replaced by
its full one and returns that report, the full scan's; the groups before it
are the same in full and have passed.

``evaluate(out, factors)`` runs the same join on one factor list with no
witness slice, decodes the keys to tuples once at the end, and returns the
whole result as a Tensor with axes in the order of ``out``.  Every builder is
such a spec: the product spaces, the double's coalgebra and antipode, tensor
products, entwinings, the adjoint and sandwich actions, and
``Tensor.contract`` itself.  The one other sparse contraction loop is
``tensor.closure_rank``'s, which maps each word by hand.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction

from .errors import ShapeError
from .report import Report
from .tensor import Tensor


class Identity:
    """``lhs == rhs`` for every value of the witness letters.

    ``witness`` and ``out`` are strings of letters; every one of them must
    occur on each side that is not ``None``.  ``full`` is None, or for an
    identity reduced by ``on_generators`` the identity it stands for.
    """

    def __init__(self, label: str, witness: str, out: str, lhs, rhs, full=None):
        self.label = label
        self.full = full  # not self: a cycle would outlive reference counting
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

    A group is one Identity or a nonempty sequence of identities sharing the
    range of their first witness letter (a ShapeError otherwise).  The
    identities of a group are scanned slice by slice together, so the least
    failing witness across the group is reported, and at equal witnesses the
    identity listed first.  Inside a ``ledger()`` scope, identities already
    proved there are not scanned again, and each group that passes is
    recorded.  A failure at or after a reduced identity is rescanned in
    full (see the module docstring).
    """
    groups = [(group,) if isinstance(group, Identity) else tuple(group) for group in groups]
    if not all(groups):
        raise ShapeError(f"{ok_label}: a group holds no identity")
    at, report = _scan(groups)
    if report is None:
        return Report.ok(ok_label)
    for n, group in enumerate(groups[:at + 1]):
        if any(ident.full is not None for ident in group):
            # the groups before n are the same in full and have passed
            return _scan([tuple(ident.full or ident for ident in group)
                          for group in groups[n:]])[1]
    return report


def _scan(groups) -> tuple[int, Report | None]:
    """The index and the report of the first failing group, in order, or
    ``(len(groups), None)``."""
    proved = _LEDGER.get()
    for n, group in enumerate(groups):
        if proved is None:
            report = _first_failure(group)
        else:
            todo = [(key, ident) for ident in group if (key := _key(ident)) not in proved]
            report = _first_failure(tuple(ident for _, ident in todo)) if todo else None
            if report is None:
                proved.update(key for key, _ in todo)
        if report is not None:
            return n, report
    return len(groups), None


_LEDGER: ContextVar[set | None] = ContextVar("ledger", default=None)


@contextmanager
def ledger():
    """A fresh set of proved keys for ``check``; the outer one returns on exit."""
    token = _LEDGER.set(set())
    try:
        yield
    finally:
        _LEDGER.reset(token)


def _key(ident: Identity) -> tuple:
    """The identity as a value, the ledger's key (see the module docstring)."""
    result = {x: n for n, x in enumerate(ident.witness + ident.out)}

    def side(factors):
        names = dict(result)
        return tuple((t, tuple([names.setdefault(x, len(names)) for x in letters]))
                     for t, letters in factors)

    return (len(ident.witness), len(ident.out), side(ident.lhs),
            None if ident.rhs is None else side(ident.rhs))


def on_generators(ident: Identity, generators: Tensor | None) -> Identity:
    """``ident`` with its first witness argument running over the rows of the
    matrix ``generators`` (row g holds an element x_g in the basis that the
    first witness letter indexes) instead of over the basis; ``ident``
    itself when ``generators`` is None.

    A new letter g is prepended to each side with the factor
    ``(generators, "g" + first)`` and becomes the first witness letter; the
    old first letter is summed.  The scan then has one slice per generator.

    Lemma.  Let A be an algebra with unit 1 and G a set of its elements such
    that the smallest subspace of A that holds 1 and is closed under left
    multiplication by G is A itself.  ``FinAlgebra.verify`` proves that by
    elimination (``algebra.left_closure_rank``); for A_H and the double, G
    is the e_i* (x) 1 and counit (x) e_j for generators e_i* of the dual and
    e_j of H.  Let S be the set of x in A for which the identity holds with
    x in the first slot and basis elements in the others.  Each side is
    linear in x, so S is a subspace.  The reduced scan proves G in S.  If 1
    is in S and S is closed under left multiplication by G, then S contains
    that smallest subspace, so S = A: the reduced scan is an exhaustive
    proof.  The two conditions, case by case, with g in G, x in S and the
    other arguments arbitrary:

    * associativity, (x y) z = x (y z), given the unit axioms: 1 is in S as
      (1 y) z = y z = 1 (y z); and ((g x) y) z = (g (x y)) z = g ((x y) z)
      = g (x (y z)) = (g x)(y z), using g in S three times and x in S once.
    * module-associativity, (x y) m = x (y m), given associativity of A and
      1 m = m: (1 y) m = y m = 1 (y m); and ((g x) y) m = (g (x y)) m
      = g ((x y) m) = g (x (y m)) = (g x)(y m).
    * bialgebra-mult, cop(x y) = cop(x) cop(y) for the coproduct cop (and
      bialgebra-counit, the same for the counit), given associativity of A
      and cop(1) = 1 (x) 1: 1 is in S by the unit axioms of A and A (x) A;
      and cop((g x) y) = cop(g (x y)) = cop(g) cop(x) cop(y)
      = cop(g x) cop(y), since A (x) A is associative.
    * coaction-multiplicative, r(a b) = r(a) r(b) for the coaction
      r: A -> A (x) K, given associativity of A and of K and r(1) = 1 (x) 1:
      the same chain with A (x) K in place of A (x) A.

    A caller states the reduced identity in one ``check`` call with the
    preconditions it rests on; ``check`` rescans a failure at or after it
    with the full identity, so a report never depends on the generators.
    """
    if generators is None:
        return ident
    letters = set(ident.witness + ident.out)
    for side in (ident.lhs, ident.rhs or ()):
        for _, idx in side:
            letters.update(idx)
    g = next(x for x in "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ" if x not in letters)
    factor = (generators, g + ident.witness[0])
    return Identity(
        ident.label, g + ident.witness[1:], ident.out,
        [factor, *ident.lhs], None if ident.rhs is None else [factor, *ident.rhs], full=ident,
    )


def evaluate(out: str, factors) -> Tensor:
    """The einsum of ``factors`` (``(tensor, letters)`` pairs, joined in the
    order written), with result axes in the order of ``out``.

    Letters not in ``out`` are summed over.  Over Q the entries are
    Fractions, over F_p reduced residues; zeros are dropped.
    """
    ident = Identity("evaluate", "", out, factors, None)
    field = ident.field
    fields = _layout(ident)
    acc = _accumulate(_plan(ident, ident.lhs, fields, {}), 0, 1, {})
    # decoding is a large share of a contraction with many outputs: one
    # comprehension per axis, zip builds the tuples, and zeros are dropped
    # in the same pass
    axes = [[(k & mask) >> shift for k in acc] for shift, mask in map(fields.get, out)]
    idxs = zip(*axes) if axes else [()] * len(acc)
    if field.p is None:
        entries = {i: Fraction(c) for i, c in zip(idxs, acc.values()) if c}
    else:
        entries = {i: r for i, c in zip(idxs, acc.values()) if (r := c % field.p)}
    shape = tuple(ident.dims[x] for x in out)
    return Tensor(field, shape, entries, _normalized=True)


def _first_failure(identities) -> Report | None:
    cache: dict = {}
    scans = []
    for ident in identities:
        fields = _layout(ident)
        shift = fields[ident.witness[0]][0] if ident.witness else 0
        scans.append((ident, fields, shift, _plan(ident, ident.lhs, fields, cache),
                      _plan(ident, ident.rhs, fields, cache)))
    if len({ident.dims[ident.witness[0]] if ident.witness else None for ident in identities}) > 1:
        raise ShapeError(f"{', '.join(ident.label for ident in identities)}: "
                         "the first witness letters have different ranges")
    lead = identities[0]
    p = lead.field.p
    for v in range(lead.dims[lead.witness[0]] if lead.witness else 1):
        best = None
        for ident, fields, shift, lplan, rplan in scans:
            start = v << shift  # each identity has its own layout
            diff = _accumulate(lplan, start, 1, {})
            if rplan is not None:
                _accumulate(rplan, start, -1, diff)
            if p is None:
                bad = [k for k, c in diff.items() if c]
            else:
                bad = [k for k, c in diff.items() if c % p]
            if not bad:
                continue
            witness = _unpack(min(bad), [fields[x] for x in ident.witness])
            if best is None or witness < best[0]:
                best = (witness, ident, fields, start, lplan, rplan)
        if best is not None:
            return _report(*best)
    return None


def _accumulate(steps, start, sign, acc: dict) -> dict:
    """Add ``sign`` times one slice of a side into ``acc``, keyed by the
    packed result letters; nothing is reduced mod p."""
    state = {start: sign}
    last = len(steps) - 1
    for n, (rows, bmask, kmask) in enumerate(steps):
        nxt = acc if n == last else {}
        get = nxt.get
        for key, c in state.items():
            hits = rows.get(key & bmask)
            if hits:
                key &= kmask
                for new, d in hits:
                    k = key | new
                    nxt[k] = get(k, 0) + c * d
        state = nxt
    if not steps:
        acc[start] = acc.get(start, 0) + sign
    return acc


def _side(steps, start, p) -> dict:
    """One slice of a side: its nonzero entries by packed key, reduced mod p
    over F_p."""
    items = _accumulate(steps, start, 1, {}).items()
    if p is None:
        return {k: c for k, c in items if c}
    return {k: r for k, c in items if (r := c % p)}


def _layout(ident: Identity) -> dict:
    """The bit field ``(shift, mask)`` of each result letter: the witness
    letters, then the output letters, the first one most significant."""
    fields = {}
    at = 0
    for x in reversed(ident.witness + ident.out):
        width = (ident.dims[x] - 1).bit_length()
        fields[x] = (at, ((1 << width) - 1) << at)
        at += width
    return fields


def _plan(ident: Identity, side, fields, cache):
    """Per factor: its row index, the mask of the bound letters that picks
    a row, and the mask of the bound letters that a later factor or the
    result still needs; new letters that nothing needs are summed out inside
    the row index."""
    if side is None:
        return None
    result = ident.witness + ident.out
    first = dict.fromkeys(ident.witness[:1], 0)  # the step that binds each letter
    last = {}
    for pos, (_, letters) in enumerate(side):
        for x in letters:
            first.setdefault(x, pos)
            last[x] = pos
    end = dict.fromkeys(result, len(side))  # the step that unbinds each letter
    fields = dict(fields)
    live = list(ident.witness[:1])
    steps = []
    for pos, (tensor, letters) in enumerate(side):
        bound, new, bmask = [], [], 0
        for axis, x in enumerate(letters):
            if x in live:
                shift, mask = fields[x]
                bound.append((axis, shift))
                bmask |= mask
            elif end.setdefault(x, last[x]) > pos:
                if x not in fields:
                    fields[x] = _free_field(fields, first, end, x, tensor.shape[axis])
                new.append((axis, fields[x][0]))
        live = [x for x in live if end[x] > pos]
        kmask = 0
        for x in live:
            kmask |= fields[x][1]
        live += [letters[axis] for axis, _ in new]
        steps.append((_rows(tensor, bound, new, cache), bmask, kmask))
    if sorted(live) != sorted(result):
        raise ShapeError(f"{ident.label}: a side does not bind {result!r}")
    return steps


def _free_field(fields, first, end, x, dim):
    """A field for a letter summed between two factors: the lowest bits that
    no letter bound at the same time holds, often those of a result letter
    not yet bound.

    This keeps the keys of the dim-81 scans within one 30-bit CPython digit.
    Fixed fields above the result letters instead made the ``battery``
    benchmark's median operation 4 % slower (2.11 -> 2.20 s, 5 of 6
    alternating pairs) and ``corrupt``'s 5 % slower on a 2-vCPU KVM guest.
    """
    busy = 0
    for y, (_, mask) in fields.items():
        if first.get(y, end[y]) < end[x] and first[x] < end[y]:
            busy |= mask
    mask = (1 << (dim - 1).bit_length()) - 1
    shift = 0
    while busy & mask << shift:
        shift += 1
    return shift, mask << shift


def _unpack(key: int, axes) -> tuple:
    """The letters at ``axes``, a list of ``(shift, mask)`` fields, of a key."""
    return tuple([(key & mask) >> shift for shift, mask in axes])


def _rows(tensor: Tensor, bound, new, cache) -> dict:
    """Entries grouped by their bound letters: packed key -> [(packed new
    letters, c)], for ``(axis, shift)`` lists ``bound`` and ``new``."""
    token = (id(tensor), *bound, None, *new)  # None ends the bound fields
    rows = cache.get(token)
    if rows is None:
        rows = cache[token] = defaultdict(list)
        exact = tensor.field.p is None
        for idx, c in tensor.entries.items():
            if exact and c.denominator == 1:
                c = c.numerator
            key = packed = 0
            for axis, shift in bound:
                key |= idx[axis] << shift
            for axis, shift in new:
                packed |= idx[axis] << shift
            rows[key].append((packed, c))
    return rows


def _report(witness, ident: Identity, fields, start, lplan, rplan) -> Report:
    field = ident.field
    shape = tuple(ident.dims[x] for x in ident.out)
    scalar = Fraction if field.p is None else int
    at = [fields[x] for x in ident.witness]
    axes = [fields[x] for x in ident.out]

    def at_witness(plan):
        side = {} if plan is None else _side(plan, start, field.p)
        entries = {_unpack(k, axes): scalar(c) for k, c in side.items()
                   if _unpack(k, at) == witness}
        return Tensor(field, shape, entries, _normalized=True)

    # an identity without witness letters reports the placeholder (0,)
    return Report.fail(ident.label, witness or (0,), at_witness(lplan), at_witness(rplan))
