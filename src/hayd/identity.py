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
bound.

That layout, and each side's join skeleton (per factor: the key of its
row-index builder, the shifts of its bound and new letters, and two masks),
depend only on the identity's signature: its witness and output letters and
the letters and shape of each factor.  ``Identity`` validates a signature
and computes them once, in a module-level memo that holds no tensor and no
entry value; every identity of that signature shares the entry.  A
malformed signature is never recorded, so it raises ShapeError on every
construction, and the factors' fields are checked per identity.

A scan then only builds row indexes.  Each factor is looked up in a sparse
row index keyed by its bound letters' fields (``rows.get(key & bmask)``);
the letters that no later factor and no result needs are masked off
(``key &= kmask``) and the factor's new letters ORed in, and a new letter
that nothing needs is summed out inside the row index.  An index is built
by a function compiled once per (rank, bound axes, new axes, filtered),
which unpacks each entry's index into locals and takes the shifts as
arguments, so no loop runs over an entry's axes; the memo keeps only its
key.  The indexes of one ``check`` group are shared by token (tensor,
builder key, shifts), and none outlives its ``check`` call.  A side's second
factor is indexed only at the keys its first factor can produce from the
slices' keys, when the first factor is small: for the unit laws the
first factor is the unit and for a reduced identity the generator matrix,
which reach a few rows of a product of thousands of entries.  Such an index
serves only the side it was built for.

Both sides of an identity accumulate into one dict per slice, the lhs with
sign +1 and the rhs with -1.  The slice passes when every value is 0 over Q,
or 0 mod p over F_p; Python ints are exact, so nothing overflows.  Over Q
the entries are in the normal form of ``hayd.fields``, so integral constants
are multiplied, and the ledger hashes and compares them, as ints.  A failure
reports the least key with a nonzero value in the first failing slice: its
witness part is the lexicographically first violating basis tuple.  Only
then are the failing identity's two sides evaluated apart on that slice, for
the lhs and rhs slices the report shows.  No whole side is ever built, and
the scan stops at the first failing slice.

Inside a ``ledger()`` scope, which ``suite.run_suite`` opens per target,
each identity is proved once.  Its key is the identity as a value, label
aside: its letter pattern from the memo (the numbers of witness and output
letters, then each side's letters, result letters numbered by their place in
``witness + out`` and summed ones by first appearance on their side), then
the tensors of its factors in order.  A hit is a set lookup, so equal hashes
are confirmed by ``==`` on every tensor: exactly this statement was proved.
Only passing groups are recorded, so a failure is always scanned; proved
identities never fail, so a partly proved group reports the least witness of
the whole group.

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
``tensor.closure``'s, which maps each word by hand.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import NamedTuple

from .errors import ShapeError
from .fields import q_normal
from .report import Report
from .tensor import Tensor


class Identity:
    """``lhs == rhs`` for every value of the witness letters.

    ``witness`` and ``out`` are strings of letters; every one of them must
    occur on each side that is not ``None``.  ``full`` is None, or for an
    identity reduced by ``on_generators`` the identity it stands for.
    ``compiled`` is what the letters and shapes alone determine, shared by
    every identity of the same signature (see ``_compile``).
    """

    def __init__(self, label: str, witness: str, out: str, lhs, rhs, full=None):
        self.label = label
        self.full = full  # not self: a cycle would outlive reference counting
        self.witness = witness
        self.out = out
        self.lhs = tuple(lhs)
        self.rhs = None if rhs is None else tuple(rhs)
        self.field = self.lhs[0][0].field
        for tensor, _ in self.lhs + (self.rhs or ()):
            if tensor.field is not self.field and tensor.field != self.field:
                raise ShapeError(f"{label}: factors over {self.field} and {tensor.field}")
        signature = (witness, out, *[None if side is None else
                                     tuple([(letters, t.shape) for t, letters in side])
                                     for side in (self.lhs, self.rhs)])
        self.compiled = _COMPILED.get(signature) or _compile(label, signature)


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
    """The identity as a value, the ledger's key (see the module docstring):
    its letter pattern, then its factors' tensors in order."""
    return (ident.compiled.pattern, *[t for t, _ in ident.lhs], *[t for t, _ in ident.rhs or ()])


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

    Letters not in ``out`` are summed over.  Over Q the entries are in the
    normal form of ``hayd.fields``, over F_p reduced residues; zeros are
    dropped.
    """
    ident = Identity("evaluate", "", out, factors, None)
    field = ident.field
    compiled = ident.compiled
    acc = _accumulate(_plan(ident.lhs, compiled.lhs, compiled.starts, {}), 0, 1, {})
    # decoding is a large share of a contraction with many outputs: one
    # comprehension per axis, zip builds the tuples, and zeros are dropped
    # in the same pass
    axes = [[(k & mask) >> shift for k in acc] for shift, mask in compiled.out_fields]
    idxs = zip(*axes) if axes else [()] * len(acc)
    if field.p is None:
        entries = {i: q_normal(c) for i, c in zip(idxs, acc.values()) if c}
    else:
        entries = {i: r for i, c in zip(idxs, acc.values()) if (r := c % field.p)}
    return Tensor(field, compiled.shape, entries, _normalized=True)


def _first_failure(identities) -> Report | None:
    if len({ident.compiled.span for ident in identities}) > 1:
        raise ShapeError(f"{', '.join(ident.label for ident in identities)}: "
                         "the first witness letters have different ranges")
    cache: dict = {}
    scans = []
    for ident in identities:
        compiled = ident.compiled
        scans.append((ident, compiled.starts, compiled.witness_fields,
                      _plan(ident.lhs, compiled.lhs, compiled.starts, cache),
                      _plan(ident.rhs, compiled.rhs, compiled.starts, cache)))
    p = identities[0].field.p
    for v in range(len(identities[0].compiled.starts)):
        best = None
        for ident, starts, witness_fields, lplan, rplan in scans:
            start = starts[v]  # each identity has its own layout
            diff = _accumulate(lplan, start, 1, {})
            if rplan is not None:
                _accumulate(rplan, start, -1, diff)
            if p is None:
                bad = [k for k, c in diff.items() if c]
            else:
                bad = [k for k, c in diff.items() if c % p]
            if not bad:
                continue
            witness = _unpack(min(bad), witness_fields)
            if best is None or witness < best[0]:
                best = (witness, ident, start, lplan, rplan)
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
    """One slice of a side: its nonzero entries by packed key, in normal
    form over Q and reduced mod p over F_p."""
    items = _accumulate(steps, start, 1, {}).items()
    if p is None:
        return {k: q_normal(c) for k, c in items if c}
    return {k: r for k, c in items if (r := c % p)}


class _Compiled(NamedTuple):
    """What an identity's signature alone determines: no tensor, no entry."""

    span: int | None  # the range of the first witness letter; None without one
    starts: range  # the packed key of each slice
    witness_fields: tuple  # the (shift, mask) field of each witness letter
    out_fields: tuple  # and of each output letter
    shape: tuple  # of the output letters
    lhs: tuple  # per factor: its bound and new (axis, shift) fields, bmask, kmask
    rhs: tuple | None
    pattern: tuple  # the ledger key's letters (see the module docstring)


_COMPILED: dict[tuple, _Compiled] = {}


def _compile(label: str, signature) -> _Compiled:
    """Validate a signature ``(witness, out, lhs, rhs)``, each side a tuple
    of (letters, shape) or None, and record what it determines in
    ``_COMPILED``.  A malformed one raises ShapeError and is not recorded,
    so it raises again on every construction."""
    witness, out, lhs, rhs = signature
    result = witness + out
    dims: dict[str, int] = {}  # of the witness and output letters
    for side in (lhs, rhs or ()):
        local: dict[str, int] = {}  # summed letters are local to a side
        for letters, shape in side:
            if len(letters) != len(shape) or len(set(letters)) != len(letters):
                raise ShapeError(f"{label}: letters {letters!r} do not index {shape}")
            for letter, dim in zip(letters, shape):
                if local.setdefault(letter, dim) != dim:
                    raise ShapeError(f"{label}: letter {letter!r} has two dimensions")
        for letter in result:
            if letter in local and dims.setdefault(letter, local[letter]) != local[letter]:
                raise ShapeError(f"{label}: letter {letter!r} has two dimensions")
    if set(result) - set(dims):
        raise ShapeError(f"{label}: no factor indexes every letter of {result!r}")
    # the bit fields of the result letters, the first one most significant
    fields = {}
    at = 0
    for x in reversed(result):
        width = (dims[x] - 1).bit_length()
        fields[x] = (at, ((1 << width) - 1) << at)
        at += width
    span = dims[witness[0]] if witness else None
    shift = fields[witness[0]][0] if witness else 0
    numbers = {x: n for n, x in enumerate(result)}

    def pattern(side):
        names = dict(numbers)
        return tuple(tuple([names.setdefault(x, len(names)) for x in letters])
                     for letters, _ in side)

    entry = _COMPILED[_shared(signature)] = _Compiled(*map(_shared, (
        span, range(0, (span or 1) << shift, 1 << shift),
        tuple(fields[x] for x in witness),
        tuple(fields[x] for x in out), tuple(dims[x] for x in out),
        _skeleton(label, witness, out, lhs, fields),
        None if rhs is None else _skeleton(label, witness, out, rhs, fields),
        (len(witness), len(out), pattern(lhs), None if rhs is None else pattern(rhs)),
    )))
    return entry


_SHARED: dict[tuple, tuple] = {}


def _shared(value):
    """``value`` with every tuple in it replaced by an equal one that the
    memo already holds, if any: entries repeat most of their fields and
    steps, and sharing them keeps the memo under half its size."""
    if type(value) is not tuple:
        return value
    value = tuple([_shared(x) for x in value])
    return _SHARED.setdefault(value, value)


def _skeleton(label, witness, out, side, fields) -> tuple:
    """Per factor of one side: the key of its row-index builder (see
    ``_builder``) and the shifts of its bound letters, then of its new ones
    that a later factor or the result needs; the mask of the bound letters
    that picks a row, and the mask of the bound letters still needed after
    it.  New letters that nothing needs are summed out inside the row
    index."""
    result = witness + out
    first = dict.fromkeys(witness[:1], 0)  # the step that binds each letter
    last = {}
    for pos, (letters, _) in enumerate(side):
        for x in letters:
            first.setdefault(x, pos)
            last[x] = pos
    end = dict.fromkeys(result, len(side))  # the step that unbinds each letter
    fields = dict(fields)
    live = list(witness[:1])
    steps = []
    for pos, (letters, shape) in enumerate(side):
        bound, new, bmask = [], [], 0
        for axis, x in enumerate(letters):
            if x in live:
                shift, mask = fields[x]
                bound.append((axis, shift))
                bmask |= mask
            elif end.setdefault(x, last[x]) > pos:
                if x not in fields:
                    fields[x] = _free_field(fields, first, end, x, shape[axis])
                new.append((axis, fields[x][0]))
        live = [x for x in live if end[x] > pos]
        kmask = 0
        for x in live:
            kmask |= fields[x][1]
        live += [letters[axis] for axis, _ in new]
        steps.append(((len(letters), tuple([axis for axis, _ in bound]),
                       tuple([axis for axis, _ in new]), False),
                      tuple([shift for _, shift in bound + new]), bmask, kmask))
    if sorted(live) != sorted(result):
        raise ShapeError(f"{label}: a side does not bind {result!r}")
    return tuple(steps)


def _plan(side, skeleton, starts, cache):
    """Per factor of ``side``: its row index, then the masks of its
    skeleton step.  The second factor's index holds only the rows that the
    ``starts`` can reach when ``_reach`` finds them few."""
    if side is None:
        return None
    steps = []
    for n, ((tensor, _), (index, shifts, bmask, kmask)) in enumerate(zip(side, skeleton)):
        reach = _reach(steps[0], len(side[0][0].entries), starts, bmask,
                       len(tensor.entries)) if n == 1 else None
        steps.append((_rows(tensor, index, shifts, cache, reach), bmask, kmask))
    return steps


def _reach(first, nnz, starts, bmask, size):
    """The keys at which the slices from ``starts`` look up a side's second
    factor, of ``size`` entries: ``((k & kmask) | p) & bmask`` for each start
    k and each hit p of the first factor's row at k, as in ``_accumulate``.
    None when the second factor binds no letter, or when the first factor,
    of ``nnz`` entries, might give more than ``size / 4`` keys; one that
    does not bind the first witness letter, such as the unit in the unit
    laws, gives its hits once per start."""
    rows, bmask0, kmask0 = first
    if not bmask or 4 * nnz * (1 if bmask0 else len(starts)) > size:
        return None
    return {((k & kmask0) | p) & bmask for k in starts for p, _ in rows.get(k & bmask0, ())}


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


def _rows(tensor: Tensor, index, shifts, cache, reach=None) -> dict:
    """Entries grouped by their bound letters: packed key -> [(packed new
    letters, c)], built by the builder of the skeleton step's ``index`` with
    its ``shifts``.  An index is shared through ``cache`` unless ``reach``
    limits it to the keys in that set: such an index serves only the side it
    was built for."""
    if reach is not None:
        return _builder(index[:3] + (True,))(tensor.entries.items(), reach, *shifts)
    token = (id(tensor), index, shifts)
    rows = cache.get(token)
    if rows is None:
        rows = cache[token] = _builder(index)(tensor.entries.items(), None, *shifts)
    return rows


_BUILDERS: dict[tuple, object] = {}


def _builder(index):
    """The row-index builder of ``index = (rank, bound axes, new axes,
    filtered)``, compiled once: ``build(items, reach, *shifts)`` unpacks
    each entry's index into locals and ORs the bound axes, shifted by the
    first shifts, into the row key and the new axes, shifted by the rest,
    into the packed value; a filtered builder keeps only the keys in
    ``reach``.  The source text holds nothing but ints and fixed words."""
    build = _BUILDERS.get(index)
    if build is None:
        rank, bound, new, filtered = index
        terms = [f"i{axis} << s{n}" for n, axis in enumerate(bound + new)]
        params = ", ".join(["items", "reach", *[f"s{n}" for n in range(len(terms))]])
        names = ", ".join([f"i{axis}" if axis in bound + new else "_" for axis in range(rank)])
        source = (f"def build({params}):\n"
                  "    rows = defaultdict(list)\n"
                  f"    for [{names}], c in items:\n"
                  f"        key = {' | '.join(terms[:len(bound)]) or 0}\n"
                  + ("        if key in reach:\n    " if filtered else "")
                  + f"        rows[key].append(({' | '.join(terms[len(bound):]) or 0}, c))\n"
                  "    return rows\n")
        namespace = {"defaultdict": defaultdict}
        exec(source, namespace)
        build = _BUILDERS[index] = namespace["build"]
    return build


def _report(witness, ident: Identity, start, lplan, rplan) -> Report:
    field = ident.field
    compiled = ident.compiled
    mask = bits = 0  # of the witness letters, and their values
    for w, (shift, field_mask) in zip(witness, compiled.witness_fields):
        mask |= field_mask
        bits |= w << shift

    def at_witness(plan):
        side = {} if plan is None else _side(plan, start, field.p)
        entries = {_unpack(k, compiled.out_fields): c for k, c in side.items()
                   if k & mask == bits}
        return Tensor(field, compiled.shape, entries, _normalized=True)

    # an identity without witness letters reports the placeholder (0,)
    return Report.fail(ident.label, witness or (0,), at_witness(lplan), at_witness(rplan))
