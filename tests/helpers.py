"""Shared test utilities: independent dense oracles and structure builders.

The oracles here deliberately avoid the package's sparse machinery: they work
on dense nested lists with plain nested loops, so that agreement between the
two routes actually means something.
"""

from __future__ import annotations

from itertools import product

from hayd.fields import Field
from hayd.reps import ActionStructure, CoactionStructure
from hayd.ayd import TwoSidedStructure
from hayd.tensor import Tensor


def dense(t: Tensor):
    return t.to_nested()


def dense_get(nested, idx):
    node = nested
    for i in idx:
        node = node[i]
    return node


def entry_rows(t: Tensor, lead: int = 1):
    """Entries of t grouped by their first ``lead`` coordinates (a plain key
    for one): key -> list of (remaining coordinates..., coeff)."""
    rows = {}
    for idx, c in t.entries.items():
        key = idx[0] if lead == 1 else idx[:lead]
        rows.setdefault(key, []).append((*idx[lead:], c))
    return rows


def coproduct3_rows(H):
    """i -> list of (p, q, r, coeff) of the two-step coproduct (id (x) comult)
    comult; a triple may repeat, once per middle leg."""
    f = H.field
    rows = {}
    for (i, p, w), c in H.comult.entries.items():
        for (w2, q, r), d in H.comult.entries.items():
            if w2 == w:
                rows.setdefault(i, []).append((p, q, r, f.mul(c, d)))
    return rows


def dense_contract(field: Field, a, shape_a, b, shape_b, pairs):
    """Brute-force contraction over the full index space."""
    a_axes = [p[0] for p in pairs]
    b_axes = [p[1] for p in pairs]
    a_keep = [ax for ax in range(len(shape_a)) if ax not in a_axes]
    b_keep = [ax for ax in range(len(shape_b)) if ax not in b_axes]
    out_shape = [shape_a[ax] for ax in a_keep] + [shape_b[ax] for ax in b_keep]
    out = {}
    for aidx in product(*(range(d) for d in shape_a)):
        ca = dense_get(a, aidx)
        if field.is_zero(ca):
            continue
        for bidx in product(*(range(d) for d in shape_b)):
            if any(aidx[ai] != bidx[bi] for ai, bi in pairs):
                continue
            cb = dense_get(b, bidx)
            if field.is_zero(cb):
                continue
            key = tuple(aidx[ax] for ax in a_keep) + tuple(bidx[ax] for ax in b_keep)
            out[key] = field.add(out.get(key, field.zero), field.mul(ca, cb))
    return Tensor(field, tuple(out_shape), out)


def hopf_dense(H):
    """All structure tensors of H as dense nested lists."""
    return {
        "mult": dense(H.mult),
        "unit": dense(H.unit),
        "comult": dense(H.comult),
        "counit": dense(H.counit),
        "antipode": dense(H.antipode),
    }


def naive_hopf_axioms(H) -> list:
    """Re-verify every Hopf axiom with dense loops; returns failure labels."""
    f = H.field
    n = H.dim
    d = hopf_dense(H)
    mu, unit, cm, eps, s = d["mult"], d["unit"], d["comult"], d["counit"], d["antipode"]
    bad = []

    def eq(x, y):
        return x == y

    for i, j, k, l in product(range(n), repeat=4):
        lhs = sum_(f, (f.mul(mu[i][j][m], mu[m][k][l]) for m in range(n)))
        rhs = sum_(f, (f.mul(mu[j][k][m], mu[i][m][l]) for m in range(n)))
        if not eq(lhs, rhs):
            bad.append("associativity")
            break
    for i, k in product(range(n), repeat=2):
        left = sum_(f, (f.mul(unit[j], mu[j][i][k]) for j in range(n)))
        right = sum_(f, (f.mul(unit[j], mu[i][j][k]) for j in range(n)))
        want = f.one if i == k else f.zero
        if left != want or right != want:
            bad.append("unit")
            break
    for i, a, b, c in product(range(n), repeat=4):
        lhs = sum_(f, (f.mul(cm[i][m][c], cm[m][a][b]) for m in range(n)))
        rhs = sum_(f, (f.mul(cm[i][a][m], cm[m][b][c]) for m in range(n)))
        if lhs != rhs:
            bad.append("coassociativity")
            break
    for i, k in product(range(n), repeat=2):
        left = sum_(f, (f.mul(cm[i][j][k], eps[j]) for j in range(n)))
        right = sum_(f, (f.mul(cm[i][k][j], eps[j]) for j in range(n)))
        want = f.one if i == k else f.zero
        if left != want or right != want:
            bad.append("counit")
            break
    for i, j in product(range(n), repeat=2):
        rhs = [[f.zero] * n for _ in range(n)]
        for p, q, r, t in product(range(n), repeat=4):
            c = f.mul(cm[i][p][q], cm[j][r][t])
            if f.is_zero(c):
                continue
            for a in range(n):
                left = f.mul(c, mu[p][r][a])
                if f.is_zero(left):
                    continue
                for b in range(n):
                    rhs[a][b] = f.add(rhs[a][b], f.mul(left, mu[q][t][b]))
        mismatch = False
        for a, b in product(range(n), repeat=2):
            lhs = sum_(f, (f.mul(mu[i][j][m], cm[m][a][b]) for m in range(n)))
            if lhs != rhs[a][b]:
                mismatch = True
                break
        if mismatch:
            bad.append("bialgebra")
            break
    for i, l in product(range(n), repeat=2):
        left = f.zero
        right = f.zero
        for j, k, m in product(range(n), repeat=3):
            left = f.add(left, f.mul(f.mul(cm[i][j][k], s[j][m]), mu[m][k][l]))
            right = f.add(right, f.mul(f.mul(cm[i][j][k], s[k][m]), mu[j][m][l]))
        want = f.mul(eps[i], unit[l])
        if left != want or right != want:
            bad.append("antipode")
            break
    return bad


def sum_(field, items):
    total = field.zero
    for x in items:
        total = field.add(total, x)
    return total


# -- structure builders over group algebras ----------------------------------------


def graded_structure(H, group, grading, case, action_map=None):
    """Group-graded module in any case: the coaction tags the grade; the
    default action permutes basis vectors by (side-matching) conjugation,
    which needs the grading to be injective."""
    f = H.field
    n = H.dim
    m = len(grading)
    act_side = "left" if case[0] == "l" else "right"
    co_side = "left" if case[1] == "l" else "right"

    act_entries = {}
    for g in range(n):
        for a in range(m):
            if action_map is not None:
                b, c = action_map(g, a)
                c = f.coerce(c)
            else:
                if act_side == "left":
                    target = group.mul(group.mul(g, grading[a]), group.inverse(g))
                else:
                    target = group.mul(group.mul(group.inverse(g), grading[a]), g)
                matches = [b for b in range(m) if grading[b] == target]
                b, c = (matches[0], f.one) if matches else (a, f.zero)
            if not f.is_zero(c):
                act_entries[(g, a, b)] = c
    action = ActionStructure(act_side, m, Tensor(f, (n, m, m), act_entries))
    if co_side == "left":
        co = Tensor(f, (m, n, m), {(a, grading[a], a): f.one for a in range(m)})
    else:
        co = Tensor(f, (m, m, n), {(a, a, grading[a]): f.one for a in range(m)})
    return TwoSidedStructure(H, action, CoactionStructure(co_side, m, co))


def one_dim(H, delta, sigma, case):
    from hayd.ayd import one_dim_module

    return one_dim_module(H, delta, sigma, case)


# -- group-likes and characters -------------------------------------------------------


def _sign(field: Field, n: int) -> Tensor:
    """The sign of each element of C_2 (n = 2) or of S_3 (n = 6, permutations
    in lexicographic order) as a vector."""
    odd = [0, 1] if n == 2 else [0, 1, 1, 0, 0, 1]
    return Tensor(field, (n,), {(i,): field.coerce(-1 if o else 1) for i, o in enumerate(odd)})


def screening_misses(name, H):
    """(characters, group-likes) of the builtin ``name`` that are neither the
    counit or unit nor a (dual) basis vector: the sign characters of kC_2 and
    kS_3, Sweedler's g -> -1, taft-3-f7's g -> 2 and g -> 4, and the sign
    group-likes of k^C_2 and k^S_3."""
    f = H.field
    if name in ("group-c2", "group-s3"):
        return [_sign(f, H.dim)], []
    if name in ("fun-c2", "fun-s3"):
        return [], [_sign(f, H.dim)]
    if name == "sweedler-2":  # basis 1, x, g, gx
        return [Tensor(f, (4,), {(0,): 1, (2,): -1})], []
    if name == "taft-3-f7":  # g^a x^b at index 3a + b
        return [Tensor(f, (9,), {(3 * a,): lam**a for a in range(3)}) for lam in (2, 4)], []
    return [], []


def dense_is_element(H, v: Tensor, kind: str) -> bool:
    """eps(v) = 1 and cop(v) = v (x) v (kind 'group_like'), or v(1) = 1 and
    v(e_a e_b) = v(e_a) v(e_b) (kind 'character'), by dense loops."""
    f, r = H.field, range(H.dim)
    d, x = hopf_dense(H), dense(v)
    if kind == "group_like":
        scalar = sum_(f, (f.mul(x[i], d["counit"][i]) for i in r))

        def law(a, b):
            return sum_(f, (f.mul(x[i], d["comult"][i][a][b]) for i in r))
    else:
        scalar = sum_(f, (f.mul(d["unit"][i], x[i]) for i in r))

        def law(a, b):
            return sum_(f, (f.mul(d["mult"][a][b][k], x[k]) for k in r))
    return scalar == f.one and all(law(a, b) == f.mul(x[a], x[b]) for a in r for b in r)


def dense_is_modular_pair(H, delta: Tensor, sigma: Tensor) -> bool:
    """delta(sigma) = 1 and S_d o S_d = Ad_sigma, with S_d(h) = delta(h1) S(h2)
    and Ad_sigma(h) = sigma h S(sigma), as dense matrix products."""
    f, r = H.field, range(H.dim)
    d = hopf_dense(H)
    mu, cm, s = d["mult"], d["comult"], d["antipode"]
    dl, sg = dense(delta), dense(sigma)
    if sum_(f, (f.mul(sg[i], dl[i]) for i in r)) != f.one:
        return False

    def matmul(x, y):
        return [[sum_(f, (f.mul(x[i][k], y[k][m]) for k in r)) for m in r] for i in r]

    s_d = [[sum_(f, (f.mul(f.mul(cm[i][j][l], dl[j]), s[l][k]) for j in r for l in r))
            for k in r] for i in r]
    inv = [sum_(f, (f.mul(sg[c], s[c][b]) for c in r)) for b in r]
    left = [[sum_(f, (f.mul(sg[a], mu[a][i][w]) for a in r)) for w in r] for i in r]
    right = [[sum_(f, (f.mul(mu[w][b][m], inv[b]) for b in r)) for m in r] for w in r]
    return matmul(s_d, s_d) == matmul(left, right)


# -- first-violation oracles ---------------------------------------------------------
#
# These return what an exhaustive check must report: the axiom, the
# lexicographically first violating tuple, and both sides there as dense
# nested lists (compare with ``dense(report.lhs)``).


def _vec_add(field, acc, scale, row):
    """acc += scale * row, entrywise on dense lists."""
    for t, x in enumerate(row):
        if not field.is_zero(x):
            acc[t] = field.add(acc[t], field.mul(scale, x))


def first_hopf_violation(H):
    """Dense first violation in ``verify_hopf_axioms`` order, or None.

    Per (i, j) bialgebra-mult comes before bialgebra-counit; for the unit,
    counit and antipode laws the left side is reported unless only the right
    side fails.  antipode-invertible is not covered: None means every law up
    to the antipode holds.
    """
    f = H.field
    n = H.dim
    d = hopf_dense(H)
    mu, unit, cm, eps, s = d["mult"], d["unit"], d["comult"], d["counit"], d["antipode"]
    rng = range(n)

    def zeros(*shape):
        if len(shape) == 1:
            return [f.zero] * shape[0]
        return [zeros(*shape[1:]) for _ in range(shape[0])]

    def basis(i):
        v = zeros(n)
        v[i] = f.one
        return v

    for i, j, k in product(rng, repeat=3):
        lhs, rhs = zeros(n), zeros(n)
        for m in rng:
            _vec_add(f, lhs, mu[i][j][m], mu[m][k])
            _vec_add(f, rhs, mu[j][k][m], mu[i][m])
        if lhs != rhs:
            return ("associativity", (i, j, k), lhs, rhs)

    for i in rng:
        left, right = zeros(n), zeros(n)
        for j in rng:
            _vec_add(f, left, unit[j], mu[j][i])
            _vec_add(f, right, unit[j], mu[i][j])
        want = basis(i)
        if left != want or right != want:
            return ("unit", (i,), left if left != want else right, want)

    for i in rng:
        lhs, rhs = zeros(n, n, n), zeros(n, n, n)
        for m, c in product(rng, repeat=2):
            x = cm[i][m][c]
            if not f.is_zero(x):
                for a, b in product(rng, repeat=2):
                    lhs[a][b][c] = f.add(lhs[a][b][c], f.mul(x, cm[m][a][b]))
        for a, m in product(rng, repeat=2):
            for b in rng:
                _vec_add(f, rhs[a][b], cm[i][a][m], cm[m][b])
        if lhs != rhs:
            return ("coassociativity", (i,), lhs, rhs)

    for i in rng:
        left, right = zeros(n), zeros(n)
        for j in rng:
            _vec_add(f, left, eps[j], cm[i][j])
            _vec_add(f, right, eps[j], [cm[i][k][j] for k in rng])
        want = basis(i)
        if left != want or right != want:
            return ("counit", (i,), left if left != want else right, want)

    legs = [[(p, q, cm[i][p][q]) for p, q in product(rng, repeat=2)
             if not f.is_zero(cm[i][p][q])] for i in rng]
    for i, j in product(rng, repeat=2):
        lhs = zeros(n, n)
        for k in rng:
            for a in rng:
                _vec_add(f, lhs[a], mu[i][j][k], cm[k][a])
        rhs = zeros(n, n)
        for (p, q, ci), (r, t, cj) in product(legs[i], legs[j]):
            c = f.mul(ci, cj)
            for a in rng:
                _vec_add(f, rhs[a], f.mul(c, mu[p][r][a]), mu[q][t])
        if lhs != rhs:
            return ("bialgebra-mult", (i, j), lhs, rhs)
        got = sum_(f, (f.mul(mu[i][j][k], eps[k]) for k in rng))
        want = f.mul(eps[i], eps[j])
        if got != want:
            return ("bialgebra-counit", (i, j), got, want)

    lhs = zeros(n, n)
    for i, a in product(rng, repeat=2):
        _vec_add(f, lhs[a], unit[i], cm[i][a])
    rhs = [[f.mul(unit[a], unit[b]) for b in rng] for a in rng]
    if lhs != rhs:
        return ("bialgebra-unit", (0,), lhs, rhs)
    got = sum_(f, (f.mul(unit[i], eps[i]) for i in rng))
    if got != f.one:
        return ("bialgebra-unit", (0,), got, f.one)

    for i in rng:
        left, right = zeros(n), zeros(n)
        for j, k, m in product(rng, repeat=3):
            _vec_add(f, left, f.mul(cm[i][j][k], s[j][m]), mu[m][k])
            _vec_add(f, right, f.mul(cm[i][j][k], s[k][m]), mu[j][m])
        want = [f.mul(eps[i], unit[l]) for l in rng]
        if left != want or right != want:
            return ("antipode", (i,), left if left != want else right, want)
    return None


def first_compat_violation(M, anti, sinv):
    """Dense first violation of check_ayd (anti=True) or check_yd, or None.

    ``sinv`` is the inverse antipode as a dense matrix.  The identity, per
    case, with T the twisting antipode power and (h1, h2, h3) the legs of the
    two-step coproduct of h:
    ll: (h.m)_h (x) (h.m)_0 == h1 m_h T(h3) (x) h2.m_0;  lr: the mirror with
    the Hopf leg last and h3 m_h T(h1); rl: T(h3) m_h h1 (x) m_0.h2;
    rr: m_0.h2 (x) T(h1) m_h h3.
    """
    H = M.hopf
    f = H.field
    n, m = H.dim, M.dim
    case = M.case
    mu, s = dense(H.mult), dense(H.antipode)
    cm = dense(H.comult)
    act = dense(M.action.tensor)
    co = dense(M.coaction.tensor)
    left_co = M.coaction.side == "left"
    twist = (sinv if anti else s) if case in ("ll", "rr") else (s if anti else sinv)
    rng, mrng = range(n), range(m)

    def coef(a, h, b):
        return co[a][h][b] if left_co else co[a][b][h]

    def prod(u, v):
        w = [f.zero] * n
        for x, y in product(rng, repeat=2):
            if not (f.is_zero(u[x]) or f.is_zero(v[y])):
                _vec_add(f, w, f.mul(u[x], v[y]), mu[x][y])
        return w

    def e(i):
        return [f.one if t == i else f.zero for t in rng]

    elements = {}

    def element(p, h, r):
        if (p, h, r) not in elements:
            elements[(p, h, r)] = twisted(p, h, r)
        return elements[(p, h, r)]

    def twisted(p, h, r):
        if case == "ll":
            return prod(prod(e(p), e(h)), twist[r])
        if case == "lr":
            return prod(prod(e(r), e(h)), twist[p])
        if case == "rl":
            return prod(prod(twist[r], e(h)), e(p))
        return prod(prod(twist[p], e(h)), e(r))

    def put(acc, j, b, c):
        if case in ("ll", "rl"):
            acc[j][b] = f.add(acc[j][b], c)
        else:
            acc[b][j] = f.add(acc[b][j], c)

    def zeros():
        rows, cols = (n, m) if case in ("ll", "rl") else (m, n)
        return [[f.zero] * cols for _ in range(rows)]

    cop3 = [{} for _ in rng]
    for i, p, y in product(rng, repeat=3):
        if f.is_zero(cm[i][p][y]):
            continue
        for q, r in product(rng, repeat=2):
            c3 = f.mul(cm[i][p][y], cm[y][q][r])
            if not f.is_zero(c3):
                cop3[i][(p, q, r)] = f.add(cop3[i].get((p, q, r), f.zero), c3)

    kind = "anti-yetter-drinfeld" if anti else "yetter-drinfeld"
    for i, a in product(rng, mrng):
        lhs = zeros()
        for x in mrng:
            if f.is_zero(act[i][a][x]):
                continue
            for j, b in product(rng, mrng):
                if not f.is_zero(coef(x, j, b)):
                    put(lhs, j, b, f.mul(act[i][a][x], coef(x, j, b)))
        rhs = zeros()
        for (p, q, r), c3 in cop3[i].items():
            for h, x in product(rng, mrng):
                c = f.mul(c3, coef(a, h, x))
                if f.is_zero(c):
                    continue
                u = element(p, h, r)
                for j, b in product(rng, mrng):
                    if not (f.is_zero(u[j]) or f.is_zero(act[q][x][b])):
                        put(rhs, j, b, f.mul(c, f.mul(u[j], act[q][x][b])))
        if lhs != rhs:
            return (f"{kind}-{case}", (i, a), lhs, rhs)
    return None


# -- dense oracles for identity specs ----------------------------------------------
#
# ``Identity`` specs are plain data: (tensor, letters) factor lists.  These
# oracles evaluate them by summing over every assignment of every letter,
# with no sparsity, no planning and no packed keys.


def dense_table(field: Field, result: str, factors, dims: dict) -> dict:
    """Every tuple over ``result`` (dims from ``dims``) -> the sum, over all
    other letters of ``factors``, of the product of the factors' entries.
    ``[]`` is the scalar 1 and ``None`` the zero side."""
    table = {key: field.zero for key in product(*(range(dims[x]) for x in result))}
    if factors is None:
        return table
    letters = sorted({x for _, idx in factors for x in idx} | set(result))
    for values in product(*(range(dims[x]) for x in letters)):
        at = dict(zip(letters, values))
        c = field.one
        for t, idx in factors:
            c = field.mul(c, t.get(tuple(at[x] for x in idx)))
        key = tuple(at[x] for x in result)
        table[key] = field.add(table[key], c)
    return table


def dense_einsum(field: Field, out: str, factors):
    """The einsum of ``factors`` with axes ``out``, as a Tensor."""
    dims = {x: t.shape[k] for t, letters in factors for k, x in enumerate(letters)}
    table = dense_table(field, out, factors, dims)
    return Tensor(field, tuple(dims[x] for x in out), table)


def dense_first_failure(identities):
    """What ``identity.check`` must report on one group of identities:
    (axiom, witness, lhs, rhs) with both sides as dense nested lists of the
    output letters at the witness, or None if every identity holds.

    Slices of the first witness letter are scanned in order; within the
    first failing slice the least violating witness wins, and at equal
    witnesses the identity listed first.  An identity without witness
    letters reports (0,).
    """
    tables = []
    for ident in identities:
        dims = {x: t.shape[k] for side in (ident.lhs, ident.rhs or ())
                for t, letters in side for k, x in enumerate(letters)}
        result = ident.witness + ident.out
        tables.append((ident, dims, dense_table(ident.field, result, ident.lhs, dims),
                       dense_table(ident.field, result, ident.rhs, dims)))
    lead, lead_dims = tables[0][:2]
    for v in range(lead_dims[lead.witness[0]]) if lead.witness else [None]:
        best = None
        for ident, dims, lhs, rhs in tables:
            n = len(ident.witness)
            for key in sorted(lhs):  # lexicographic: the first differing key is the least
                if (v is None or key[0] == v) and lhs[key] != rhs[key]:
                    if best is None or key[:n] < best[1]:
                        best = (ident, key[:n], dims, lhs, rhs)
                    break
        if best is not None:
            ident, witness, dims, lhs, rhs = best

            def at_witness(table):
                shape = [dims[x] for x in ident.out]
                if not shape:
                    return table[witness]
                out = dense_zeros(ident.field, shape)
                for key, c in table.items():
                    if key[: len(witness)] == witness:
                        node = out
                        for i in key[len(witness):-1]:
                            node = node[i]
                        node[key[-1]] = c
                return out

            return ident.label, witness or (0,), at_witness(lhs), at_witness(rhs)
    return None


def dense_zeros(field: Field, shape):
    if len(shape) == 1:
        return [field.zero] * shape[0]
    return [dense_zeros(field, shape[1:]) for _ in range(shape[0])]


# -- dense linear algebra oracle -----------------------------------------------------
#
# Gauss-Jordan on dense row lists with plain loops: every entry of a row is
# rewritten on every elimination step.  Matrices are read with ``dense``.


def _sub(field, a, b):
    return field.add(a, field.neg(b))


def dense_rref(field, rows, ncols):
    """(reduced nonzero rows, pivot columns) of dense rows of width ncols."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if not field.is_zero(rows[i][col])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(inv, c) for c in rows[r]]
        for i in range(len(rows)):
            factor = rows[i][col]
            if i != r and not field.is_zero(factor):
                rows[i] = [_sub(field, a, field.mul(factor, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def _dense_augment(t: Tensor):
    """The dense rows of [t | identity]."""
    f = t.field
    n = t.shape[0]
    return [row + [f.one if i == j else f.zero for j in range(n)] for i, row in enumerate(dense(t))]


def dense_rank(t: Tensor) -> int:
    return len(dense_rref(t.field, dense(t), t.shape[1])[1])


def dense_inverse(t: Tensor):
    """The inverse of a square matrix as dense rows, or its rank when singular."""
    n = t.shape[0]
    reduced, pivots = dense_rref(t.field, _dense_augment(t), 2 * n)
    rank = len([p for p in pivots if p < n])
    return [row[n:] for row in reduced] if rank == n else rank


def dense_left_kernel(t: Tensor):
    """Basis of {v : v @ t = 0} as dense vectors, one per free column of the
    RREF of the transpose, in column order."""
    f = t.field
    n, k = t.shape
    rows = dense(t)
    reduced, pivots = dense_rref(f, [[rows[i][j] for i in range(n)] for j in range(k)], n)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [f.zero] * n
        vec[free] = f.one
        for row, pc in zip(reduced, pivots):
            vec[pc] = f.neg(row[free])
        basis.append(vec)
    return basis


def dense_span_coordinates(basis: Tensor, rows: Tensor):
    """For each row of ``rows``, its coordinates in the span of the rows of
    ``basis`` (a dense list, from the RREF of [basis | identity]) or None."""
    f = basis.field
    k = basis.shape[1]
    reduced, pivots = dense_rref(f, _dense_augment(basis), k + basis.shape[0])
    out = []
    for vec in dense(rows):
        coeff = [f.zero] * basis.shape[0]
        for row, pc in zip(reduced, pivots):
            c = vec[pc] if pc < k else f.zero
            if not f.is_zero(c):
                vec = [_sub(f, a, f.mul(c, b)) for a, b in zip(vec, row[:k])]
                coeff = [f.add(a, f.mul(c, b)) for a, b in zip(coeff, row[k:])]
        out.append(None if any(not f.is_zero(x) for x in vec) else coeff)
    return out


def dense_project(rel, vec):
    """Quotient coordinates of a dense vector over P (x) P: reduce it modulo
    the RREF relation rows of ``rel``, then keep its non-pivot entries."""
    f = rel.relations.field
    pivots = []
    for row in dense(rel.relations):
        pc = next(t for t, c in enumerate(row) if not f.is_zero(c))
        pivots.append(pc)
        c = vec[pc]
        if not f.is_zero(c):
            vec = [_sub(f, a, f.mul(c, b)) for a, b in zip(vec, row)]
    return [c for t, c in enumerate(vec) if t not in pivots]


def dense_closure_rank(mult: Tensor, unit: Tensor, generators: Tensor) -> int:
    """Rank of the span of the left-nested words g_1 (g_2 (... (g_k 1))),
    k <= dim, over the rows g of ``generators``, on dense lists.

    Level k holds the words of length k that enlarged the span of the
    shorter ones.  Those of length k + 1 are g w for w at level k: g times a
    word that did not enlarge the span is a combination of shorter words
    times g, which is spanned by level k already.
    """
    f = mult.field
    n = mult.shape[0]
    mu = dense(mult)
    left = []  # left[g][b][c]: the coefficient of e_c in g e_b
    for g in dense(generators):
        rows = [[f.zero] * n for _ in range(n)]
        for a in range(n):
            if not f.is_zero(g[a]):
                for b in range(n):
                    rows[b] = [f.add(x, f.mul(g[a], y)) for x, y in zip(rows[b], mu[a][b])]
        left.append(rows)
    echelon = []  # (pivot column, row with 1 there), in the order found

    def enlarges(vec):
        for pc, row in echelon:
            if not f.is_zero(vec[pc]):
                vec = [_sub(f, x, f.mul(vec[pc], y)) for x, y in zip(vec, row)]
        pc = next((c for c in range(n) if not f.is_zero(vec[c])), None)
        if pc is None:
            return False
        inv = f.inv(vec[pc])
        echelon.append((pc, [f.mul(inv, x) for x in vec]))
        return True

    def times(rows, vec):
        out = [f.zero] * n
        for b in range(n):
            if not f.is_zero(vec[b]):
                out = [f.add(x, f.mul(vec[b], y)) for x, y in zip(out, rows[b])]
        return out

    level = [w for w in [dense(unit)] if enlarges(w)]
    for _ in range(n):
        level = [w for v in level for rows in left if enlarges(w := times(rows, v))]
    return len(echelon)
