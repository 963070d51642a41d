"""The generator-reduced scans against the full identities.

A_H, the double, D, the A_H comodule algebra and the modules over A_H and
the double scan their multiplicative identities with the first argument on
the rows e_i* (x) 1 and counit (x) e_j for greedy generators e_i* of the dual
and e_j of H only (identity.on_generators), once those rows are proved to
generate (their left closure of the unit has full rank), in one check call
with the unit laws; check rescans any failure of that call in full.  Each
corrupted structure below is checked twice: with the proved generators, and
as a plain structure with none, which runs the full scans.  The two reports
must be equal.  The group that decided the full scan is also compared with
``helpers.dense_first_failure`` where the dense oracle's loop over all letter
values stays small, which takes in every identity at dimension 4; the full
scan itself is pinned to that oracle in test_identity.py.  The double's
coalgebra, A_H's coaction laws and the laws with an argument in H, reduced
too, have their own corruptions in test_generator_lemma.py.
"""

from __future__ import annotations

import random
from math import prod

import pytest

from hayd import algebra, identity
from hayd.algebra import AlgebraModule, FinAlgebra, greedy_generators, left_closure_rank
from hayd.cli import main
from hayd.double import ah_double_coaction, build_ah, build_double, build_double_hopf
from hayd.galois import check_comodule_algebra
from hayd.fields import prime_field
from hayd.hopf import FinHopfAlgebra, taft, verify_hopf_given_algebra
from hayd.identity import evaluate
from hayd.reps import CoactionStructure
from hayd.suite import BUILTINS
from hayd.tensor import Tensor

from helpers import dense, dense_closure_rank, dense_first_failure

DENSE_LIMIT = 70_000  # letter assignments the dense oracle may loop over
MULTIPLICATIVE = {"associativity", "module-associativity", "bialgebra-mult",
                  "bialgebra-counit", "coaction-multiplicative"}
# the laws of the double's coalgebra, of its coaction on A_H, and with an
# argument in H, reduced too (test_generator_lemma.py)
REDUCED = MULTIPLICATIVE | {"coassociativity", "counit", "coaction-counit",
                            "coaction-coassociativity", "action-associativity",
                            "anti-yetter-drinfeld-lr", "yetter-drinfeld-lr"}
# rows of the chosen generators; taft-3-f7 takes x and g of H and seven dual
# basis covectors, group-s3 and fun-s3 the two generators of kS_3 and five of
# the six idempotents of k^S_3
ROWS = {"group-c2": 2, "group-c3": 3, "group-s3": 7, "fun-c2": 2, "fun-s3": 7,
        "sweedler-2": 5, "taft-3-f7": 9}
_BUILT: dict = {}


def _built(name):
    """H, A_H, the double, D and the coaction of D on A_H, built once per module."""
    if name not in _BUILT:
        H = BUILTINS[name]()
        _BUILT[name] = (H, build_ah(H), build_double(H), build_double_hopf(H),
                        ah_double_coaction(H))
    return _BUILT[name]


def _dual_rows(H):
    """The n rows e_i* (x) 1; they generate dual (x) 1 only."""
    n = H.dim
    return evaluate("rab", [(Tensor.identity(H.field, n), "ra"), (H.unit, "b")]
                    ).reshape((n, n * n))


def _candidates(H):
    """All 2n rows e_i* (x) 1, then counit (x) e_j: generators of both
    products on dual (x) H, since their products are the basis."""
    n = H.dim
    own = evaluate("rab", [(H.counit, "a"), (Tensor.identity(H.field, n), "rb")])
    return Tensor(H.field, (2 * n, n * n), {
        **_dual_rows(H).entries,
        **{(n + r, z): c for (r, z), c in own.reshape((n, n * n)).entries.items()},
    }, _normalized=True)


def _plain(A):
    """A with the same product and unit and no generators: its scans are full."""
    return FinAlgebra(A.field, A.mult, A.unit, check=False)


def _hopf(D, comult, generators, counit=None):
    """verify_hopf_given_algebra on D with ``comult`` in place of its
    coproduct, and ``counit``, if given, in place of its counit."""
    counit = D.counit if counit is None else counit
    Dc = FinHopfAlgebra(D.field, D.mult, D.unit, comult, counit, D.antipode, name="Dc",
                        generators=generators)
    return verify_hopf_given_algebra(Dc)


def _bumped(t, idx):
    f = t.field
    return Tensor(f, t.shape, {**t.entries, idx: f.add(t.get(idx), f.one)})


def _positions(t, seed, k):
    """k indices of t: alternately an entry that is nonzero and any index."""
    rng = random.Random(seed)
    nonzero = sorted(t.entries)
    return [rng.choice(nonzero) if n % 2 == 0 else tuple(rng.randrange(d) for d in t.shape)
            for n in range(k)]


def _relabelled(t, s, u, axes):
    """t transported along the basis permutation exchanging s and u on
    ``axes``: a coalgebra or coaction stays one, but stops being an algebra
    map unless the exchange is an algebra automorphism."""
    swap = {s: u, u: s}
    return Tensor(t.field, t.shape, {
        tuple(swap.get(i, i) if a in axes else i for a, i in enumerate(idx)): c
        for idx, c in t.entries.items()
    }, _normalized=True)


def _swaps(unit, counit, n, moves_unit):
    """The first basis pair (s, u) of the product space on dual (x) H, as a
    list of at most one: both outside the unit's support, or s inside it and
    u outside, with equal counit values when a counit is given, and with
    both coordinates different, so that the exchange is no automorphism
    that merely relabels the dual or H."""
    support = {i for (i,) in unit.entries}
    outside = [i for i in range(unit.shape[0]) if i not in support]
    return [(s, u) for s in (sorted(support) if moves_unit else outside) for u in outside
            if s // n != u // n and s % n != u % n
            and (counit is None or counit.get(s) == counit.get(u))][:1]


def _scanned(monkeypatch, run):
    """run(), with every group ``identity.check`` scanned and its result."""
    log = []
    real = identity._first_failure

    def spy(identities):
        result = real(identities)
        log.append((identities, result))
        return result

    with monkeypatch.context() as m:
        m.setattr(identity, "_first_failure", spy)
        report = run()
    return report, log


def _dense_cost(group):
    cost = 0
    for ident in group:
        for side in (ident.lhs, ident.rhs or ()):
            dims = {x: t.shape[k] for t, letters in side for k, x in enumerate(letters)}
            cost += prod(dims.values())
    return cost


def _same(got, want):
    assert (got.passed, got.axiom, got.witness) == (want.passed, want.axiom, want.witness)
    assert (got.lhs, got.rhs) == (want.lhs, want.rhs)


def _agrees(monkeypatch, with_generators, full):
    """The generator-aware report equals the full scan's, the generator-aware
    run scans no reduced identity after its first failure, and the group that
    decided the full scan agrees with the dense oracle where that is
    affordable.  Returns the first identity that failed on the generator-aware
    run, or None."""
    got, fast_log = _scanned(monkeypatch, with_generators)
    want, log = _scanned(monkeypatch, full)
    _same(got, want)
    assert not any(_reduced(ident) for group, _ in log for ident in group)
    failed = next((n for n, (_, result) in enumerate(fast_log) if result is not None), None)
    if failed is not None:
        assert not any(_reduced(ident) for group, _ in fast_log[failed + 1:] for ident in group)
    group, result = log[-1]
    if _dense_cost(group) <= DENSE_LIMIT:
        oracle = dense_first_failure(group)
        if result is None:
            assert oracle is None, group[0].label
        else:
            assert (result.axiom, result.witness, dense(result.lhs), dense(result.rhs)) == oracle
    return next((group[0] for group, result in fast_log if result is not None), None)


def _labels(log):
    """The scanned groups by label, and whether each passed."""
    return [([ident.label for ident in group], result is None) for group, result in log]


def _reduced(ident):
    # on_generators puts the generator rows first on each side, a rank-2
    # factor whose first letter is the first witness letter
    tensor, letters = ident.lhs[0]
    return ident.label in REDUCED and letters[0] == ident.witness[0] and tensor.rank == 2


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_every_reduced_scan_passes_alone(monkeypatch, name):
    # the fallback is silent: a closure proof or precondition that never
    # held would only make every build slow, so check that none falls back
    H = BUILTINS[name]()

    def build():
        A = build_ah(H)
        build_double_hopf(H)
        ah_double_coaction(H)
        AlgebraModule(A, A.mult)  # the regular module
        return A

    A, log = _scanned(monkeypatch, build)
    Dalg, D = build_double(H), build_double_hopf(H)
    assert A.generators is not None and Dalg.generators is not None
    assert D.generators is Dalg.generators  # the double's proof
    assert A.generators.matrix is Dalg.generators.matrix  # chosen once per H
    assert all(result is None for _, result in log)
    seen = []
    for group, _ in log:
        for ident in group:
            if ident.label in REDUCED:
                assert any(ident.lhs[0][0] is G.matrix for G in (A.generators, Dalg.generators))
                seen.append(ident.label)
    assert sorted(seen) == sorted([
        "associativity", "associativity", "bialgebra-mult", "bialgebra-counit",
        "coassociativity", "counit", "counit", "coaction-counit",
        "coaction-coassociativity", "coaction-multiplicative", "module-associativity",
    ])
    # fewer rows, carrying fewer basis terms, than the 2n that generate
    # because their products are the basis
    rows = _candidates(H)
    G = A.generators.matrix
    assert G.shape[1] == rows.shape[1]
    assert G.shape[0] < rows.shape[0]
    assert len(G.entries) < len(rows.entries)
    assert G.shape[0] == ROWS[name]


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_closure_rank_against_dense_words(name):
    # the engine's left closure against the span of the nested words, for
    # the chosen generators (rank dim) and the dual rows alone (rank n)
    H, A, Dalg, _, _ = _built(name)
    for alg in (A, Dalg):
        for rows, want in ((alg.generators.matrix, alg.dim), (_dual_rows(H), H.dim)):
            rank = left_closure_rank(alg.mult, alg.unit, rows)
            assert rank == dense_closure_rank(alg.mult, alg.unit, rows) == want


def _greedy_by_rank(mult, unit):
    """The earlier definition: basis indices taken in order, each one whose
    addition raises the rank of the left closure of the unit."""
    f, n = mult.field, mult.shape[0]
    chosen, rank = [], 1 if unit.entries else 0
    for j in range(n):
        if rank == n:
            break
        rows = Tensor(f, (len(chosen) + 1, n), {(r, i): f.one for r, i in enumerate(chosen + [j])})
        grown = left_closure_rank(mult, unit, rows)
        if grown > rank:
            chosen, rank = chosen + [j], grown
    return chosen


def _greedy_inputs():
    """(label, mult, unit) of every builtin and of taft(4, F_5, 2|3), each H
    and its dual, then A_H and the double of two builtins."""
    hopfs = {name: factory() for name, factory in BUILTINS.items()}
    hopfs.update({f"taft-4-f5-{z}": taft(4, prime_field(5), z) for z in (2, 3)})
    out = []
    for label, H in hopfs.items():
        out += [(label, H.mult, H.unit), (f"{label}*", H.comult.transpose((1, 2, 0)), H.counit)]
    for name in ("sweedler-2", "group-s3"):
        _, A, Dalg, _, _ = _built(name)
        out += [(f"ah({name})", A.mult, A.unit), (f"double({name})", Dalg.mult, Dalg.unit)]
    return out


def test_greedy_generators_by_membership_match_the_rank_definition(monkeypatch):
    # one closure for the unit, then one per taken index
    real, runs = algebra.left_closure, []
    monkeypatch.setattr(algebra, "left_closure", lambda *a: runs.append(a) or real(*a))
    for label, mult, unit in _greedy_inputs():
        want = _greedy_by_rank(mult, unit)
        runs.clear()
        chosen = greedy_generators(mult, unit)
        assert chosen == want, label
        assert len(runs) == len(chosen) + 1, label
        rows = Tensor(mult.field, (len(chosen), mult.shape[0]),
                      {(r, i): 1 for r, i in enumerate(chosen)})
        assert left_closure_rank(mult, unit, rows) == mult.shape[0], label


def _algebra(mult, unit, generators=None):
    return lambda: FinAlgebra(mult.field, mult, unit, check=False, generators=generators).verify()


def _module(alg, action):
    return lambda: AlgebraModule(alg, action, check=False).verify()


def _comodule(alg, D, co):
    return lambda: check_comodule_algebra(alg, D, CoactionStructure("right", alg.dim, co))


def _with_comult(D, comult, generators, counit=None):
    return lambda: _hopf(D, comult, generators, counit)


def _product_corruptions(name):
    """(generator-aware run, full run) for bumped products of A_H and the
    double and bumped regular actions of A_H."""
    H, A, Dalg, _, _ = _built(name)
    for gens in (A.generators.matrix, _candidates(H)):
        for k, alg in enumerate((A, Dalg)):
            for idx in _positions(alg.mult, k, 4):
                mult = _bumped(alg.mult, idx)
                yield _algebra(mult, alg.unit, gens), _algebra(mult, alg.unit)
    for idx in _positions(A.mult, 7, 4):  # the regular module of A_H
        action = _bumped(A.mult, idx)
        yield _module(A, action), _module(_plain(A), action)


def _coproduct_corruptions(name):
    """(generator-aware run, full run, the label the first run must fail
    on, or None) for bumped and transported coproducts of D, bumped counits
    of D and coactions of D on A_H.  A transported coalgebra or coaction
    keeps every law but multiplicativity, so the reduced scan is what
    fails."""
    H, A, _, D, coaction = _built(name)
    for idx in _positions(D.comult, 1, 2):
        comult = _bumped(D.comult, idx)
        yield _with_comult(D, comult, D.generators), _with_comult(D, comult, None), None
    for idx in _positions(D.counit, 4, 2):
        counit = _bumped(D.counit, idx)
        yield (_with_comult(D, D.comult, D.generators, counit),
               _with_comult(D, D.comult, None, counit), None)
    for idx in _positions(coaction.tensor, 2, 2):
        co = _bumped(coaction.tensor, idx)
        yield _comodule(A, D, co), _comodule(_plain(A), D, co), None
    for s, u in _swaps(D.unit, D.counit, H.dim, moves_unit=False):
        comult = _relabelled(D.comult, s, u, (0, 1, 2))
        yield (_with_comult(D, comult, D.generators), _with_comult(D, comult, None),
               "bialgebra-mult")
    for s, u in _swaps(A.unit, None, H.dim, moves_unit=False):
        co = _relabelled(coaction.tensor, s, u, (0, 1))
        yield _comodule(A, D, co), _comodule(_plain(A), D, co), "coaction-multiplicative"


def _precondition_corruptions(name):
    """(generator-aware run, full run, the precondition the first run fails
    on): the unit, 1 m = m, coproduct(1) or coaction(1) broken."""
    H, A, _, D, coaction = _built(name)
    for idx in _positions(A.unit, 3, 2):
        unit = _bumped(A.unit, idx)
        yield _algebra(A.mult, unit, A.generators.matrix), _algebra(A.mult, unit), "unit"
    # the zero action is associative, but 1 does not act as the identity
    zero = Tensor.zeros(H.field, A.mult.shape)
    yield _module(A, zero), _module(_plain(A), zero), "module-unit"
    for s, u in _swaps(D.unit, D.counit, H.dim, moves_unit=True):
        comult = _relabelled(D.comult, s, u, (0, 1, 2))
        yield (_with_comult(D, comult, D.generators), _with_comult(D, comult, None),
               "bialgebra-unit")
    for s, u in _swaps(A.unit, None, H.dim, moves_unit=True):
        co = _relabelled(coaction.tensor, s, u, (0, 1))
        yield _comodule(A, D, co), _comodule(_plain(A), D, co), "coaction-unital"


def _non_spanning_corruptions(name):
    """(A_H's product, clean or with one entry bumped, and the dual rows
    alone, which generate dual (x) 1 only)."""
    H, A, _, _, _ = _built(name)
    rows = _dual_rows(H)
    for mult in (A.mult, _bumped(A.mult, _positions(A.mult, 5, 1)[0])):
        yield mult, rows


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_corrupted_products_and_modules(monkeypatch, name):
    first = [_agrees(monkeypatch, fast, full) for fast, full in _product_corruptions(name)]
    # some corruption got past the preconditions to a reduced scan
    assert any(ident is not None and _reduced(ident) for ident in first)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_corrupted_coproducts_and_coactions(monkeypatch, name):
    for fast, full, label in _coproduct_corruptions(name):
        first = _agrees(monkeypatch, fast, full)
        if label is not None:
            assert first.label == label and _reduced(first)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_failing_preconditions_fall_back(monkeypatch, name):
    # the generator-aware run stops at the broken precondition or at a
    # reduced law stated before it, then rescans with no reduced identity
    # (_agrees), and the full scan gives the verdict
    for fast, full, label in _precondition_corruptions(name):
        first = _agrees(monkeypatch, fast, full)
        assert first.label == label or _reduced(first)


def test_a_failure_before_every_reduced_identity_is_scanned_once(monkeypatch):
    # module-unit comes before the reduced module-associativity in its check
    # call, so the full rescan has nothing to change there (the coaction laws
    # that used to stand here are reduced themselves)
    _, A, _, _, _ = _built("sweedler-2")
    act = A.mult
    for idx in sorted(act.entries):
        doubled = Tensor(act.field, act.shape, {**act.entries, idx: 2 * act.get(idx)})
        report, log = _scanned(monkeypatch, _module(A, doubled))
        if report.axiom == "module-unit":
            break
    else:
        pytest.fail("no doubled entry breaks module-unit")
    assert [result for group, result in log if group[0].label == "module-unit"] == [report]
    assert not any(_reduced(ident) for group, _ in log for ident in group)


@pytest.mark.parametrize("name", ["group-c2", "sweedler-2", "taft-3-f7"])
def test_non_spanning_generators_take_the_full_scan(monkeypatch, name):
    # the dual rows alone generate dual (x) 1 only: the closure proof fails,
    # and verify runs exactly the full scans
    A = _built(name)[1]
    for mult, rows in _non_spanning_corruptions(name):
        assert left_closure_rank(mult, A.unit, rows) < A.dim
        B = FinAlgebra(mult.field, mult, A.unit, check=False, generators=rows)
        got, log = _scanned(monkeypatch, B.verify)
        assert B.generators is None
        want, full = _scanned(monkeypatch, FinAlgebra(mult.field, mult, A.unit, check=False).verify)
        _same(got, want)
        assert _labels(log) == _labels(full)
        assert not any(_reduced(ident) for group, _ in log for ident in group)


def test_no_reduced_scan_fails_in_the_builtin_battery(monkeypatch, capsys):
    # a failing reduced scan costs the rescan of its whole check call; the
    # battery states many reduced identities and none of them may fail
    code, log = _scanned(monkeypatch, lambda: main(["suite", "--builtin", "all"]))
    assert code == 0
    reduced = [result for group, result in log if any(ident.full is not None for ident in group)]
    assert reduced and all(result is None for result in reduced)


def test_the_battery_scans_the_lemma_s_laws_reduced(monkeypatch, capsys):
    # a silent fall-back to full scans would pass every verdict and only make
    # the battery slower: on every builtin, the double's coassociativity and
    # counit laws, A_H's coaction laws (ledger hits of the double's), and
    # ah_module_to_ayd's action-associativity and compatibility are stated on
    # generators, the double's and A_H's on one matrix
    stated = []
    real = identity._scan

    def spy(groups):
        stated.extend(ident for group in groups for ident in group)
        return real(groups)

    monkeypatch.setattr(identity, "_scan", spy)
    assert main(["suite", "--builtin", "all"]) == 0
    reduced = {}
    for ident in stated:
        if ident.full is not None:
            matrix = ident.lhs[0][0]  # held, so that no id is reused
            reduced.setdefault(ident.label, {})[id(matrix)] = matrix
    builtins = len(BUILTINS)
    for label in ("coassociativity", "counit", "coaction-counit", "coaction-coassociativity"):
        assert len(reduced.get(label, ())) == builtins, label  # one matrix per H
    assert reduced["coaction-counit"].keys() == reduced["counit"].keys()
    for label in ("action-associativity", "anti-yetter-drinfeld-lr"):
        assert len(reduced.get(label, ())) >= builtins, label
