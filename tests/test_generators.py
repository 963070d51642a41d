"""The generator-reduced scans against the full identities.

A_H, the double, D, the A_H comodule algebra and the modules over A_H and
the double scan their multiplicative identities with the first argument on
the rows e_i* (x) 1 and counit (x) e_j for greedy generators e_i* of the dual
and e_j of H only (identity.on_generators), after the proof that those rows
generate (their left closure of the unit has full rank) and the unit laws,
and rerun the full scan on any failure.  Each corrupted structure below is
checked twice: with the proved generators, and as a plain structure with
none, which runs the full scans.  The two reports must be equal.  The group
that decided the full scan is also compared with
``helpers.dense_first_failure`` where the dense oracle's loop over all letter
values stays small, which takes in every identity at dimension 4; the full
scan itself is pinned to that oracle in test_identity.py.
"""

from __future__ import annotations

import random
from math import prod

import pytest

from hayd import identity
from hayd.algebra import AlgebraModule, FinAlgebra, left_closure_rank
from hayd.double import ah_double_coaction, build_ah, build_double, build_double_hopf
from hayd.galois import check_comodule_algebra
from hayd.hopf import FinHopfAlgebra, verify_hopf_given_algebra
from hayd.identity import evaluate
from hayd.reps import CoactionStructure
from hayd.suite import BUILTINS
from hayd.tensor import Tensor

from helpers import dense, dense_closure_rank, dense_first_failure

DENSE_LIMIT = 70_000  # letter assignments the dense oracle may loop over
MULTIPLICATIVE = {"associativity", "module-associativity", "bialgebra-mult",
                  "bialgebra-counit", "coaction-multiplicative"}
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


def _hopf(D, comult, generators):
    """verify_hopf_given_algebra on D with ``comult`` in place of its coproduct."""
    Dc = FinHopfAlgebra(D.field, D.mult, D.unit, comult, D.counit, D.antipode, name="Dc")
    Dc.generators = generators
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
    """The generator-aware report equals the full scan's, and the group that
    decided the full scan agrees with the dense oracle where that is
    affordable.  Returns the first identity that failed on the generator-aware
    run, or None."""
    got, fast_log = _scanned(monkeypatch, with_generators)
    want, log = _scanned(monkeypatch, full)
    _same(got, want)
    assert not any(_reduced(ident) for group, _ in log for ident in group)
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
    return ident.label in MULTIPLICATIVE and letters[0] == ident.witness[0] and tensor.rank == 2


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
    assert A.generators is Dalg.generators is D.generators  # chosen once per H
    assert all(result is None for _, result in log)
    seen = []
    for group, _ in log:
        for ident in group:
            if ident.label in MULTIPLICATIVE:
                assert any(ident.lhs[0][0] is G for G in (A.generators, Dalg.generators))
                seen.append(ident.label)
    assert sorted(seen) == sorted([
        "associativity", "associativity", "bialgebra-mult", "bialgebra-counit",
        "coaction-multiplicative", "module-associativity",
    ])
    # fewer rows, carrying fewer basis terms, than the 2n that generate
    # because their products are the basis
    rows = _candidates(H)
    assert A.generators.shape[1] == rows.shape[1]
    assert A.generators.shape[0] < rows.shape[0]
    assert len(A.generators.entries) < len(rows.entries)
    assert A.generators.shape[0] == ROWS[name]


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_closure_rank_against_dense_words(name):
    # the engine's left closure against the span of the nested words, for
    # the chosen generators (rank dim) and the dual rows alone (rank n)
    H, A, Dalg, _, _ = _built(name)
    for alg in (A, Dalg):
        for rows, want in ((alg.generators, alg.dim), (_dual_rows(H), H.dim)):
            rank = left_closure_rank(alg.mult, alg.unit, rows)
            assert rank == dense_closure_rank(alg.mult, alg.unit, rows) == want


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_corrupted_products_and_modules(monkeypatch, name):
    H, A, Dalg, _, _ = _built(name)
    f = H.field
    first = []
    for gens in (A.generators, _candidates(H)):
        for k, alg in enumerate((A, Dalg)):
            for idx in _positions(alg.mult, k, 4):
                mult = _bumped(alg.mult, idx)
                first.append(_agrees(
                    monkeypatch,
                    lambda: FinAlgebra(f, mult, alg.unit, check=False, generators=gens).verify(),
                    lambda: FinAlgebra(f, mult, alg.unit, check=False).verify(),
                ))
    for idx in _positions(A.mult, 7, 4):  # the regular module of A_H
        action = _bumped(A.mult, idx)
        first.append(_agrees(
            monkeypatch,
            lambda: AlgebraModule(A, action, check=False).verify(),
            lambda: AlgebraModule(_plain(A), action, check=False).verify(),
        ))
    # some corruption got past the preconditions to a reduced scan
    assert any(ident is not None and _reduced(ident) for ident in first)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_corrupted_coproducts_and_coactions(monkeypatch, name):
    H, A, _, D, coaction = _built(name)

    def comodule(co, alg):
        return check_comodule_algebra(alg, D, CoactionStructure("right", A.dim, co))

    first = []
    for idx in _positions(D.comult, 1, 2):
        comult = _bumped(D.comult, idx)
        first.append(_agrees(monkeypatch, lambda: _hopf(D, comult, D.generators),
                             lambda: _hopf(D, comult, None)))
    for idx in _positions(coaction.tensor, 2, 2):
        co = _bumped(coaction.tensor, idx)
        first.append(_agrees(monkeypatch, lambda: comodule(co, A),
                             lambda: comodule(co, _plain(A))))
    # a transported coalgebra or coaction keeps every law but
    # multiplicativity, so the reduced scan is what fails
    for s, u in _swaps(D.unit, D.counit, H.dim, moves_unit=False):
        comult = _relabelled(D.comult, s, u, (0, 1, 2))
        first.append(_agrees(monkeypatch, lambda: _hopf(D, comult, D.generators),
                             lambda: _hopf(D, comult, None)))
        assert first[-1].label == "bialgebra-mult" and _reduced(first[-1])
    for s, u in _swaps(A.unit, None, H.dim, moves_unit=False):
        co = _relabelled(coaction.tensor, s, u, (0, 1))
        first.append(_agrees(monkeypatch, lambda: comodule(co, A),
                             lambda: comodule(co, _plain(A))))
        assert first[-1].label == "coaction-multiplicative" and _reduced(first[-1])


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_failing_preconditions_fall_back(monkeypatch, name):
    # the unit, 1 m = m, coproduct(1) or coaction(1) broken: the fast path
    # stops at that precondition, and the full scan gives the verdict
    H, A, _, D, coaction = _built(name)
    f, gens = H.field, A.generators
    for idx in _positions(A.unit, 3, 2):
        unit = _bumped(A.unit, idx)
        first = _agrees(monkeypatch,
                        lambda: FinAlgebra(f, A.mult, unit, check=False, generators=gens).verify(),
                        lambda: FinAlgebra(f, A.mult, unit, check=False).verify())
        assert first.label == "unit"
    # the zero action is associative, but 1 does not act as the identity
    zero = Tensor.zeros(f, A.mult.shape)
    first = _agrees(monkeypatch, lambda: AlgebraModule(A, zero, check=False).verify(),
                    lambda: AlgebraModule(_plain(A), zero, check=False).verify())
    assert first.label == "module-unit"
    for s, u in _swaps(D.unit, D.counit, H.dim, moves_unit=True):
        comult = _relabelled(D.comult, s, u, (0, 1, 2))
        first = _agrees(monkeypatch, lambda: _hopf(D, comult, D.generators),
                        lambda: _hopf(D, comult, None))
        assert first.label == "bialgebra-unit"
    for s, u in _swaps(A.unit, None, H.dim, moves_unit=True):
        co = CoactionStructure("right", A.dim, _relabelled(coaction.tensor, s, u, (0, 1)))
        first = _agrees(monkeypatch, lambda: check_comodule_algebra(A, D, co),
                        lambda: check_comodule_algebra(_plain(A), D, co))
        assert first.label == "coaction-unital"


@pytest.mark.parametrize("name", ["group-c2", "sweedler-2", "taft-3-f7"])
def test_non_spanning_generators_take_the_full_scan(monkeypatch, name):
    # the dual rows alone generate dual (x) 1 only: the closure proof fails,
    # and verify runs exactly the full scans
    H, A, _, _, _ = _built(name)
    rows = _dual_rows(H)
    for mult in (A.mult, _bumped(A.mult, _positions(A.mult, 5, 1)[0])):
        assert left_closure_rank(mult, A.unit, rows) < A.dim
        B = FinAlgebra(H.field, mult, A.unit, check=False, generators=rows)
        got, log = _scanned(monkeypatch, B.verify)
        assert B.generators is None
        want, full = _scanned(monkeypatch, FinAlgebra(H.field, mult, A.unit, check=False).verify)
        _same(got, want)
        assert _labels(log) == _labels(full)
        assert not any(_reduced(ident) for group, _ in log for ident in group)
