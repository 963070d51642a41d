import contextlib
import gc
import io
import random
import weakref
from collections import defaultdict
from fractions import Fraction
from itertools import product

import pytest

from hayd import algebra, identity
from hayd.cli import main
from hayd.double import build_ah
from hayd.errors import CheckFailedError, ShapeError
from hayd.fields import prime_field, rationals
from hayd.groups import cyclic, symmetric
from hayd.hopf import group_algebra, sweedler
from hayd.identity import Identity, check, evaluate, ledger, on_generators
from hayd.report import Report
from hayd.suite import BUILTINS
from hayd.tensor import Tensor

from helpers import dense, dense_einsum, dense_first_failure

Q = rationals()


def _assoc(mult):
    return Identity("associativity", "ijk", "l",
                    [(mult, "ijm"), (mult, "mkl")], [(mult, "iml"), (mult, "jkm")])


def _with(t, idx, c):
    return Tensor(t.field, t.shape, {**t.entries, idx: c})


def test_empty_witness_scans_one_slice_and_reports_the_placeholder():
    H = sweedler()
    spec = Identity("bialgebra-unit", "", "ab",
                    [(H.unit, "i"), (H.comult, "iab")], [(H.unit, "a"), (H.unit, "b")])
    assert check("ok", spec).passed
    two = _with(H.unit, (0,), Q.coerce(2))
    r = check("ok", Identity("bialgebra-unit", "", "ab",
                             [(two, "i"), (H.comult, "iab")], [(two, "a"), (two, "b")]))
    assert (r.passed, r.axiom, r.witness) == (False, "bialgebra-unit", (0,))
    assert r.lhs == Tensor(Q, (4, 4), {(0, 0): Q.coerce(2)})
    assert r.rhs == Tensor(Q, (4, 4), {(0, 0): Q.coerce(4)})
    # a scalar identity against the empty product, 1
    assert check("ok", Identity("u", "", "", [(H.unit, "i"), (H.counit, "i")], [])).passed


def test_kronecker_side_reports_its_slice():
    H = group_algebra(symmetric(3))
    delta = Tensor.identity(Q, 6)
    bad = _with(H.mult, (2, 0, 2), Q.coerce(3))  # e_2 . 1 = 3 e_2
    r = check("unit", [
        Identity("unit", "i", "k", [(H.unit, "j"), (bad, "jik")], [(delta, "ik")]),
        Identity("unit", "i", "k", [(H.unit, "j"), (bad, "ijk")], [(delta, "ik")]),
    ])
    assert (r.axiom, r.witness) == ("unit", (2,))
    assert dense(r.lhs) == [0, 0, 3, 0, 0, 0]
    assert dense(r.rhs) == [0, 0, 1, 0, 0, 0]


def test_group_reports_least_witness_then_first_listed():
    H = group_algebra(cyclic(3))
    delta = Tensor.identity(Q, 3)
    left_bad = _with(H.mult, (0, 2, 1), Q.one)   # breaks 1 . e_2 at i = 2
    right_bad = _with(H.mult, (1, 0, 0), Q.one)  # breaks e_1 . 1 at i = 1

    def left(m):
        return Identity("left", "i", "k", [(H.unit, "j"), (m, "jik")], [(delta, "ik")])

    def right(m):
        return Identity("right", "i", "k", [(H.unit, "j"), (m, "ijk")], [(delta, "ik")])

    assert check("ok", [left(left_bad), right(right_bad)]).axiom == "right"
    assert check("ok", [left(left_bad), right(left_bad)]).witness == (2,)
    tie = _with(_with(H.mult, (0, 1, 0), Q.one), (1, 0, 2), Q.one)  # both sides break at i = 1
    assert check("ok", [left(tie), right(tie)]).axiom == "left"
    assert check("ok", [right(tie), left(tie)]).axiom == "right"
    # sequential groups: the first group's failure wins whatever its witness
    assert check("ok", left(left_bad), right(right_bad)).axiom == "left"


def test_witness_is_lexicographically_first_and_factor_order_is_only_evaluation_order():
    H = group_algebra(symmetric(3))
    bad = _with(H.mult, (3, 4, 1), Q.coerce(5))
    r = check("associativity", _assoc(bad))
    reordered = Identity("associativity", "ijk", "l",
                         [(bad, "mkl"), (bad, "ijm")], [(bad, "jkm"), (bad, "iml")])
    s = check("associativity", reordered)
    assert (r.witness, r.lhs, r.rhs) == (s.witness, s.lhs, s.rhs)
    lhs = bad.contract(bad, [(2, 0)])  # (i, j, k, l)
    rhs = bad.contract(bad, [(1, 2)])  # (i, l, j, k)
    differ = [(i, j, k) for (i, j, k, l) in lhs.entries.keys() | rhs.transpose((0, 2, 3, 1)).entries.keys()
              if lhs.get((i, j, k, l)) != rhs.get((i, l, j, k))]
    assert r.witness == min(differ)


def test_zero_side():
    H = group_algebra(cyclic(2))
    # e_i (e_0 + e_1) is never zero
    r = check("ok", Identity("zero", "i", "k", [(H.mult, "ijk"), (H.counit, "j")], None))
    assert (r.passed, r.witness) == (False, (0,))
    assert dense(r.lhs) == [1, 1] and dense(r.rhs) == [0, 0]


def test_rationals_against_prime_field():
    reports = []
    for field in (Q, prime_field(5)):
        H = group_algebra(symmetric(3), field)
        assert check("ok", _assoc(H.mult)).passed
        reports.append(check("ok", _assoc(_with(H.mult, (1, 2, 3), field.coerce(2)))))
        assert all(isinstance(c, type(field.one)) for c in reports[-1].lhs.entries.values())
    q, p = reports
    assert q.witness == p.witness == (1, 1, 2)
    assert {k: c % 5 for k, c in q.lhs.entries.items()} == p.lhs.entries
    # 5 e = 0 holds over F_5 after reduction, and fails over Q
    for field, holds in ((Q, False), (prime_field(5), True)):
        five = Tensor(field, (1, 1), {(0, 0): field.coerce(5)})
        assert check("ok", Identity("five", "i", "", [(five, "ij")], None)).passed is holds


def test_malformed_specs_are_rejected():
    H = group_algebra(cyclic(2))
    with pytest.raises(ShapeError):
        Identity("x", "i", "", [(H.mult, "iij")], None)  # repeated letter
    with pytest.raises(ShapeError):
        Identity("x", "i", "", [(H.mult, "ij")], None)  # wrong rank
    with pytest.raises(ShapeError):
        Identity("x", "i", "", [(H.mult, "ijk"), (Tensor.identity(Q, 3), "kl")], None)
    with pytest.raises(ShapeError):
        check("x", Identity("x", "i", "k", [(H.counit, "i")], None))  # k never bound


def _random(rng, field, shape):
    entries = {}
    for idx in product(*(range(d) for d in shape)):
        if rng.random() < 0.5:
            c = rng.randrange(-4, 5)
            entries[idx] = field.coerce(Fraction(c, rng.randrange(1, 4)) if field.p is None else c)
    return Tensor(field, shape, entries)


@pytest.mark.parametrize("field", [Q, prime_field(5)], ids=["Q", "F5"])
def test_evaluate_agrees_with_a_dense_einsum(field):
    rng = random.Random(7)
    a, b, c = (_random(rng, field, s) for s in [(3, 4, 2), (2, 4, 5), (5,)])
    for out, factors in [
        ("ki", [(a, "ijl"), (b, "ljk")]),
        ("ik", [(a, "ijl"), (b, "ljm"), (c, "m"), (c, "k")]),
        ("", [(a, "ijl"), (b, "ljm"), (c, "m")]),
        ("mji", [(c, "m"), (a, "ijl")]),
    ]:
        got = evaluate(out, factors)
        assert got == dense_einsum(field, out, factors)
        # over Q an int iff integral (the normal form), over F_p always an int
        assert all(type(v) is (int if v.denominator == 1 else Fraction)
                   for v in got.entries.values())


def test_evaluate_returns_ints_over_q_for_integral_entries():
    H = group_algebra(cyclic(3))
    square = evaluate("ik", [(H.mult, "ijk"), (H.counit, "j")])
    assert square.entries and all(type(v) is int for v in square.entries.values())
    assert square == H.mult.contract(H.counit, [(1, 0)])


def test_evaluate_returns_ints_where_halves_sum_to_an_integer():
    half = Fraction(1, 2)
    a = Tensor(Q, (2, 2), {(0, 0): half, (0, 1): half, (1, 0): half})
    b = Tensor(Q, (2,), {(0,): 1, (1,): 1})
    got = evaluate("i", [(a, "ij"), (b, "j")])
    assert got.entries == {(0,): 1, (1,): half}
    assert type(got.entries[(0,)]) is int and type(got.entries[(1,)]) is Fraction
    # a failure report's sides are in the same normal form: the lhs at the
    # witness 0 is 1/2 + 1/2
    c = Tensor(Q, (2,), {(0,): 2, (1,): half})
    r = check("x", Identity("sum", "i", "", [(a, "ij"), (b, "j")], [(c, "i")]))
    assert (r.witness, r.lhs.entries, r.rhs.entries) == ((0,), {(): 1}, {(): 2})
    assert type(r.lhs.entries[()]) is int


def test_evaluate_rejects_malformed_specs():
    H = group_algebra(cyclic(2))
    with pytest.raises(ShapeError):
        evaluate("i", [(H.mult, "ij")])  # wrong rank
    with pytest.raises(ShapeError):
        evaluate("l", [(H.mult, "ijk")])  # l is never bound
    with pytest.raises(ShapeError):
        evaluate("i", [(H.counit, "i"), (group_algebra(cyclic(2), prime_field(5)).unit, "j")])
    with pytest.raises(ShapeError, match="letter 'i' repeats in 'ii'"):
        evaluate("ii", [(H.mult, "ijk")])


# -- packed keys against the dense oracles ------------------------------------------


def _changed(rng, t):
    """t with one entry, anywhere in its shape, set to a random value (0 deletes it)."""
    f = t.field
    idx = tuple(rng.randrange(d) for d in t.shape)
    c = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) if f.p is None else rng.randrange(f.p)
    entries = dict(t.entries)
    entries.pop(idx, None)
    if c:
        entries[idx] = f.coerce(c)
    return Tensor(f, t.shape, entries)


def _agrees_with_oracle(*identities):
    r = check("ok", list(identities))
    want = dense_first_failure(identities)
    if want is None:
        assert r.passed
    else:
        assert (r.axiom, r.witness, dense(r.lhs), dense(r.rhs)) == want
    return want


WIDTH_EDGES = (1, 2, 3, 4, 5, 8, 9)  # 0, 1, 2, 2, 3, 3 and 4 bits


@pytest.mark.parametrize("field", [Q, prime_field(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("d", WIDTH_EDGES)
def test_scans_at_bit_width_edges_match_the_dense_oracle(field, d):
    rng = random.Random(d)
    for e in (d, WIDTH_EDGES[WIDTH_EDGES.index(d) - 1]):  # 1 pairs with 9
        # i, m of dim d and j, k of dim e; with b first, the summed m is
        # bound while i and k are, but j is not yet
        a = _random(rng, field, (d, e, d))  # i j m
        b = _random(rng, field, (d, e))  # m k
        lhs = [(a, "ijm"), (b, "mk")]
        assert check("ok", Identity("x", "ij", "k", lhs, [(b, "mk"), (a, "ijm")])).passed
        assert evaluate("kji", lhs) == dense_einsum(field, "kji", lhs)
        def agree(*rhs):
            _agrees_with_oracle(Identity("x", "ij", "k", lhs, rhs))

        for _ in range(2):
            agree((_changed(rng, b), "mk"), (a, "ijm"))
            agree((b, "mk"), (_changed(rng, a), "ijm"))


@pytest.mark.parametrize("field", [Q, prime_field(7)], ids=["Q", "F7"])
def test_group_with_differently_placed_first_witness_letters_matches_the_dense_oracle(field):
    # the first witness letter i sits above 3 + 2 bits, 3 bits and 5 bits
    rng = random.Random(11)
    a = _random(rng, field, (3, 5, 2))  # i j m
    b = _random(rng, field, (2, 4))  # m k
    c = Tensor(field, (2,), {(0,): field.one, (1,): field.coerce(3)})  # m

    def maybe(t):  # each identity of a draw is broken or not at random
        return _changed(rng, t) if rng.random() < 0.5 else t

    failures = set()
    for _ in range(16):
        group = [
            Identity("ij-k", "ij", "k", [(a, "ijm"), (b, "mk")], [(b, "mk"), (maybe(a), "ijm")]),
            Identity("ij", "ij", "", [(a, "ijm"), (c, "m")], [(c, "m"), (maybe(a), "ijm")]),
            Identity("i-jk", "i", "jk", [(a, "ijm"), (b, "mk")], [(maybe(a), "ijm"), (b, "mk")]),
        ]
        for order in (group, group[::-1]):
            want = _agrees_with_oracle(*order)
            if want is not None:
                failures.add(want[:2])
    # the draws reach every identity of the group and several first slices
    assert {axiom for axiom, _ in failures} == {"ij-k", "ij", "i-jk"}
    assert len({witness[0] for _, witness in failures}) > 1


@pytest.mark.parametrize("field", [Q, prime_field(5)], ids=["Q", "F5"])
def test_empty_product_and_zero_sides_match_the_dense_oracle(field):
    rng = random.Random(5)
    for _ in range(20):
        u, v = _random(rng, field, (3,)), _random(rng, field, (3,))
        # sum_i u_i v_i == 1, against the empty product
        _agrees_with_oracle(Identity("scalar", "", "", [(u, "i"), (v, "i")], []))
        a = _random(rng, field, (4, 3, 2))
        # a v == 0, against the zero side
        _agrees_with_oracle(Identity("zero", "i", "k", [(a, "ijk"), (v, "j")], None))
        # no witness letters: one slice, reported at (0,)
        _agrees_with_oracle(
            Identity("slice", "", "k", [(u, "i"), (a, "jik")], [(v, "i"), (a, "jik")]))
        # u_i == 1 for every i: the empty product in each slice of i
        _agrees_with_oracle(Identity("ones", "i", "", [(u, "i")], []))


def test_non_integral_rationals_cancel_exactly():
    third, half = Fraction(1, 3), Fraction(1, 2)
    a = Tensor(Q, (2, 2), {(0, 0): half, (0, 1): third, (1, 1): Q.coerce(3)})
    v = Tensor(Q, (2,), {(0,): Q.coerce(1), (1,): half})
    w = Tensor(Q, (2,), {(0,): Fraction(2, 3), (1,): Fraction(3, 2)})  # a v
    assert check("ok", Identity("av", "i", "", [(a, "ij"), (v, "j")], [(w, "i")])).passed
    # nothing is reduced to an integer: 2/3 + 1/10**9 differs from 2/3
    near = Tensor(Q, (2,), {**w.entries, (0,): Fraction(2, 3) + Fraction(1, 10**9)})
    r = check("ok", Identity("av", "i", "", [(a, "ij"), (v, "j")], [(near, "i")]))
    assert (r.witness, r.lhs.get(()), r.rhs.get(())) == ((0,), Fraction(2, 3), near.get(0))
    assert type(r.lhs.get(())) is Fraction
    rng = random.Random(2)
    for _ in range(3):
        _agrees_with_oracle(
            Identity("av", "i", "", [(a, "ij"), (v, "j")], [(_changed(rng, w), "i")]))


def test_a_group_must_share_the_range_of_its_first_witness_letter():
    # scanned over the first identity's range, bad would pass unseen
    I2, I4 = Tensor.identity(Q, 2), Tensor.identity(Q, 4)
    ok = Identity("ok", "i", "k", [(I2, "ik")], [(I2, "ik")])
    bad = Identity("bad", "i", "k", [(_with(I4, (3, 3), Q.zero), "ik")], [(I4, "ik")])
    assert check("x", bad).witness == (3,)
    with pytest.raises(ShapeError, match="ok, bad"):
        check("x", [ok, bad])
    with pytest.raises(ShapeError, match="ok, bad"):
        with ledger():
            check("x", [ok, bad])
    # or on having a witness letter at all
    H = sweedler()
    scalar = Identity("scalar", "", "", [(H.unit, "i"), (H.counit, "i")], [])
    with pytest.raises(ShapeError, match="scalar, ok"):
        check("x", [scalar, ok])



@pytest.mark.parametrize("scope", ["none", "ledger"])
def test_an_empty_group_is_a_shape_error_in_either_scope(scope):
    # inside a ledger an empty group was never scanned, so it used to pass
    with contextlib.nullcontext() if scope == "none" else ledger():
        with pytest.raises(ShapeError, match="empty-x"):
            check("empty-x", [])
        with pytest.raises(ShapeError, match="empty-y"):
            check("empty-y", _assoc(sweedler().mult), ())

def _unit_laws(mult, unit):
    delta = Tensor.identity(mult.field, mult.shape[0])
    return [Identity("unit", "i", "k", [(unit, "j"), (mult, "jik")], [(delta, "ik")]),
            Identity("unit", "i", "k", [(unit, "j"), (mult, "ijk")], [(delta, "ik")])]


def _on_rows(mult, rows, unit):
    """Associativity of ``mult`` on the rows of the matrix ``rows``, resting
    on the unit laws: the record is made by hand, as no proof would make it
    for a corrupted product or a non-generating row."""
    generators = algebra.Generators(rows, mult, unit, algebra._PROOF)
    return on_generators(_assoc(mult), generators, needs=_unit_laws(mult, unit))


def _reduced_failure():
    """A_H(sweedler)'s product with one entry bumped, the first one for which
    the unit laws still hold and associativity on A_H's proved generators
    fails at another witness than the full scan; and those generators."""
    A = build_ah(sweedler())
    for idx in sorted(A.mult.entries):
        bad = _with(A.mult, idx, A.mult.entries[idx] + 1)
        alone = identity._first_failure((_on_rows(bad, A.generators.matrix, A.unit),))
        full = check("x", _assoc(bad))
        if alone is not None and full.witness != alone.witness and check("x", _unit_laws(bad, A.unit)):
            return bad, A
    raise AssertionError("no corruption fails on the generators")


def test_on_generators_without_generators_is_the_identity_itself():
    spec = _assoc(sweedler().mult)
    assert on_generators(spec, None) is spec
    assert spec.full is None


@pytest.mark.parametrize("scope", ["none", "empty", "proved"])
def test_a_failing_reduced_identity_reports_what_the_full_scan_reports(scope):
    bad, A = _reduced_failure()
    reduced = _on_rows(bad, A.generators.matrix, A.unit)
    assert reduced.full is not None and reduced.full.full is None
    want = check("algebra", _assoc(bad), _unit_laws(bad, A.unit))
    assert not want.passed
    with contextlib.nullcontext() if scope == "none" else ledger():
        if scope == "proved":  # the preconditions are already in the ledger
            assert check("unit", _unit_laws(bad, A.unit)).passed
        got = check("algebra", reduced, _unit_laws(bad, A.unit))
    assert (got.passed, got.axiom, got.witness) == (want.passed, want.axiom, want.witness)
    assert (got.lhs, got.rhs) == (want.lhs, want.rhs)


def test_a_reduced_identity_and_its_full_one_are_freed_by_reference_counting():
    # a reference from an identity to itself would leave every Identity to
    # the cyclic collector
    H = sweedler()
    gc.disable()
    try:
        reduced = _on_rows(H.mult, Tensor.identity(Q, H.dim), H.unit)
        full = reduced.full
        assert check("x", reduced, _unit_laws(H.mult, H.unit)).passed
        refs = [weakref.ref(full), weakref.ref(reduced)]
        del full, reduced
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_require_returns_a_pass_and_raises_a_failure():
    ok = Report.ok("x")
    assert ok.require() is ok
    bad = Report.fail("x", (1, 2))
    with pytest.raises(CheckFailedError) as err:
        bad.require()
    assert err.value.report is bad


# -- one compiled entry per signature ------------------------------------------------


def test_one_signature_shares_one_entry_and_other_shapes_get_their_own():
    s3, c2 = group_algebra(symmetric(3)), group_algebra(cyclic(2))
    assert _assoc(s3.mult).compiled is _assoc(group_algebra(symmetric(3)).mult).compiled
    # over another field the signature is the same; the field is the instance's
    assert _assoc(s3.mult).compiled is _assoc(group_algebra(symmetric(3), prime_field(5)).mult).compiled
    # the same letters at other shapes
    a, b = _assoc(s3.mult), _assoc(c2.mult)
    assert a.compiled is not b.compiled
    assert (a.compiled.shape, b.compiled.shape) == ((6,), (2,))
    assert check("ok", b).passed and check("ok", a).passed


def test_factors_over_two_fields_are_rejected_even_when_the_signature_is_compiled():
    u, v = group_algebra(cyclic(2)).counit, group_algebra(cyclic(2), prime_field(5)).counit
    assert check("ok", Identity("x", "i", "", [(u, "i")], [(u, "i")])).passed
    for _ in range(2):
        with pytest.raises(ShapeError, match="factors over"):
            Identity("x", "i", "", [(u, "i")], [(v, "i")])


@pytest.mark.parametrize("case", ["rank", "two-dimensions", "witness-across-sides",
                                  "output-across-sides", "unbound", "repeated-witness",
                                  "witness-as-output"])
def test_a_malformed_spec_raises_on_every_construction(case):
    H = group_algebra(cyclic(2))
    spec, message = {
        "rank": (("i", "", [(H.mult, "ij")], None), "do not index"),
        "two-dimensions": (("i", "", [(H.mult, "ijk"), (Tensor.identity(Q, 3), "kl")], None),
                           "has two dimensions"),
        # each side alone is well formed; a result letter differs between them
        "witness-across-sides": (("i", "", [(H.counit, "i")], [(Tensor.zeros(Q, (3,)), "i")]),
                                 "letter 'i' has two dimensions"),
        "output-across-sides": (("", "k", [(H.counit, "k")], [(Tensor.zeros(Q, (3,)), "k")]),
                                "letter 'k' has two dimensions"),
        # the rhs binds k, the lhs never does
        "unbound": (("i", "k", [(H.counit, "i")], [(Tensor.identity(Q, 2), "ik")]),
                    "does not bind"),
        # a result letter is named twice, not left unbound
        "repeated-witness": (("ii", "", [(H.counit, "i")], None), "letter 'i' repeats in 'ii'"),
        "witness-as-output": (("i", "i", [(H.counit, "i")], None), "letter 'i' repeats in 'ii'"),
    }[case]
    entries = len(identity._COMPILED)
    for _ in range(3):
        with pytest.raises(ShapeError, match=message):
            Identity("x", *spec)
    assert len(identity._COMPILED) == entries


def test_no_tensor_is_reachable_from_the_memo_after_a_battery_run():
    # the memo holds letters, shapes, bit fields and masks: plain data that
    # keeps no structure alive; the compiled builders, joins and scanners are
    # keyed by plain data, and their globals and defaults hold none either
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["suite", "--builtin", "all", "--json"]) == 0
    assert identity._COMPILED and identity._BUILDERS and identity._KERNELS
    todo = [identity._COMPILED, identity._SHARED]
    for memo in (identity._BUILDERS, identity._KERNELS):
        todo.append(tuple(memo))
        for f in memo.values():
            assert f.__closure__ is None and f.__kwdefaults__ is None
            # the globals are the builtins, the function itself and defaultdict
            todo += [{k: v for k, v in f.__globals__.items()
                      if k != "__builtins__" and v is not f}, f.__defaults__]
    seen = set()
    while todo:
        obj = todo.pop()
        # an entry's class is among its referents; classes are not data
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert isinstance(obj, (dict, tuple, str, int, range, type(None))), type(obj)
        todo.extend(gc.get_referents(obj))


# -- row indexes over the keys a scan can reach ----------------------------------


def _filtered(monkeypatch) -> list:
    """(entries of the factor, entries indexed) of each index built over
    reachable keys only, as the spy sees them."""
    seen = []
    real = identity._rows

    def spy(tensor, bound, new, cache, reach=None):
        rows = real(tensor, bound, new, cache, reach)
        if reach is not None:
            seen.append((len(tensor.entries), sum(map(len, rows.values()))))
        return rows

    monkeypatch.setattr(identity, "_rows", spy)
    return seen


def _unfiltered(monkeypatch):
    monkeypatch.setattr(identity, "_reach", lambda *args: None)


def test_the_unit_law_on_a_h_indexes_only_the_unit_rows_and_reports_the_dense_failure(monkeypatch):
    A = build_ah(BUILTINS["taft-3-f7"]())
    unit = sorted(i for i, in A.unit.entries)  # the rows 0, 27 and 54
    idx = next(idx for idx in sorted(A.mult.entries) if idx[0] in unit and idx[1] == 5)
    bad = _with(A.mult, idx, A.mult.entries[idx] + 1)
    law = _unit_laws(bad, A.unit)[0]  # (1 e_i) reads bad at (1's support, i, k)
    seen = _filtered(monkeypatch)
    r = check("unit", law)
    assert seen == [(3051, sum(1 for j, _, _ in A.mult.entries if j in unit))]
    assert (r.axiom, r.witness, dense(r.lhs), dense(r.rhs)) == dense_first_failure([law])
    _unfiltered(monkeypatch)
    assert check("unit", law) == r


def _reduced_assoc_failure(bad, rows, unit):
    reduced = _on_rows(bad, rows, unit)
    return reduced, identity._first_failure((reduced,))


def test_a_reduced_scan_on_a_h_finds_a_corruption_in_a_reachable_row(monkeypatch):
    # the first factor is the generator matrix: the product's index holds
    # only the rows of the generators' support
    A = build_ah(BUILTINS["taft-3-f7"]())
    support = {i for _, i in A.generators.matrix.entries}
    unit = {i for i, in A.unit.entries}
    idx = next(idx for idx in sorted(A.mult.entries)
               if idx[0] in support - unit and idx[1] not in unit)
    bad = _with(A.mult, idx, A.mult.entries[idx] + 1)
    seen = _filtered(monkeypatch)
    reduced, got = _reduced_assoc_failure(bad, A.generators.matrix, A.unit)
    assert got is not None
    assert seen and all(kept < size / 2 for size, kept in seen)
    # the full scan that check falls back to, and the same reduced scan
    # with every index whole
    full = check("algebra", _assoc(bad), _unit_laws(bad, A.unit))
    assert check("algebra", reduced, _unit_laws(bad, A.unit)) == full
    _unfiltered(monkeypatch)
    assert _reduced_assoc_failure(bad, A.generators.matrix, A.unit)[1] == got


def test_a_reduced_scan_with_a_filtered_index_matches_the_dense_oracle(monkeypatch):
    # one generator row of A_H(k_7 C_3), so that the dense loop stays small
    A = build_ah(group_algebra(cyclic(3), prime_field(7)))
    rows = A.generators.matrix
    g = max(g for g, _ in rows.entries)
    row = Tensor(A.field, (1, A.dim), {(0, i): c for (h, i), c in rows.entries.items() if h == g})
    seen = _filtered(monkeypatch)
    for idx in sorted(A.mult.entries):
        if (0, idx[0]) in row.entries:
            bad = _with(A.mult, idx, A.mult.entries[idx] + 1)
            reduced, got = _reduced_assoc_failure(bad, row, A.unit)
            assert (got.axiom, got.witness, dense(got.lhs), dense(got.rhs)) == \
                dense_first_failure([reduced])
            break
    assert seen and all(kept < size for size, kept in seen)


@pytest.mark.parametrize("field", [Q, prime_field(5)], ids=["Q", "F5"])
def test_evaluate_with_a_small_first_factor_agrees_with_a_dense_einsum(field, monkeypatch):
    rng = random.Random(3)
    seen = _filtered(monkeypatch)
    t, u = _random(rng, field, (5, 4, 6)), _random(rng, field, (6, 3))
    for v in (Tensor(field, (5,), {(2,): field.one}),
              Tensor(field, (5,), {(0,): field.coerce(2), (4,): field.coerce(3)})):
        for out, factors in [("jk", [(v, "i"), (t, "ijk")]),
                             ("kj", [(v, "i"), (t, "ijk")]),
                             ("jl", [(v, "i"), (t, "ijk"), (u, "kl")])]:
            assert evaluate(out, factors) == dense_einsum(field, out, factors)
    assert len(seen) == 6 and all(kept < size for size, kept in seen)


def test_a_filtered_index_serves_only_the_side_it_was_built_for():
    # in one group, the unit law indexes the product over the unit's rows
    # only; the next identity reads the same product with the same bound
    # letters at the same bits after a dense first factor, so it needs every row
    H = group_algebra(symmetric(3))
    ones = Tensor(Q, (6, 6), {(i, j): Q.one for i in range(6) for j in range(6)})
    wide = [(ones, "ij"), (H.mult, "jik")]
    group = [_unit_laws(H.mult, H.unit)[0],
             Identity("wide", "i", "k", wide, [(dense_einsum(Q, "ik", wide), "ik")])]
    assert dense_first_failure(group) is None
    assert check("ok", group).passed


# -- compiled row-index builders against the generic loop ------------------------


def _generic_rows(tensor, bound, new, reach=None):
    """The row index by a loop over each entry's ``(axis, shift)`` fields:
    the oracle of the compiled builders."""
    rows = defaultdict(list)
    for idx, c in tensor.entries.items():
        key = 0
        for axis, shift in bound:
            key |= idx[axis] << shift
        if reach is not None and key not in reach:
            continue
        packed = 0
        for axis, shift in new:
            packed |= idx[axis] << shift
        rows[key].append((packed, c))
    return rows


def test_every_row_index_of_a_battery_run_matches_the_generic_loop(monkeypatch):
    real, built = identity._rows, []

    def spy(tensor, index, shifts, cache, reach=None):
        rows = real(tensor, index, shifts, cache, reach)
        rank, bound, new, filtered = index
        assert (rank, filtered) == (tensor.rank, False)
        fields = list(zip(bound + new, shifts, strict=True))
        want = _generic_rows(tensor, fields[:len(bound)], fields[len(bound):], reach)
        # equal lists: the same entries in the same order within each row
        assert rows == want, (index, shifts)
        built.append(reach is not None)
        return rows

    monkeypatch.setattr(identity, "_rows", spy)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["suite", "--builtin", "all", "--json"]) == 0
    assert any(built) and not all(built)
    # one builder per (rank, bound axes, new axes, filtered), never per shift
    # layout: 22 after a battery run in a fresh process
    assert len(identity._BUILDERS) <= 64


# -- compiled joins and scanners against the breadth-first loop -------------------


def _accumulate(plan, start, sign, acc):
    """Add ``sign`` times one slice of a side into ``acc`` by the
    breadth-first loop, one dict of partial terms per factor: the oracle of
    the compiled joins and scanners."""
    steps = [plan[x:x + 3] for x in range(0, len(plan), 3)]
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


def test_every_join_and_scan_of_a_battery_run_matches_the_breadth_first_loop(monkeypatch):
    real_join, real_scanner = identity._join, identity._scanner
    joins, slices_run = [], []

    def join(n):
        def spy(start, *plan):
            assert len(plan) == 3 * n
            acc = real_join(n)(start, *plan)
            # equal item lists: the same keys in the same order
            assert list(acc.items()) == list(_accumulate(plan, start, 1, {}).items())
            joins.append(n)
            return acc
        return spy

    def scanner(shape, rational):
        def spy(p, slices, *plans):
            slices = list(slices)
            found = real_scanner(shape, rational)(p, iter(slices), *plans)
            sides, at = [], 0
            for steps in (n for pair in shape for n in pair):
                sides.append(None if steps is None else plans[at:at + 3 * steps])
                at += 3 * (steps or 0)
            assert at == len(plans) and rational is (p is None)
            want = None
            for keys in slices:
                slices_run.append(keys)
                bad = []
                for n, start in enumerate(keys):
                    diff = {}
                    for plan, sign in zip(sides[2 * n:2 * n + 2], (1, -1)):
                        if plan is not None:
                            # the compiled join of this side slice, through the spy
                            identity._join(len(plan) // 3)(start, *plan)
                            _accumulate(plan, start, sign, diff)
                    nonzero = [k for k, c in diff.items() if (c if p is None else c % p)]
                    if nonzero:
                        bad.append((n, start, nonzero))
                if bad:
                    want = bad
                    break
            assert found == want
            return found
        return spy

    monkeypatch.setattr(identity, "_join", join)
    monkeypatch.setattr(identity, "_scanner", scanner)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["suite", "--builtin", "all", "--json"]) == 0
    assert slices_run and 0 in joins and max(joins) > 4
    # one join per side length and one scanner per group shape, never per
    # signature: 9 joins and 32 scanners after a battery run in a fresh process
    assert len(identity._KERNELS) <= 64
