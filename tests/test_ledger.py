"""The ledger of proved identities (``identity.ledger``) changes no report.

Inside a ledger scope ``identity.check`` skips the identities of a group
already proved in that scope and records the group's identities once it
passes.  Every single-entry corruption that test_hopf.py, test_ayd.py and
test_generators.py build must report the same with no ledger, in an empty
ledger and in a ledger filled by first proving the uncorrupted structures:
a structure one entry away from a proved one is scanned, not looked up.
"""

from __future__ import annotations

import contextlib
import io
from collections import defaultdict

import pytest

from hayd import identity, suite
from hayd.algebra import AlgebraModule, FinAlgebra, associativity_report
from hayd.ayd import check_ayd, check_entwining, check_yd, entwining_map
from hayd.cli import main
from hayd.hopf import sweedler, verify_hopf_axioms
from hayd.identity import Identity, check, ledger
from hayd.suite import BUILTINS
from hayd.tensor import Tensor

from test_ayd import _corrupted_entwining, _corrupted_gradings
from test_generators import (
    _algebra,
    _built,
    _comodule,
    _candidates,
    _coproduct_corruptions,
    _hopf,
    _non_spanning_corruptions,
    _plain,
    _precondition_corruptions,
    _product_corruptions,
    _same,
)
from test_hopf import _single_entry_corruptions


def _same_in_every_ledger(runs, prove):
    """Each run's report with no ledger, in a fresh ledger of its own, and
    in one ledger that prove() filled first and all runs share: the three
    are equal.  Returns the reports."""
    wants = [run() for run in runs]
    for run, want in zip(runs, wants):
        with ledger():
            _same(run(), want)
    with ledger():
        prove()
        for run, want in zip(runs, wants):
            _same(run(), want)
    return wants


def _scans(monkeypatch):
    """A list that counts the groups ``identity.check`` scans from now on."""
    log = []
    real = identity._first_failure

    def spy(identities):
        log.append(identities)
        return real(identities)

    monkeypatch.setattr(identity, "_first_failure", spy)
    return log


def test_hopf_corruptions_report_the_same_in_every_ledger():
    runs = defaultdict(list)
    for (name, _, _), C in _single_entry_corruptions():
        runs[name].append(lambda C=C: verify_hopf_axioms(C))
    failed = 0
    for name, factory in BUILTINS.items():
        H = factory()
        reports = _same_in_every_ledger(runs[name], lambda: verify_hopf_axioms(H))
        failed += sum(not r.passed for r in reports)
    assert failed > 200


def test_ayd_corruptions_report_the_same_in_every_ledger():
    kS3 = BUILTINS["group-s3"]()
    runs, clean = [], []
    for _, M, C in _corrupted_gradings(kS3):
        runs += [lambda C=C: check_ayd(C), lambda C=C: check_yd(C)]
        clean.append(M)
    reports = _same_in_every_ledger(runs, lambda: [(check_ayd(M), check_yd(M)) for M in clean])
    assert sum(not r.passed for r in reports) > 10
    H = sweedler()
    E = _corrupted_entwining(H)
    [r] = _same_in_every_ledger([lambda: check_entwining(E)],
                                lambda: check_entwining(entwining_map(H, "ayd")))
    assert not r.passed


def _prove_clean(name):
    """Every uncorrupted structure the generator corruptions start from,
    with and without generators."""
    H, A, Dalg, D, coaction = _built(name)
    for alg in (A, Dalg):
        for gens in (alg.generators.matrix, _candidates(H), None):
            FinAlgebra(H.field, alg.mult, alg.unit, check=False, generators=gens).verify()
    for alg in (A, _plain(A)):
        AlgebraModule(alg, A.mult, check=False).verify()
        _comodule(alg, D, coaction.tensor)()
    for gens in (D.generators, None):
        _hopf(D, D.comult, gens)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_generator_corruptions_report_the_same_in_every_ledger(name):
    runs = [run for fast, full in _product_corruptions(name) for run in (fast, full)]
    for cases in (_coproduct_corruptions(name), _precondition_corruptions(name)):
        runs += [run for fast, full, _ in cases for run in (fast, full)]
    A = _built(name)[1]
    runs += [_algebra(mult, A.unit, rows) for mult, rows in _non_spanning_corruptions(name)]
    reports = _same_in_every_ledger(runs, lambda: _prove_clean(name))
    assert sum(not r.passed for r in reports) > 10


def _assoc(mult, label="associativity"):
    return Identity(label, "ijk", "l", [(mult, "ijm"), (mult, "mkl")],
                    [(mult, "iml"), (mult, "jkm")])


def _unit_laws(mult, unit, label="unit"):
    delta = Tensor.identity(mult.field, mult.shape[0])
    return [Identity(label, "i", "k", [(unit, "j"), (mult, "jik")], [(delta, "ik")]),
            Identity(label, "i", "k", [(unit, "j"), (mult, "ijk")], [(delta, "ik")])]


def _broken_unit(H):
    """H's product with 1 e_1 != e_1: the left unit law fails at 1 only."""
    mult = H.mult
    (one,) = [i for (i,) in H.unit.entries]
    idx = (one, 1, 1)
    return Tensor(H.field, mult.shape, {**mult.entries, idx: mult.get(idx) + 1})


def test_a_failing_group_records_nothing(monkeypatch):
    H = sweedler()
    bad = _broken_unit(H)
    scans = _scans(monkeypatch)
    with ledger():
        first = check("unit", _unit_laws(bad, H.unit))
        second = check("unit", _unit_laws(bad, H.unit))
    assert not first.passed
    _same(second, first)
    assert len(scans) == 2


def test_a_hit_needs_equal_tensors_and_ignores_labels(monkeypatch):
    H = sweedler()
    scans = _scans(monkeypatch)
    with ledger():
        assert check("associativity", _assoc(H.mult)).passed
        # equal by value, built apart, under another label: a hit
        again = Tensor(H.field, H.mult.shape, dict(H.mult.entries))
        assert check("other", _assoc(again, "other")).passed
        assert len(scans) == 1
        # the same tensors in another pattern: scanned
        assert check("swapped", Identity(
            "swapped", "ijk", "l", [(H.mult, "jim"), (H.mult, "mkl")],
            [(H.mult, "iml"), (H.mult, "jkm")])).passed is False
        assert len(scans) == 2


def test_a_summed_letter_is_not_a_result_letter(monkeypatch):
    # "each row of M sums like a row of I" and "M = I" write the same
    # factors; only the number of result letters tells them apart
    P = Tensor(sweedler().field, (2, 2), {(0, 1): 1, (1, 0): 1})
    delta = Tensor.identity(P.field, 2)
    row_sums = Identity("row sums", "i", "", [(P, "ik")], [(delta, "ik")])
    equal = Identity("equal", "i", "k", [(P, "ik")], [(delta, "ik")])
    want = check("equal", equal)
    assert not want.passed and want.witness == (0,)
    scans = _scans(monkeypatch)
    with ledger():
        assert check("row sums", row_sums).passed
        _same(check("equal", equal), want)
    assert len(scans) == 2


def test_a_partly_proved_group_reports_the_least_witness_of_the_whole_group(monkeypatch):
    # the right unit law holds and the left one fails on the broken product:
    # with the right law proved first, the group scans the left law alone
    H = sweedler()
    bad = _broken_unit(H)
    left, right = _unit_laws(bad, H.unit)
    want = check("unit", [left, right])
    assert not want.passed and want.witness == (1,)
    scans = _scans(monkeypatch)
    with ledger():
        assert check("unit", right).passed
        _same(check("unit", [right, left]), want)
        _same(check("unit", [left, right]), want)
    assert [len(group) for group in scans] == [1, 1, 1]


def test_scopes_nest_and_an_exception_restores_the_outer_ledger(monkeypatch):
    H = sweedler()
    scans = _scans(monkeypatch)
    assert identity._LEDGER.get() is None
    with ledger():
        outer = identity._LEDGER.get()
        check("associativity", _assoc(H.mult))
        with ledger():
            assert identity._LEDGER.get() is not outer
            check("associativity", _assoc(H.mult))  # the inner scope proves it again
        assert identity._LEDGER.get() is outer
        with pytest.raises(RuntimeError):
            with ledger():
                raise RuntimeError
        assert identity._LEDGER.get() is outer
        check("associativity", _assoc(H.mult))  # a hit in the outer scope
    assert identity._LEDGER.get() is None
    assert len(scans) == 2


def test_run_suite_opens_one_ledger_per_target_and_closes_it_on_errors(monkeypatch):
    seen = []

    def probe(H):
        seen.append(identity._LEDGER.get())
        if len(seen) == 3:
            raise RuntimeError("a check that breaks")
        return verify_hopf_axioms(H)

    monkeypatch.setitem(suite.SUITE_CHECKS, "probe", probe)
    targets = {name: BUILTINS[name]() for name in ("fun-c2", "group-c2")}
    assert suite.run_suite(targets, ["probe", "hopf-axioms"]).passed
    assert seen[0] is not None and seen[0] is not seen[1]
    assert identity._LEDGER.get() is None
    with pytest.raises(RuntimeError):
        suite.run_suite(targets, ["probe"])
    assert identity._LEDGER.get() is None


def test_outside_a_scope_no_key_is_built(monkeypatch):
    def refuse(ident):
        raise AssertionError("a key was built outside a ledger scope")

    monkeypatch.setattr(identity, "_key", refuse)
    H = sweedler()
    assert verify_hopf_axioms(H).passed
    assert not check("unit", _unit_laws(_broken_unit(H), H.unit)).passed


def _battery_scans(monkeypatch, scope) -> int:
    scans = _scans(monkeypatch)
    monkeypatch.setattr(suite, "ledger", scope)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["suite", "--builtin", "all"]) == 0
    monkeypatch.undo()
    return len(scans)


def test_the_battery_scans_at_most_half_the_groups_with_the_ledger(monkeypatch):
    # 742 of 1,770 when this was written.  A change that quietly defeats the
    # ledger fails here: with the label in the key it would scan 932, and a
    # check that rebuilt its tensors differently would miss its hits
    plain = _battery_scans(monkeypatch, contextlib.nullcontext)
    with_ledger = _battery_scans(monkeypatch, ledger)
    assert with_ledger <= 0.5 * plain, (with_ledger, plain)


def test_a_proved_tensor_cannot_be_written_in_place():
    # a ledger hit is a proof only while the proved tensors keep their
    # values: proving sweedler-2's product, scaling one entry in place and
    # checking again can no longer be written
    mult = sweedler().mult
    idx, c = next(iter(mult.entries.items()))
    with ledger():
        assert associativity_report(mult).passed
        with pytest.raises(TypeError):
            mult.entries[idx] = mult.field.mul(c, mult.field.coerce(3))
        with pytest.raises(TypeError):
            del mult.entries[idx]
    assert mult == sweedler().mult
