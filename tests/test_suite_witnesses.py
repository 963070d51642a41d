"""Every suite verdict, and every element and modular-pair test, is decided
by ``identity.check``: a failure names the least violating basis tuple and
both sides there, exactly as the dense oracle of the same identity does; the
failures that are not identities report what they measured."""

import copy
import dataclasses

import pytest

from hayd import galois, hopf, suite
from hayd.ayd import check_modular_pair
from hayd.double import build_ah
from hayd.errors import CheckFailedError, InputError
from hayd.galois import canonical_map, comodule_algebra_from_hopf, coinvariants
from hayd.hopf import check_element, group_algebra, sweedler
from hayd.groups import cyclic
from hayd.identity import Identity, evaluate
from hayd.report import Report
from hayd.suite import BUILTINS
from hayd.tensor import Tensor

from helpers import (
    dense,
    dense_first_failure,
    dense_is_element,
    dense_is_modular_pair,
    dense_rank,
    first_compat_violation,
    screening_misses,
)


def _bump(t: Tensor, idx) -> Tensor:
    """t with one more unit at idx: one wrong entry."""
    f = t.field
    return Tensor(f, t.shape, {**t.entries, idx: f.add(t.get(idx), f.one)})


def _corrupt_call(monkeypatch, name, call, attr):
    """Patch the suite's builder ``name`` so that its call-th call (from 0)
    returns a copy of the real result with one wrong entry, the last nonzero
    one, in ``attr``; the list returned receives that copy."""
    real, made, calls = getattr(suite, name), [], []

    def patched(*args):
        out = real(*args)
        calls.append(args)
        if len(calls) == call + 1:
            out = copy.copy(out)
            t = getattr(out, attr)
            setattr(out, attr, _bump(t, max(t.entries)))
            made.append(out)
        return out

    monkeypatch.setattr(suite, name, patched)
    return made


def _assert_matches_dense(report, identities):
    want = dense_first_failure(identities)
    assert want is not None and not report.passed
    assert (report.axiom, report.witness) == want[:2]
    assert (dense(report.lhs), dense(report.rhs)) == want[2:]


def _assert_entry_witness(report, label, a, b):
    """``report`` is the entry-by-entry failure of a against b: the least
    differing index with both entries, as the dense oracle finds it."""
    least = min(i for i in {*a.entries, *b.entries} if a.get(i) != b.get(i))
    assert report.witness == least
    assert (report.lhs.get(()), report.rhs.get(())) == (a.get(least), b.get(least))
    letters = "abcdefgh"[:a.rank]
    _assert_matches_dense(report, [Identity(label, letters, "", [(a, letters)], [(b, letters)])])


def test_dual_reflexive_names_the_wrong_entry(monkeypatch):
    H = sweedler()
    made = _corrupt_call(monkeypatch, "dual_hopf", 1, "comult")
    report = suite.SUITE_CHECKS["dual-reflexive"](H)
    _assert_entry_witness(report, "dual-reflexive", made[0].comult, H.comult)


def test_dual_op_cop_names_the_wrong_entry(monkeypatch):
    H = sweedler()
    left = hopf.dual_hopf(hopf.variant(H, "op"))
    made = _corrupt_call(monkeypatch, "variant", 1, "antipode")
    report = suite.SUITE_CHECKS["dual-op-cop"](H)
    _assert_entry_witness(report, "dual-op-cop", left.antipode, made[0].antipode)


def test_variant_involution_names_the_wrong_entry(monkeypatch):
    H = sweedler()
    made = _corrupt_call(monkeypatch, "variant", 1, "mult")
    report = suite.SUITE_CHECKS["variant-involution"](H)
    _assert_entry_witness(report, "variant-involution", made[0].mult, H.mult)


def test_antipode_inverse_names_the_wrong_entry(monkeypatch):
    H = sweedler()
    s, sinv = H.antipode, _bump(hopf.antipode_inverse(H), (3, 3))
    monkeypatch.setattr(suite, "antipode_inverse", lambda H: sinv)
    report = suite.SUITE_CHECKS["antipode-inverse"](H)
    delta = Tensor.identity(H.field, H.dim)
    _assert_matches_dense(report, [
        Identity("antipode-inverse", "i", "k", [(s, "ij"), (sinv, "jk")], [(delta, "ik")]),
        Identity("antipode-inverse", "i", "k", [(sinv, "ij"), (s, "jk")], [(delta, "ik")]),
    ])


def test_ah_vs_double_reports_a_product_that_differs_where_s_squared_is_id(monkeypatch):
    H = group_algebra(cyclic(2))
    made = _corrupt_call(monkeypatch, "build_double", 0, "mult")
    report = suite.SUITE_CHECKS["ah-vs-double"](H)
    _assert_entry_witness(report, "ah-vs-double", build_ah(H).mult, made[0].mult)


def test_ah_vs_double_reports_s_squared_where_the_products_agree(monkeypatch):
    H = sweedler()
    monkeypatch.setattr(suite, "build_double", build_ah)
    report = suite.SUITE_CHECKS["ah-vs-double"](H)
    s, delta = H.antipode, Tensor.identity(H.field, H.dim)
    _assert_matches_dense(report, [
        Identity("ah-vs-double", "i", "k", [(s, "ij"), (s, "jk")], [(delta, "ik")]),
    ])
    assert report.witness == (1,)  # S^2(x) = -x


def test_galois_baseline_names_the_wrong_entry_of_the_action(monkeypatch):
    H = group_algebra(cyclic(2))  # commutative: the sandwich action is trivial
    real, made = suite.mu_action, []

    def patched(G, flipped=False):
        action, carrier = real(G, flipped)
        made.append(dataclasses.replace(action, tensor=_bump(action.tensor, (1, 0, 0))))
        return made[-1], carrier

    monkeypatch.setattr(suite, "mu_action", patched)
    report = suite.SUITE_CHECKS["galois-baseline"](H)
    want = suite.trivial_action(H, 2, "right").tensor
    _assert_entry_witness(report, "galois-baseline", made[0].tensor, want)


def test_galois_baseline_reports_the_rank_of_a_canonical_map_not_bijective(monkeypatch):
    H = sweedler()
    G = galois.hopf_galois_data(H)
    rows = G.can.shape[0] - 1
    can = Tensor(G.field, (rows, G.can.shape[1]),
                 {i: c for i, c in G.can.entries.items() if i[0] < rows})
    monkeypatch.setattr(suite, "hopf_galois_data",
                        lambda H: dataclasses.replace(G, can=can, bijective=False))
    report = suite.SUITE_CHECKS["galois-baseline"](H)
    assert not report.passed and report.witness == (dense_rank(can),) == (15,)


def test_ah_roundtrip_names_the_wrong_entry(monkeypatch):
    H = sweedler()
    made = _corrupt_call(monkeypatch, "ah_module_roundtrip", 0, "action")
    report = suite.SUITE_CHECKS["ah-roundtrip"](H)
    _assert_entry_witness(report, "ah-roundtrip", made[0].action, build_ah(H).mult)


def test_ah_roundtrip_fails_where_the_trivial_structure_is_not_yetter_drinfeld(monkeypatch):
    # with sigma = g in place of the unit, the one-dimensional lr structure
    # on sweedler-2 is not Yetter-Drinfeld; the item names that law's witness
    H = suite.builtin("sweedler-2")
    g = H.basis_vector(H.basis_names.index("g"))
    real = suite.one_dim_module
    monkeypatch.setattr(suite, "one_dim_module",
                        lambda H, delta, sigma, case="rl": real(H, delta, g, case))
    with pytest.raises(CheckFailedError) as exc:
        suite.SUITE_CHECKS["ah-roundtrip"](H)
    r = exc.value.report
    want = first_compat_violation(real(H, H.counit, g, "lr"), False, dense(hopf.antipode_inverse(H)))
    assert (r.axiom, r.witness, dense(r.lhs), dense(r.rhs)) == want
    assert want[:2] == ("yetter-drinfeld-lr", (1, 0))
    [item] = suite.run_suite({"sweedler-2": H}, ["ah-roundtrip"]).items
    assert (item.report.passed, item.report.witness) == (False, (1, 0))


def test_modular_pair_equivalence_reports_candidate_positions(monkeypatch):
    H = group_algebra(cyclic(2))
    chars, sigmas = suite.screened_characters(H), suite.screened_group_likes(H)
    real, calls = suite.check_modular_pair, []

    def flip_last(H, delta, sigma):
        calls.append(None)
        return real(H, delta, sigma) != (len(calls) == len(chars) * len(sigmas))

    monkeypatch.setattr(suite, "check_modular_pair", flip_last)
    report = suite.SUITE_CHECKS["modular-pair-equivalence"](H)
    assert report.witness == (len(chars) - 1, len(sigmas) - 1)
    assert (report.lhs, report.rhs) == (chars[-1], sigmas[-1])


def test_coinvariants_closed_names_the_pair_of_basis_vectors(monkeypatch):
    H = group_algebra(cyclic(3))
    e_t = Tensor(H.field, (2, 3), {(0, 0): 1, (1, 1): 1})  # rows e and t; t t = t^2 is outside
    t2 = H.basis_vector(2)
    monkeypatch.setattr(galois, "kernel_rows", lambda mat: e_t)
    with pytest.raises(CheckFailedError) as exc:
        coinvariants(comodule_algebra_from_hopf(H))
    r = exc.value.report
    assert (r.axiom, r.witness, r.lhs) == ("coinvariants-closed", (1, 1), t2)


def test_canonical_map_defined_names_the_relation_row(monkeypatch):
    H = sweedler()
    real = galois.relative_tensor
    row = Tensor(H.field, (1, 16), {(0, 5): 1})  # x (x) x, which can sends to xg (x) x
    monkeypatch.setattr(galois, "relative_tensor",
                        lambda CA, b: dataclasses.replace(real(CA, b), relations=row))
    CA = comodule_algebra_from_hopf(H)
    with pytest.raises(CheckFailedError) as exc:
        canonical_map(CA)
    # p (x) p' -> p coaction(p') on the full tensor square
    can = evaluate("ijbk", [(CA.coaction.tensor, "jck"), (CA.P.mult, "icb")]).reshape((16, 16))
    _assert_matches_dense(exc.value.report, [
        Identity("canonical-map-defined", "r", "k", [(row, "rt"), (can, "tk")], None),
    ])
    assert exc.value.report.witness == (0,)


def test_translation_exactness_names_the_row_of_h(monkeypatch):
    H = sweedler()
    G = canonical_map(comodule_algebra_from_hopf(H))
    real = galois.invert_matrix
    monkeypatch.setattr(galois, "invert_matrix", lambda t: _bump(real(t), (2, 5)))
    with pytest.raises(CheckFailedError) as exc:
        galois.translation_map(G)
    inv = _bump(real(G.can), (2, 5))
    targets = Tensor(H.field, (4, 16), {(i, i): 1 for i in range(4)})  # 1 (x) h_i, as 1 = e_0
    coords = evaluate("is", [(targets, "it"), (inv, "ts")])
    _assert_matches_dense(exc.value.report, [Identity(
        "translation-exactness", "i", "k", [(coords, "is"), (G.can, "sk")], [(targets, "ik")])])
    assert exc.value.report.witness == (2,)


# -- element and modular-pair tests against dense evaluation -----------------------


@pytest.fixture(scope="module", params=sorted(BUILTINS))
def builtin(request):
    return request.param, BUILTINS[request.param]()


def test_check_element_and_check_modular_pair_agree_with_dense_loops(builtin):
    name, H = builtin
    chars, glikes = screening_misses(name, H)
    zero = Tensor.zeros(H.field, (H.dim,))  # obeys each product law, fails each scalar law
    candidates = [zero, H.unit, H.counit, *map(H.basis_vector, range(H.dim)), *chars, *glikes]
    found = {"character": [], "group_like": []}
    for kind, vs in found.items():
        for v in candidates:
            want = dense_is_element(H, v, kind)
            assert check_element(H, v, kind) == want, (name, kind, v)
            if want:
                vs.append(v)
    assert all(v in found["character"] for v in chars)
    assert all(v in found["group_like"] for v in glikes)
    for delta in found["character"]:
        for sigma in found["group_like"]:
            want = dense_is_modular_pair(H, delta, sigma)
            assert check_modular_pair(H, delta, sigma) == want, (name, delta, sigma)
    with pytest.raises(InputError):
        check_modular_pair(H, H.unit + H.unit, H.unit)


@pytest.mark.parametrize("check, name", [
    ("hopf-axioms", "verify_hopf_axioms"),
    ("ah-associative", "build_ah"),
    ("double-associative", "build_double"),
    ("double-hopf", "build_double_hopf"),
    ("ah-comodule-algebra", "ah_double_coaction"),
])
def test_suite_checks_call_their_builder_by_its_module_name(monkeypatch, check, name):
    # a rebinding of the name, such as a trace wrapper, sees every call; the
    # builder's result is not a Report, so run_suite records a pass
    H, calls, built = sweedler(), [], object()
    monkeypatch.setattr(suite, name, lambda *args: calls.append(args) or built)
    assert suite.SUITE_CHECKS[check](H) is built
    [item] = suite.run_suite({"sweedler-2": H}, [check]).items
    assert calls == [(H,), (H,)]
    assert item.report == Report.ok(check)
