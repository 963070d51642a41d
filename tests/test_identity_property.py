"""Property tests of the identity engine: single-entry corruptions of the
builtins, and ``evaluate``'s letter groups; skipped where hypothesis is not
installed."""

from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hayd import identity  # noqa: E402
from hayd.errors import ShapeError  # noqa: E402
from hayd.fields import prime_field, rationals  # noqa: E402
from hayd.hopf import FinHopfAlgebra, verify_hopf_axioms  # noqa: E402
from hayd.identity import evaluate  # noqa: E402
from hayd.suite import BUILTINS  # noqa: E402
from hayd.tensor import Tensor  # noqa: E402

from helpers import dense, first_hopf_violation  # noqa: E402


_HOPF_LABELS = ("mult", "unit", "comult", "counit", "antipode")


@st.composite
def _corrupted_builtin(draw):
    """A builtin with one entry of one structure tensor set to any value."""
    H = BUILTINS[draw(st.sampled_from(sorted(BUILTINS)))]()
    f = H.field
    label = draw(st.sampled_from(_HOPF_LABELS))
    tensor = getattr(H, label)
    idx = tuple(draw(st.integers(0, d - 1)) for d in tensor.shape)
    if f.p is None:
        c = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    else:
        c = draw(st.integers(0, f.p - 1))
    entries = dict(tensor.entries)
    entries.pop(idx, None)
    if c:
        entries[idx] = f.coerce(c)
    data = {key: getattr(H, key) for key in _HOPF_LABELS}
    data[label] = Tensor(f, tensor.shape, entries)
    return FinHopfAlgebra(f, name=H.name, **data)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_corrupted_builtin())
def test_any_single_entry_corruption_reports_the_dense_first_violation(C):
    r = verify_hopf_axioms(C)
    want = first_hopf_violation(C)
    if want is None:
        assert r.passed or r.axiom == "antipode-invertible"
    else:
        assert (r.axiom, r.witness, dense(r.lhs), dense(r.rhs)) == want


class _Cold(dict):
    """A signature memo that never hits: every identity is compiled afresh,
    as if the memo were cleared before each construction and so before
    every check."""

    def get(self, key, default=None):
        return default


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_corrupted_builtin())
def test_a_cold_signature_memo_gives_the_same_report_as_a_warm_one(C):
    def fresh():  # no generators or verdict carried over from the other run
        return FinHopfAlgebra(C.field, name=C.name, **{key: getattr(C, key) for key in _HOPF_LABELS})

    warm = verify_hopf_axioms(fresh())
    with mock.patch.object(identity, "_COMPILED", _Cold()):
        cold = verify_hopf_axioms(fresh())
    assert cold == warm


@st.composite
def _grouped_spec(draw):
    """A random einsum over Q or F_7 of one to three factors, its result
    letters in a random order, and a random split of them into consecutive
    letter groups."""
    field = draw(st.sampled_from([rationals(), prime_field(7)]))
    if field.p is None:
        scalar = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        scalar = st.integers(0, 6)
    dims = {x: draw(st.integers(1, 3)) for x in "abcde"}
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        letters = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=3, unique=True))
        shape = tuple(dims[x] for x in letters)
        idx = st.tuples(*[st.integers(0, d - 1) for d in shape])
        entries = draw(st.dictionaries(idx, scalar, max_size=6))
        factors.append((Tensor(field, shape, entries), "".join(letters)))
    used = sorted({x for _, letters in factors for x in letters})
    out = "".join(draw(st.permutations(used))[:draw(st.integers(0, len(used)))])
    cuts = sorted(draw(st.sets(st.integers(1, max(len(out) - 1, 1)))) if len(out) > 1 else [])
    groups = [out[a:b] for a, b in zip([0, *cuts], [*cuts, len(out)])] if out else []
    return factors, out, groups


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_grouped_spec())
def test_letter_groups_equal_evaluate_then_reshape(spec):
    factors, out, drawn = spec
    plain = evaluate(out, factors)
    # the drawn split, one letter per group, and one group of every letter
    for groups in (drawn, list(out), [out] if out else []):
        shape = [1] * len(groups)
        for n, group in enumerate(groups):
            for x in group:
                shape[n] *= plain.shape[out.index(x)]
        got = evaluate(groups, factors)
        assert got == plain.reshape(shape)
        assert list(got.entries.values()) == list(plain.entries.values())
    with pytest.raises(ShapeError, match="empty letter group"):
        evaluate([*drawn, ""], factors)
    if out:
        with pytest.raises(ShapeError, match=f"letter '{out[0]}' repeats"):
            evaluate([*drawn, out[0]], factors)
