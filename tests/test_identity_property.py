"""Property test of the identity engine on single-entry corruptions of the
builtins; skipped where hypothesis is not installed."""

from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hayd import identity  # noqa: E402
from hayd.hopf import FinHopfAlgebra, verify_hopf_axioms  # noqa: E402
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
