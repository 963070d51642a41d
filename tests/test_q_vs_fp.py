"""Builds over Q, reduced mod p, against the same builds over F_p.

The group algebras, the function algebras and Sweedler's algebra have
integral structure constants over Q, and so do the products built from them
(every antipode here is a permutation or a sign change).  Reduced mod 5 and
mod 7, each structure tensor, the products of build_ah and build_double, the
double's coalgebra and antipode, and the generator rows both products have
proved must equal what the same constructors build over F_5 and F_7.
"""

from __future__ import annotations

import pytest

from hayd.double import build_ah, build_double, build_double_hopf
from hayd.fields import prime_field, rationals
from hayd.groups import cyclic, symmetric
from hayd.hopf import function_algebra, group_algebra, sweedler
from hayd.tensor import Tensor

FAMILIES = {
    "kC2": lambda f: group_algebra(cyclic(2), f),
    "kC3": lambda f: group_algebra(cyclic(3), f),
    "kS3": lambda f: group_algebra(symmetric(3), f),
    "k^C2": lambda f: function_algebra(cyclic(2), f),
    "k^S3": lambda f: function_algebra(symmetric(3), f),
    "sweedler": sweedler,
}
HOPF = ("mult", "unit", "comult", "counit", "antipode")


def _mod(t: Tensor, field) -> Tensor:
    """t over Q with each entry a/b sent to a b^-1 mod p."""
    p = field.p
    return Tensor(field, t.shape, {
        idx: c.numerator * pow(c.denominator, -1, p) for idx, c in t.entries.items()
    })


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_rational_build_reduces_to_the_prime_field_build(name, p):
    F = prime_field(p)
    HQ, Hp = FAMILIES[name](rationals()), FAMILIES[name](F)
    for label in HOPF:
        assert _mod(getattr(HQ, label), F) == getattr(Hp, label), label
    for build in (build_ah, build_double):
        AQ, Ap = build(HQ), build(Hp)
        assert _mod(AQ.mult, F) == Ap.mult and _mod(AQ.unit, F) == Ap.unit
        assert AQ.generators is not None and Ap.generators is not None
        assert _mod(AQ.generators, F) == Ap.generators
    DQ, Dp = build_double_hopf(HQ), build_double_hopf(Hp)
    for label in ("comult", "counit", "antipode"):
        assert _mod(getattr(DQ, label), F) == getattr(Dp, label), label
