"""Structured pass/fail verdicts with the first violating basis tuple."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CheckFailedError
from .tensor import Tensor


@dataclass
class Report:
    """Outcome of one exhaustive check.

    ``witness`` is, as a rule, the lexicographically first violating basis
    multi-index, and ``lhs``/``rhs`` hold both sides of the identity there.
    A few failures are not identities and report what they measured instead:
    a rank (``antipode-invertible``, and ``galois-baseline`` on a canonical
    map that is not bijective) or the positions of the (delta, sigma)
    candidates (``modular-pair-equivalence``).  An identity without witness
    letters, such as ``bialgebra-unit``, fails at the placeholder
    ``identity._report`` gives it, the one-entry tuple holding 0.
    """

    passed: bool
    axiom: str
    witness: tuple | None = None
    lhs: Tensor | None = None
    rhs: Tensor | None = None

    @staticmethod
    def ok(axiom: str) -> "Report":
        return Report(True, axiom)

    @staticmethod
    def fail(axiom: str, witness, lhs=None, rhs=None) -> "Report":
        return Report(False, axiom, tuple(witness), lhs, rhs)

    def require(self) -> "Report":
        """This report if it passed; otherwise raise CheckFailedError with it."""
        if not self.passed:
            raise CheckFailedError(self)
        return self

    def __bool__(self) -> bool:
        return self.passed

    def __str__(self):
        if self.passed:
            return f"{self.axiom}: pass"
        return f"{self.axiom}: FAIL at {self.witness} (lhs={self.lhs}, rhs={self.rhs})"
