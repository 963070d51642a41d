"""Exact ground fields: the rationals and prime fields F_p.

Scalars are plain Python values.  Over the rationals a scalar is in normal
form: an ``int`` when it is integral, otherwise a reduced
``fractions.Fraction`` (never one with denominator 1), so the integral
structure constants of the builtins are scanned, hashed and compared as ints.
Over a prime field a scalar is an ``int`` residue in [0, p).  All arithmetic
goes through a Field instance, which returns normal forms, so the rest of the
package never touches floating point.  Note that ``/`` between two ints is a
float: divide with ``Field.inv``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldError

# an ASCII integer or 'a/b': no decimals, spaces, underscores or other digits
_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

# characteristics are below this bound, where is_prime is exact
CHARACTERISTIC_BOUND = 2**64
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def q_normal(x):
    """A rational in normal form: the int when ``x`` is integral, else ``x``."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases up to 37, exact for n < 3.18e23."""
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """A ground field by its characteristic ``p``: None for the rationals Q,
    otherwise a prime int (not a bool or a float) below 2**64 for F_p; plus
    its scalar arithmetic."""

    p: int | None = None

    def __post_init__(self):
        if type(self.p) is int and self.p >= CHARACTERISTIC_BOUND:
            raise FieldError(f"characteristic {self.p} is not below 2**64")
        if self.p is not None and (type(self.p) is not int or not is_prime(self.p)):
            raise FieldError(f"characteristic {self.p!r} is not prime")

    @property
    def kind(self) -> str:
        return "rationals" if self.p is None else "prime-field"

    def __str__(self):
        return "Q" if self.p is None else f"F_{self.p}"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def coerce(self, x):
        """Turn an int, Fraction, or 'a/b' string into a normalized scalar."""
        if isinstance(x, bool):
            raise FieldError(f"cannot coerce {x!r} into {self}")
        if isinstance(x, str):
            m = _LITERAL.fullmatch(x)
            den = int(m[2] or 1) if m else 0
            if not den:
                raise FieldError(f"bad scalar literal {x!r}")
            x = Fraction(int(m[1]), den)
        if self.p is None:
            if isinstance(x, Fraction):
                return q_normal(x)
            if isinstance(x, int):
                return int(x)
            raise FieldError(f"cannot coerce {x!r} into {self}")
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise FieldError(f"cannot coerce {x} into {self}")
            x = x.numerator
        if not isinstance(x, int):
            raise FieldError(f"cannot coerce {x!r} into {self}")
        return x % self.p

    def add(self, a, b):
        return q_normal(a + b) if self.p is None else (a + b) % self.p

    def mul(self, a, b):
        return q_normal(a * b) if self.p is None else (a * b) % self.p

    def neg(self, a):
        return q_normal(-a) if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise FieldError("division by zero")
        if self.p is None:
            return q_normal(Fraction(a.denominator, a.numerator))
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a == 0


_RAT = Field()


def rationals() -> Field:
    return _RAT


def prime_field(p: int) -> Field:
    return Field(p)
