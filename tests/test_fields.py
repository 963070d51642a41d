from fractions import Fraction

import pytest

from hayd.errors import FieldError
from hayd.fields import Field, is_prime, prime_field, rationals


def test_field_ops_dispatch():
    q = rationals()
    assert q.inv(q.coerce(2)) == Fraction(1, 2)
    assert prime_field(7).inv(2) == 4
    assert q.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert prime_field(5).mul(3, 4) == 2
    assert q.neg(Fraction(2)) == Fraction(-2)
    with pytest.raises(FieldError):
        q.inv(q.zero)


def test_rational_ops_return_the_normal_form():
    # an int iff the value is integral, also where Fractions cancel
    q = rationals()
    half = Fraction(1, 2)
    for got, want in [
        (q.add(half, half), 1),
        (q.mul(Fraction(2, 3), Fraction(3, 2)), 1),
        (q.mul(half, 4), 2),
        (q.neg(Fraction(4, 2)), -2),
        (q.inv(half), 2),
        (q.inv(Fraction(-1, 3)), -3),
        (q.coerce(Fraction(6, 3)), 2),
        (q.coerce("4/2"), 2),
        (q.coerce("-0/5"), 0),
        (q.zero, 0),
        (q.one, 1),
    ]:
        assert type(got) is int and got == want
    for got, want in [(q.inv(2), half), (q.add(half, 1), Fraction(3, 2)),
                      (q.mul(half, 3), Fraction(3, 2)), (q.coerce("2/4"), half)]:
        assert type(got) is Fraction and got == want


def test_inverse_over_rationals():
    q = rationals()
    assert q.inv(q.coerce(2)) == Fraction(1, 2)


def test_inverse_over_f7():
    f7 = prime_field(7)
    assert f7.inv(2) == 4  # 2*4 = 8 = 1 mod 7


def test_inverse_of_zero_is_an_error():
    for f in (rationals(), prime_field(5)):
        with pytest.raises(FieldError):
            f.inv(f.zero)


def test_prime_field_requires_prime_characteristic():
    with pytest.raises(FieldError):
        prime_field(6)
    with pytest.raises(FieldError):
        Field(1)


def test_a_characteristic_is_an_int_before_and_after_the_prime_field_is_built():
    from hayd.suite import builtin

    for _ in range(2):  # the second round runs after prime_field(7) has been built
        for p in (7.0, True):
            with pytest.raises(FieldError):
                prime_field(p)
        assert prime_field(7) == Field(7) and Field(7).kind == "prime-field"
    assert Field() == rationals() and rationals().kind == "rationals"
    assert builtin("taft-3-f7").field == prime_field(7)


def test_is_prime_small():
    primes = [n for n in range(30) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_agrees_with_trial_division_and_rejects_strong_pseudoprimes():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if trial(n)]
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59)
    # a Carmichael number, then the least strong pseudoprimes to the bases
    # up to 7 and up to 23
    assert not any(map(is_prime, (561, 3215031751, 3825123056546413051)))


def test_a_characteristic_is_below_2_to_the_64():
    assert prime_field(2**64 - 59).p == 2**64 - 59
    for p in (2**64, 10**29 + 7):
        with pytest.raises(FieldError, match=r"not below 2\*\*64"):
            Field(p)


def test_coerce_normalizes():
    q = rationals()
    x = q.coerce("4/6")
    assert x == Fraction(2, 3) and x.denominator == 3
    x = q.coerce("-3/6")
    assert x == Fraction(-1, 2) and x.denominator > 0
    f5 = prime_field(5)
    assert f5.coerce(-1) == 4
    assert f5.coerce("12") == 2


def test_coerce_rejects_garbage():
    with pytest.raises(FieldError):
        rationals().coerce("1/0")
    with pytest.raises(FieldError):
        prime_field(5).coerce("2/3")
    with pytest.raises(FieldError):
        prime_field(5).coerce(Fraction(1, 2))


def test_coerce_rejects_decimals_and_booleans():
    for literal in ("1.0", "1e3", " 1/2", "0x1", "1_0", "\u0663"):
        with pytest.raises(FieldError):
            rationals().coerce(literal)
        with pytest.raises(FieldError):
            prime_field(5).coerce(literal)
    for flag in (True, False):
        with pytest.raises(FieldError):
            rationals().coerce(flag)
        with pytest.raises(FieldError):
            prime_field(5).coerce(flag)


def test_field_axioms_exhaustive_f5():
    f = prime_field(5)
    elems = list(range(5))
    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in elems[1:]:
        assert f.mul(a, f.inv(a)) == 1


def test_results_stay_normalized():
    f5 = prime_field(5)
    assert f5.add(4, 4) == 3
    assert f5.neg(0) == 0
    assert 0 <= f5.mul(3, 4) < 5
    q = rationals()
    s = q.add(Fraction(1, 6), Fraction(1, 3))
    assert s.denominator == 2 and s.numerator == 1
