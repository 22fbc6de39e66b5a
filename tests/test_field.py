import random
import time

import pytest

from cordsheaf.field import (PRIME_LIMIT, FieldSpec, MixedFieldError, NotEnumerableError,
                             WireFormatError, is_prime)


F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)
QQ = FieldSpec.rationals()


def test_prime_field_arithmetic_examples():
    assert (F5.scalar(3) + F5.scalar(4)).value == 2
    assert (F5.scalar(2) * F5.scalar(3)).value == 1
    assert QQ.from_str("1/2") + QQ.from_str("1/3") == QQ.from_str("5/6")


def test_inverse_examples():
    assert F5.scalar(2).inv() == F5.scalar(3)
    assert F7.scalar(3).inv() == F7.scalar(5)
    assert QQ.from_str("-2/3").inv() == QQ.from_str("-3/2")
    with pytest.raises(ZeroDivisionError):
        F5.zero().inv()


def test_power_is_repeated_multiplication():
    # n >= 0 through the built-in pow, n < 0 through the inverse, which
    # refuses zero; the value stays canonical, an int mod p or a Fraction
    fields = [(FieldSpec.prime(p), [str(v) for v in range(p)]) for p in (2, 5, 7)]
    fields.append((QQ, ["0", "1", "-1", "2", "-2/3", "7/4"]))
    for field, texts in fields:
        for x in map(field.from_str, texts):
            for n in range(-4, 6):
                if n < 0 and x.is_zero():
                    with pytest.raises(ZeroDivisionError):
                        x ** n
                    continue
                want = field.one()
                for _ in range(abs(n)):
                    want = want * (x if n > 0 else x.inv())
                got = x ** n
                assert got == want and got.field == field
                assert type(got.value) is type(want.value) and str(got) == str(want)


def test_enumeration():
    assert [s.value for s in FieldSpec.prime(3).elements(nonzero=True)] == [1, 2]
    assert [s.value for s in FieldSpec.prime(2).elements()] == [0, 1]
    with pytest.raises(NotEnumerableError):
        list(QQ.elements())


def test_primality_enforced():
    with pytest.raises(ValueError):
        FieldSpec.prime(6)
    with pytest.raises(ValueError):
        FieldSpec.prime(1)
    # strong pseudoprimes to the bases 2..7 and 2..23 respectively
    for n in (3215031751, 3825123056546413051):
        with pytest.raises(ValueError, match=f"must be prime, got {n}"):
            FieldSpec.prime(n)
    FieldSpec.prime(2)
    FieldSpec.prime(101)


def test_primality_matches_trial_division():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(20000) if is_prime(n) != trial(n)] == []


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** k, n) == n - 1 for k in range(1, s))


def test_large_characteristics_are_decided_or_refused_quickly():
    start = time.perf_counter()
    assert FieldSpec.prime(2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.perf_counter() - start < 0.05
    # the limit is composite and passes all twelve bases, so the test
    # cannot decide it; it and anything larger are refused by name
    assert PRIME_LIMIT == 399165290221 * 798330580441
    assert all(_strong_probable_prime(PRIME_LIMIT, a)
               for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    for p in (PRIME_LIMIT, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=f"must be below {PRIME_LIMIT}, got {p}"):
            FieldSpec.prime(p)
        with pytest.raises(WireFormatError, match=r"^\$\.field\.p: characteristic must be below"):
            FieldSpec.from_json({"kind": "prime", "p": p}, "$.field")


def test_mixed_field_rejected():
    with pytest.raises(MixedFieldError):
        F5.one() + F7.one()
    with pytest.raises(MixedFieldError):
        F5.one() * QQ.one()


def test_field_axioms_random():
    rng = random.Random(0)
    fields = [F5, F7, FieldSpec.prime(2), QQ]
    for trial in range(1200):
        field = fields[trial % len(fields)]
        if field.is_prime_field:
            a, b, c = (field.scalar(rng.randrange(field.p)) for _ in range(3))
        else:
            a, b, c = (field.scalar(rng.randint(-9, 9)) / field.scalar(rng.randint(1, 9))
                       for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inv() == field.one()


def test_parse_print_roundtrip():
    rng = random.Random(1)
    for _ in range(500):
        a = F7.scalar(rng.randrange(7))
        assert F7.from_str(str(a)) == a
        q = QQ.scalar(rng.randint(-30, 30)) / QQ.scalar(rng.randint(1, 12))
        assert QQ.from_str(str(q)) == q


def test_json_field_roundtrip():
    for field in (F5, QQ):
        assert FieldSpec.from_json(field.to_json()) == field
