import random

import pytest

from cordsheaf.field import FieldSpec, MixedFieldError, NotEnumerableError


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
    FieldSpec.prime(2)
    FieldSpec.prime(101)


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
