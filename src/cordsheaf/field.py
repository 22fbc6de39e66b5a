"""Exact scalar arithmetic over prime fields F_p and over the rationals.

Scalars are the element type of the public API, and canonical forms
matter: prime-field elements are stored as residues in ``0..p-1`` and
rationals as ``fractions.Fraction`` (always in lowest terms with positive
denominator).  Equal scalars therefore compare equal bit-for-bit, which the
subspace and moduli code relies on for deduplication.  Matrices and
subspaces (``linalg``) store these same canonical values, ``Scalar.value``,
rather than Scalars, and compute on them directly; a Scalar is made only
where a value leaves through the API.

The wire format is the decimal residue for prime fields and ``num/den``
for rationals.  One parser, ``FieldSpec.parse``, reads it back straight to
a canonical value: any integer (reduced mod p over F_p) or ``a/b`` (over
F_p, a times the inverse of b).  ``FieldSpec.from_str`` wraps its value in a
Scalar, and the checked readers below (``wire_get``, ``wire_rows``,
``wire_unit``) build every ``from_json`` of the package on it: they check
keys, types and shapes, ignore unknown keys, and raise ``WireFormatError``
naming the JSON path of the fault.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, Union


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def decimal_integer(text: str) -> int:
    """The integer that ASCII digits with an optional sign write, and
    nothing else: no whitespace, underscores or non-ASCII digits, all of
    which int would read.  Raises ValueError on anything else."""
    if type(text) is not str or not _DECIMAL.fullmatch(text):
        raise ValueError(f"expected a decimal integer, got {text!r}")
    return int(text)


class MixedFieldError(ValueError):
    """Raised when an operation combines scalars from different fields."""


def check_field(field: "FieldSpec", parts, what: str) -> None:
    """Raise MixedFieldError unless each part (a Scalar, Matrix or Subspace)
    is over field; the identity test first keeps the common case cheap."""
    for x in parts:
        if x.field is not field and x.field != field:
            raise MixedFieldError(f"{what} over {x.field} used over {field}")


class NotEnumerableError(ValueError):
    """Raised when asked to enumerate an infinite field."""


class WireFormatError(ValueError):
    """A malformed wire document; the message starts with the JSON path of
    the fault, such as ``$.R[1][0]``."""

    def __init__(self, path: str, problem: str):
        super().__init__(f"{path}: {problem}")
        self.path = path


# Miller-Rabin with the first twelve primes as bases decides every n below
# PRIME_LIMIT, the least composite that passes all twelve (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_LIMIT = 318665857834031151167461


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test, exact below PRIME_LIMIT; a larger p
    raises ValueError naming the limit."""
    if p >= PRIME_LIMIT:
        raise ValueError(f"characteristic must be below {PRIME_LIMIT}, got {p}")
    if p < 2:
        return False
    for a in _BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """A ground field: either F_p for a prime p, or the rationals."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "prime":
            if p is None or not is_prime(p):
                raise ValueError(f"characteristic must be prime, got {p!r}")
            self.p = p
        elif kind == "rationals":
            if p is not None:
                raise ValueError("rationals take no characteristic")
            self.p = None
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls("prime", p)

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls("rationals")

    @property
    def is_prime_field(self) -> bool:
        return self.kind == "prime"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    def __repr__(self) -> str:
        return f"F{self.p}" if self.is_prime_field else "QQ"

    # -- element constructors -------------------------------------------------

    def scalar(self, value: Union[int, Fraction, "Scalar"]) -> "Scalar":
        """Coerce an int/Fraction (or Scalar of this field) to a Scalar."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise MixedFieldError(f"scalar of {value.field} used in {self}")
            return value
        if self.is_prime_field:
            if isinstance(value, Fraction):
                if value.denominator % self.p == 0:
                    raise ZeroDivisionError(f"denominator divisible by {self.p}")
                value = value.numerator * pow(value.denominator, -1, self.p)
            return Scalar(self, value % self.p)
        return Scalar(self, Fraction(value))

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def parse(self, text: str) -> int | Fraction:
        """The canonical value of a scalar string of the wire format: an
        integer, or a/b for integers a and b, where an integer is ASCII
        digits with an optional sign, with optional ASCII whitespace around
        it.  On ASCII text without underscores, this is what int reads.

        Raises ValueError on anything else, including a denominator that
        vanishes in this field.
        """
        if type(text) is not str:
            raise ValueError(f"expected a scalar string, got {_kind(text)}")
        if not text.isascii() or "_" in text or text.count("/") > 1:
            raise ValueError(f"expected an integer or a/b, got {text!r}")
        p = self.p
        try:
            if "/" not in text:
                return int(text) % p if p else Fraction(int(text))
            num, den = map(int, text.split("/"))
        except ValueError:
            raise ValueError(f"expected an integer or a/b, got {text!r}") from None
        if not den:
            raise ValueError(f"zero denominator in {text.strip()!r}")
        q = Fraction(num, den)
        if not p:
            return q
        if not q.denominator % p:
            raise ValueError(f"denominator of {text.strip()!r} is divisible by {p}")
        return q.numerator * pow(q.denominator, -1, p) % p

    def from_str(self, text: str) -> "Scalar":
        """Parse the wire format: decimal residue, or num/den."""
        return Scalar(self, self.parse(text))

    def elements(self, nonzero: bool = False) -> Iterator["Scalar"]:
        """All field elements in residue order (prime fields only)."""
        if not self.is_prime_field:
            raise NotEnumerableError("the rationals are not enumerable")
        for v in range(1 if nonzero else 0, self.p):
            yield Scalar(self, v)

    def to_json(self) -> dict:
        if self.is_prime_field:
            return {"kind": "prime", "p": self.p}
        return {"kind": "rationals"}

    @classmethod
    def from_json(cls, data: dict, path: str = "$") -> "FieldSpec":
        kind = wire_get(data, "kind", path, str)
        if kind == "prime":
            p = wire_get(data, "p", path, int)
            try:
                return cls.prime(p)
            except ValueError as err:  # the characteristic is not prime
                raise WireFormatError(f"{path}.p", str(err)) from None
        if kind != "rationals":
            raise WireFormatError(f"{path}.kind", f"unknown field kind {kind!r}")
        if data.get("p") is not None:
            raise WireFormatError(f"{path}.p", "rationals take no characteristic")
        return cls.rationals()


# -- checked readers of the wire format ---------------------------------------------

_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer",
          float: "a number", bool: "a boolean", type(None): "null"}


def _kind(x) -> str:
    return _KINDS.get(type(x), type(x).__name__)


def wire_get(data, key: str, path: str, kind: type | None = None):
    """data[key] for the JSON object data at path, checked to be of the
    given kind (dict, list, str or int) if one is given."""
    if type(data) is not dict:
        raise WireFormatError(path, f"expected an object, got {_kind(data)}")
    if key not in data:
        raise WireFormatError(path, f"missing key {key!r}")
    value = data[key]
    if kind is not None and type(value) is not kind:
        raise WireFormatError(f"{path}.{key}", f"expected {_KINDS[kind]}, got {_kind(value)}")
    return value


def wire_rows(field: FieldSpec, data, path: str, rows: int | None = None,
              cols: int | None = None) -> tuple:
    """The rows of canonical values of a JSON matrix of scalar strings,
    checked to be rectangular, and rows x cols where those are given."""
    if type(data) is not list:
        raise WireFormatError(path, f"expected an array of rows, got {_kind(data)}")
    if rows is not None and len(data) != rows:
        raise WireFormatError(path, f"expected {rows} rows, got {len(data)}")
    if cols is None:
        cols = len(data[0]) if data and type(data[0]) is list else 0
    p = field.p
    out = []
    for i, row in enumerate(data):
        if type(row) is not list or len(row) != cols:
            got = f"{len(row)} entries" if type(row) is list else _kind(row)
            raise WireFormatError(f"{path}[{i}]", f"expected a row of {cols} scalars, got {got}")
        values = _integer_row(p, row)
        out.append(values if values is not None else
                   tuple([_value_at(field, x, f"{path}[{i}][{j}]") for j, x in enumerate(row)]))
    return tuple(out)


def _integer_row(p: int | None, row: list) -> tuple | None:
    """The values of a row of integer strings in one pass, or None where parse
    must read it entry by entry (an a/b string, or a fault: join refuses
    every JSON value but a string, and on ASCII text without underscores
    int with a base reads exactly parse's integers)."""
    try:
        text = "".join(row)
        if not text.isascii() or "_" in text:
            return None
        if p:
            return tuple([int(x, 10) % p for x in row])
        return tuple([Fraction(int(x, 10)) for x in row])
    except (ValueError, TypeError):
        return None


def wire_units(field: FieldSpec, data, path: str, count: int) -> list["Scalar"]:
    """The Scalars of a JSON array of count nonzero scalar strings."""
    if type(data) is not list or len(data) != count:
        got = f"{len(data)} entries" if type(data) is list else _kind(data)
        raise WireFormatError(path, f"expected an array of {count} scalars, got {got}")
    values = _integer_row(field.p, data)
    if values is None or not all(values):
        return [wire_unit(field, x, f"{path}[{k}]") for k, x in enumerate(data)]
    return [Scalar(field, v) for v in values]


def wire_unit(field: FieldSpec, text, path: str) -> "Scalar":
    """The Scalar of a nonzero scalar string."""
    value = _value_at(field, text, path)
    if not value:
        raise WireFormatError(path, "must be a unit, got 0")
    return Scalar(field, value)


def _value_at(field: FieldSpec, text, path: str):
    try:
        return field.parse(text)
    except ValueError as err:
        raise WireFormatError(path, str(err)) from None


class Scalar:
    """An element of a FieldSpec, stored in canonical form.

    Immutable; arithmetic returns new scalars and raises MixedFieldError on
    operands from different fields.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        # Callers outside this module should go through FieldSpec.scalar,
        # which canonicalizes; here we trust value is already reduced.
        self.field = field
        self.value = value

    def _check(self, other: "Scalar") -> None:
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.field != self.field:
            raise MixedFieldError(f"cannot mix {self.field} and {other.field}")

    def _reduced(self, v) -> "Scalar":
        p = self.field.p
        return Scalar(self.field, v % p if p else v)

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return self._reduced(self.value + other.value)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return self._reduced(self.value - other.value)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return self._reduced(self.value * other.value)

    def __neg__(self) -> "Scalar":
        return self._reduced(-self.value)

    def inv(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.field.is_prime_field:
            return Scalar(self.field, pow(self.value, -1, self.field.p))
        return Scalar(self.field, 1 / self.value)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return self * other.inv()

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inv() ** (-n)
        p = self.field.p
        return Scalar(self.field, pow(self.value, n, p) if p else self.value ** n)

    def is_zero(self) -> bool:
        return self.value == 0

    def is_one(self) -> bool:
        return self.value == 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Scalar)
            and self.field == other.field
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __repr__(self) -> str:
        return str(self)

    def __str__(self) -> str:
        # Wire format: residue, or num/den with the /1 suppressed.
        return str(self.value)
