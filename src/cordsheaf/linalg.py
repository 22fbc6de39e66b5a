"""Dense exact linear algebra over a FieldSpec.

Matrices are immutable and store their entries row-major in ``values`` as
plain canonical field values, the same values ``Scalar.value`` holds:
residues in ``0..p-1`` for F_p and ``Fraction``s in lowest terms for the
rationals.  All arithmetic and elimination runs on those values.  Scalars
exist only at the API edge: the public constructor checks the field of
every entry it is given, and ``entries``, ``m[i, j]``, ``row`` and ``col``
wrap values in Scalars on the way out.  Code that builds a matrix from
values it computed itself uses the trusted ``Matrix._from_values``.

The module-level kernels below are the one place that tells the two kinds
of field apart: they take the characteristic p (None for the rationals)
and reduce mod p after every operation, or leave exact Fractions as they
are.  Other modules of the package share them for their own raw loops.

Subspaces are stored by their basis vectors in reduced row echelon form,
with their pivot positions.  That basis is unique, so two equal subspaces
have bit-identical bases; this is what lets the moduli code deduplicate by
syntactic comparison.  Membership and coordinates are read off the pivots
without elimination.  An intersection is the kernel of the stacked
annihilators, a sum the span of the stacked bases; either way one
elimination gives the canonical basis.

Dimensions in this project stay below ~10, so everything is plain Gaussian
elimination with no pivoting heuristics.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence

from .field import FieldSpec, MixedFieldError, Scalar, wire_rows

# -- raw kernels on field values ---------------------------------------------------
#
# p is the characteristic of a prime field, or None for the rationals, whose
# values are Fractions; the constants below keep them Fractions.

_QQ_ZERO, _QQ_ONE = Fraction(0), Fraction(1)


def _zero(p: int | None):
    return 0 if p else _QQ_ZERO


def _one(p: int | None):
    return 1 if p else _QQ_ONE


def _neg(p: int | None, a):
    return -a % p if p else -a


def _sub(p: int | None, a, b):
    return (a - b) % p if p else a - b


def _mul(p: int | None, a, b):
    return a * b % p if p else a * b


def _inv(p: int | None, a):
    if not a:
        raise ZeroDivisionError("inverse of zero")
    return pow(a, -1, p) if p else 1 / a


def _axpy(p: int | None, y: Sequence, c, x: Sequence) -> list:
    """y + c x, entrywise (c need not be reduced)."""
    if p:
        return [(a + c * b) % p for a, b in zip(y, x)]
    return [a + c * b for a, b in zip(y, x)]


def _scale(p: int | None, c, x: Sequence) -> list:
    if p:
        return [c * b % p for b in x]
    return [c * b for b in x]


def _dot(p: int | None, x: Sequence, y: Sequence):
    if p:
        return sum(map(mul, x, y)) % p
    return sum(map(mul, x, y), _QQ_ZERO)


def _matvec(p: int | None, a: Sequence[Sequence], x: Sequence) -> list:
    """a @ x for the rows of a and a vector x."""
    return [_dot(p, row, x) for row in a]


def _matmul(p: int | None, a: Sequence[Sequence], b: Sequence[Sequence],
            b_cols: int) -> list:
    """Rows of a @ b, where b has b_cols columns (given for 0-row b)."""
    bcols = list(zip(*b)) if b else [()] * b_cols
    return [[_dot(p, row, c) for c in bcols] for row in a]


def _transpose(rows: Sequence[Sequence], cols: int) -> list:
    """The columns of rows, a matrix with cols columns (given for 0 rows)."""
    return list(zip(*rows)) if rows else [()] * cols


def _check_size(name: str, size: int) -> None:
    """ValueError naming the argument when a size is negative."""
    if size < 0:
        raise ValueError(f"{name} must be >= 0, got {size}")


def _identity(p: int | None, n: int) -> tuple:
    """The unit rows of k^n, as tuples."""
    zero, one = (_zero(p),), _one(p)
    return tuple(zero * i + (one,) + zero * (n - 1 - i) for i in range(n))


def _rref(p: int | None, rows: Sequence[Sequence], cols: int) -> tuple[list, list]:
    """Reduced row echelon form of rows and its pivot columns.

    The rows passed in are left as they were: a row that changes is
    replaced by a new list.
    """
    m = list(rows)
    n = len(m)
    pivots = []
    r = 0
    for c in range(cols):
        if r == n:
            break
        for i in range(r, n):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        if m[r][c] != 1:
            m[r] = _scale(p, _inv(p, m[r][c]), m[r])
        row_r = m[r]
        for i in range(n):
            f = m[i][c]
            if f and i != r:
                m[i] = _axpy(p, m[i], -f, row_r)
        pivots.append(c)
        r += 1
    return m, pivots


def _null_vectors(p: int | None, red: Sequence[Sequence], pivots: Sequence[int],
                  cols: int) -> list:
    """A basis of the right null space from a reduced row echelon form."""
    pivot_set = set(pivots)
    zero, one = _zero(p), _one(p)
    vectors = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        v = [zero] * cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = _neg(p, red[r][fc])
        vectors.append(v)
    return vectors


def _det(p: int | None, rows: Sequence[Sequence]):
    """The determinant of a square matrix of values, by elimination."""
    m = list(rows)
    n = len(m)
    det = _one(p)
    for c in range(n):
        for i in range(c, n):
            if m[i][c]:
                break
        else:
            return _zero(p)
        if i != c:
            m[c], m[i] = m[i], m[c]
            det = _neg(p, det)
        det = _mul(p, det, m[c][c])
        if c + 1 < n:
            inv = _inv(p, m[c][c])
            for k in range(c + 1, n):
                if m[k][c]:
                    m[k] = _axpy(p, m[k], -m[k][c] * inv, m[c])
    return det


def _inverse(p: int | None, rows: Sequence[Sequence]) -> list:
    """The rows of the inverse of a square matrix of values, by elimination
    beside the unit rows; ZeroDivisionError if it is singular."""
    n = len(rows)
    red, pivots = _rref(p, [(*row, *unit) for row, unit in zip(rows, _identity(p, n))], 2 * n)
    if len(pivots) < n or any(c >= n for c in pivots):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red]


def _hyperplane(p: int | None, phi: Sequence, units: Sequence) -> tuple:
    """ker phi for a nonzero row phi, in reduced row echelon form, and its
    pivots, without elimination, from the unit rows of k^n.

    The one non-pivot is m, the last coordinate where phi is nonzero: the
    row of each k < m is e_k - (phi_k / phi_m) e_m, and of each k > m is e_k.
    """
    n = len(phi)
    m = n - 1
    while not phi[m]:
        m -= 1
    c = _neg(p, _inv(p, phi[m]))
    rows = [e[:m] + (_mul(p, c, x),) + e[m + 1:] for e, x in zip(units, phi[:m])]
    return rows + list(units[m + 1:]), [*range(m), *range(m + 1, n)]


def _right_inverse(p: int | None, phi: Sequence) -> Optional[list]:
    """The solution of phi x = 1 that elimination gives, with free variables
    zero, but without elimination: e_a / phi_a at phi's first nonzero
    coordinate a, or None for a zero row."""
    for a, v in enumerate(phi):
        if v:
            x = [_zero(p)] * len(phi)
            x[a] = _inv(p, v)
            return x
    return None


class Matrix:
    """An exact rows x cols matrix over a fixed field."""

    __slots__ = ("field", "rows", "cols", "values")

    def __init__(self, field: FieldSpec, entries: Sequence[Sequence[Scalar]],
                 cols: int | None = None):
        rows = [tuple(row) for row in entries]
        if cols is not None:
            _check_size("cols", cols)
        self.field = field
        self.rows = len(rows)
        # The column count cannot be inferred from an empty row list, so
        # degenerate shapes carry it explicitly.
        self.cols = len(rows[0]) if rows else (cols or 0)
        try:
            for row in rows:
                if len(row) != self.cols:
                    raise ValueError("ragged rows")
                for x in row:
                    if x.field is not field and x.field != field:
                        raise MixedFieldError("matrix entry from a different field")
        except AttributeError:
            raise TypeError("matrix entries must be Scalars; Matrix.from_rows takes "
                            "plain values") from None
        self.values = tuple(tuple(x.value for x in row) for row in rows)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def _from_values(cls, field: FieldSpec, values: Iterable[Sequence],
                     cols: int | None = None) -> "Matrix":
        """Trusted constructor: rows of canonical values of field, unchecked."""
        m = object.__new__(cls)
        m.field = field
        m.values = vals = tuple(map(tuple, values))
        m.rows = len(vals)
        m.cols = len(vals[0]) if vals else (cols or 0)
        return m

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence]) -> "Matrix":
        return cls(field, [[field.scalar(x) for x in row] for row in rows])

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        _check_size("n", n)
        return cls._from_values(field, _identity(field.p, n))

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        _check_size("rows", rows)
        _check_size("cols", cols)
        zero = _zero(field.p)
        return cls._from_values(field, [[zero] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def column(cls, field: FieldSpec, vec: Sequence[Scalar]) -> "Matrix":
        return cls(field, [[x] for x in vec], cols=1)

    # -- access ----------------------------------------------------------------

    @property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        field = self.field
        return tuple(tuple(Scalar(field, v) for v in row) for row in self.values)

    def __getitem__(self, key) -> Scalar:
        i, j = key
        return Scalar(self.field, self.values[i][j])

    def row(self, i: int) -> tuple[Scalar, ...]:
        field = self.field
        return tuple(Scalar(field, v) for v in self.values[i])

    def col(self, j: int) -> tuple[Scalar, ...]:
        field = self.field
        return tuple(Scalar(field, row[j]) for row in self.values)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.values))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.values)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic --------------------------------------------------------------

    def _check_shape(self, other: "Matrix", same: bool) -> None:
        if self.field != other.field:
            raise MixedFieldError("matrices over different fields")
        if same and (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other, same=True)
        p = self.field.p
        return Matrix._from_values(self.field, [
            _axpy(p, r1, 1, r2) for r1, r2 in zip(self.values, other.values)
        ], cols=self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other, same=True)
        p = self.field.p
        return Matrix._from_values(self.field, [
            _axpy(p, r1, -1, r2) for r1, r2 in zip(self.values, other.values)
        ], cols=self.cols)

    def scaled(self, c: Scalar) -> "Matrix":
        if not isinstance(c, Scalar):
            raise TypeError(f"expected Scalar, got {type(c).__name__}")
        if c.field != self.field:
            raise MixedFieldError(f"cannot mix {self.field} and {c.field}")
        p = self.field.p
        return Matrix._from_values(self.field,
                                   [_scale(p, c.value, row) for row in self.values],
                                   cols=self.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other, same=False)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return Matrix._from_values(
            self.field, _matmul(self.field.p, self.values, other.values, other.cols),
            cols=other.cols)

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        p = self.field.p
        diag = [row[i] for i, row in enumerate(self.values)]
        return Scalar(self.field, _dot(p, diag, [_one(p)] * len(diag)))

    def is_zero(self) -> bool:
        return not any(map(any, self.values))

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return all((v == 1) if i == j else not v
                   for i, row in enumerate(self.values) for j, v in enumerate(row))

    # -- elimination -------------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        red, pivots = _rref(self.field.p, self.values, self.cols)
        return Matrix._from_values(self.field, red, cols=self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(_rref(self.field.p, self.values, self.cols)[1])

    def det(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return Scalar(self.field, _det(self.field.p, self.values))

    def is_invertible(self) -> bool:
        return self.rows == self.cols and bool(_det(self.field.p, self.values))

    def charpoly(self) -> tuple[Scalar, ...]:
        """Coefficients of det(xI - M) from degree 0 up to degree n.

        Permutation expansion on values; fine for the tiny dimensions used
        here and valid in any characteristic.
        """
        from itertools import combinations, permutations
        if self.rows != self.cols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        p, zero = self.field.p, _zero(self.field.p)
        coeffs = [zero] * (self.rows + 1)
        for perm in permutations(range(self.rows)):
            odd = sum(a > b for a, b in combinations(perm, 2)) % 2
            poly = [_neg(p, _one(p)) if odd else _one(p)]
            for i, j in enumerate(perm):  # times x delta_ij - M[i][j]
                poly = _axpy(p, _scale(p, _neg(p, self.values[i][j]), poly + [zero]), int(i == j),
                             [zero] + poly)
            coeffs = _axpy(p, coeffs, 1, poly)
        return tuple(Scalar(self.field, c) for c in coeffs)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        return Matrix._from_values(self.field, _inverse(self.field.p, self.values), cols=self.rows)

    def kernel(self) -> "Subspace":
        """The right null space, canonicalized."""
        p = self.field.p
        red, pivots = _rref(p, self.values, self.cols)
        return Subspace._from_values(self.field, self.cols,
                                     _null_vectors(p, red, pivots, self.cols))

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.values]

    @classmethod
    def from_json(cls, field: FieldSpec, data: Sequence[Sequence[str]],
                  rows: int | None = None, cols: int | None = None,
                  path: str = "$") -> "Matrix":
        """Decode a matrix, checked to be rows x cols where those are given."""
        return cls._from_values(field, wire_rows(field, data, path, rows, cols), cols=cols)


class Subspace:
    """A subspace of k^n, stored by its canonical basis.

    ``_vectors`` holds the basis as rows of values in reduced row echelon
    form, which is unique, and ``_pivots`` their pivot positions, where each
    vector has a 1 and every other basis vector a 0; so the coordinates of a
    vector of the subspace are its entries at the pivots.  The canonical
    basis makes equality syntactic: two Subspace objects are equal iff they
    describe the same subspace.  ``basis`` is the same basis as the columns
    of a matrix (reduced column echelon form), built on demand.  Hyperplanes,
    the stalks of a simple sheaf, have closed forms: the sheaf builder writes
    a nonzero row's kernel down with ``_hyperplane``, and a hyperplane's
    annihilator is read off without elimination.
    """

    __slots__ = ("field", "ambient_dim", "_vectors", "_pivots")

    def __init__(self, field: FieldSpec, ambient_dim: int, basis: Matrix):
        """The span of the columns of basis, a matrix over field with
        ambient_dim rows, stored in canonical form."""
        if basis.field != field or basis.rows != ambient_dim:
            raise ValueError(f"basis must be a matrix over {field} with {ambient_dim} rows")
        canon = Subspace._from_values(field, ambient_dim, _transpose(basis.values, basis.cols))
        for name in Subspace.__slots__:
            setattr(self, name, getattr(canon, name))

    @classmethod
    def _from_values(cls, field: FieldSpec, ambient_dim: int,
                     vectors: Iterable[Sequence]) -> "Subspace":
        """Trusted: the span of vectors of canonical values of field."""
        red, pivots = _rref(field.p, list(vectors), ambient_dim)
        return cls._from_echelon(field, ambient_dim, red[:len(pivots)], pivots)

    @classmethod
    def _from_echelon(cls, field: FieldSpec, ambient_dim: int, rows: Sequence[Sequence],
                      pivots: Sequence[int]) -> "Subspace":
        """Trusted: rows of values in reduced row echelon form, with their pivots."""
        sub = object.__new__(cls)
        sub.field = field
        sub.ambient_dim = ambient_dim
        sub._vectors = tuple(map(tuple, rows))
        sub._pivots = tuple(pivots)
        return sub

    @classmethod
    def from_vectors(cls, field: FieldSpec, ambient_dim: int,
                     vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        _check_size("ambient_dim", ambient_dim)
        rows = [list(v) for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        values = Matrix(field, rows, cols=ambient_dim).values
        return cls._from_values(field, ambient_dim, values)

    @classmethod
    def zero(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        _check_size("ambient_dim", ambient_dim)
        return cls._from_echelon(field, ambient_dim, [], [])

    @classmethod
    def full(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        _check_size("ambient_dim", ambient_dim)
        return cls._from_echelon(field, ambient_dim, _identity(field.p, ambient_dim),
                                 range(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self._pivots)

    @property
    def basis(self) -> Matrix:
        """The basis vectors as the columns of an ambient_dim x dim matrix."""
        return Matrix._from_values(self.field, _transpose(self._vectors, self.ambient_dim),
                                   cols=self.dim)

    def _values_of(self, vec: Sequence[Scalar]) -> list:
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return list(Matrix(self.field, [vec], cols=self.ambient_dim).values[0]) if vec else []

    def _coordinates(self, vec: Sequence) -> Optional[list]:
        """Coordinates of a vector of values in this basis, or None if outside."""
        p = self.field.p
        coords = [vec[q] for q in self._pivots]
        rest = vec
        for c, v in zip(coords, self._vectors):
            if c:
                rest = _axpy(p, rest, -c, v)
        return None if any(rest) else coords

    def contains(self, vec: Sequence[Scalar]) -> bool:
        return self._coordinates(self._values_of(vec)) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self._coordinates(v) is not None for v in other._vectors)

    def coordinates(self, vec: Sequence[Scalar]) -> Optional[tuple[Scalar, ...]]:
        """Coordinates of vec in this basis, or None if outside."""
        coords = self._coordinates(self._values_of(vec))
        if coords is None:
            return None
        field = self.field
        return tuple(Scalar(field, x) for x in coords)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace._from_values(self.field, self.ambient_dim,
                                     self._vectors + other._vectors)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The kernel of both annihilators, stacked."""
        self._check(other)
        return self._meet(other.annihilator().values)

    def _meet(self, normals: tuple) -> "Subspace":
        """The intersection with the kernel of normals, rows of values (an
        annihilator computed once for several meets)."""
        return Matrix._from_values(self.field, self.annihilator().values + normals,
                                   cols=self.ambient_dim).kernel()

    def annihilator(self) -> Matrix:
        """Rows spanning the functionals that vanish on this subspace."""
        # phi(basis) = 0  <=>  phi lies in the null space of the basis rows,
        # which are already in reduced row echelon form.
        field, p, n = self.field, self.field.p, self.ambient_dim
        if self.dim == n - 1 and n > 1:
            return Matrix._from_values(field, [self._normal()])
        ker = Subspace._from_values(field, n, _null_vectors(p, self._vectors, self._pivots, n))
        return Matrix._from_values(field, ker._vectors, cols=n)

    def _normal(self) -> list:
        """For a hyperplane, the functional with kernel self whose first
        nonzero entry is 1, read off the reduced rows: before that scaling
        it is 1 at the one non-pivot m, -row_k[m] at each k < m, 0 past m."""
        p, piv = self.field.p, self._pivots
        m = len(piv) * (len(piv) + 1) // 2 - sum(piv)  # the one of 0..N-1 missing
        g = [_neg(p, w[m]) for w in self._vectors[:m]] + [_one(p)] + [_zero(p)] * (len(piv) - m)
        return _scale(p, _inv(p, next(filter(None, g))), g)

    def apply(self, mat: Matrix) -> "Subspace":
        """The image subspace mat(self)."""
        if mat.field != self.field:
            raise MixedFieldError("matrices over different fields")
        if mat.cols != self.ambient_dim:
            raise ValueError("matrix does not act on this ambient space")
        p = self.field.p
        return Subspace._from_values(self.field, mat.rows,
                                     [_matvec(p, mat.values, v) for v in self._vectors])

    def _check(self, other: "Subspace") -> None:
        if self.field != other.field:
            raise MixedFieldError("subspaces over different fields")
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self._vectors == other._vectors
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient_dim, self._vectors))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"

    def to_json(self) -> list[list[str]]:
        """The basis columns as rows, like basis.to_json()."""
        return [[str(x) for x in row] for row in _transpose(self._vectors, self.ambient_dim)]

    @classmethod
    def from_json(cls, field: FieldSpec, ambient_dim: int,
                  data: Sequence[Sequence[str]], path: str = "$") -> "Subspace":
        """The span of the columns of a basis matrix with ambient_dim rows."""
        rows = wire_rows(field, data, path, ambient_dim)
        return cls._from_values(field, ambient_dim, _transpose(rows, 0))
