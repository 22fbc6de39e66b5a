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

Subspaces are stored by a basis matrix in reduced column echelon form, which
is unique, so two equal subspaces have bit-identical bases; this is what
lets the moduli code deduplicate by syntactic comparison.  The basis vectors
also sit row-wise in reduced row echelon form, with their pivot positions,
so membership and coordinates are read off without elimination.

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


def _identity(p: int | None, n: int) -> list:
    zero, one = _zero(p), _one(p)
    rows = [[zero] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = one
    return rows


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


def _solve(p: int | None, rows: Sequence[Sequence], cols: int,
           rhs: Sequence) -> Optional[list]:
    """One solution x of rows @ x = rhs, free variables zero, or None."""
    red, pivots = _rref(p, [tuple(row) + (b,) for row, b in zip(rows, rhs)], cols + 1)
    if pivots and pivots[-1] == cols:
        return None
    x = [_zero(p)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


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


def _hyperplane(p: int | None, phi: Sequence) -> tuple[list, list]:
    """ker phi for a nonzero row phi, in reduced row echelon form, and its
    pivots, without elimination.

    The one non-pivot is m, the last coordinate where phi is nonzero: the
    row of each k < m is e_k - (phi_k / phi_m) e_m, and of each k > m is e_k.
    """
    n = len(phi)
    m = n - 1
    while not phi[m]:
        m -= 1
    rows = _identity(p, n)
    for row, x in zip(rows, _scale(p, _neg(p, _inv(p, phi[m])), phi[:m])):
        row[m] = x
    del rows[m]
    return rows, [k for k in range(n) if k != m]


def _right_inverse(p: int | None, phi: Sequence) -> Optional[list]:
    """_solve's solution of phi x = 1, without elimination: e_a / phi_a at
    phi's first nonzero coordinate a, or None for a zero row."""
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
        self.field = field
        self.rows = len(rows)
        # The column count cannot be inferred from an empty row list, so
        # degenerate shapes carry it explicitly.
        self.cols = len(rows[0]) if rows else (cols or 0)
        for row in rows:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
            for x in row:
                if x.field is not field and x.field != field:
                    raise MixedFieldError("matrix entry from a different field")
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
        return cls._from_values(field, _identity(field.p, n))

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        zero = _zero(field.p)
        return cls._from_values(field, [[zero] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def column(cls, field: FieldSpec, vec: Sequence[Scalar]) -> "Matrix":
        return cls(field, [[x] for x in vec], cols=1)

    @classmethod
    def row_vector(cls, field: FieldSpec, vec: Sequence[Scalar]) -> "Matrix":
        return cls(field, [list(vec)])

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

    def column_matrix(self, j: int) -> "Matrix":
        return Matrix._from_values(self.field, [(row[j],) for row in self.values], cols=1)

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

    def __neg__(self) -> "Matrix":
        p = self.field.p
        return Matrix._from_values(self.field, [_scale(p, -1, row) for row in self.values],
                                   cols=self.cols)

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

    def transpose(self) -> "Matrix":
        return Matrix._from_values(self.field, _transpose(self.values, self.cols),
                                   cols=self.rows)

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

    def hstack(self, other: "Matrix") -> "Matrix":
        self._check_shape(other, same=False)
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return Matrix._from_values(self.field,
                                   [r1 + r2 for r1, r2 in zip(self.values, other.values)],
                                   cols=self.cols + other.cols)

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

        Permutation expansion; fine for the tiny dimensions used here and
        valid in any characteristic.
        """
        import itertools as _it
        if self.rows != self.cols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        n = self.rows
        entries = self.entries
        zero, one = self.field.zero(), self.field.one()
        coeffs = [zero] * (n + 1)
        for perm in _it.permutations(range(n)):
            sign = one
            seen = [False] * n
            for start in range(n):
                if seen[start]:
                    continue
                length = 0
                k = start
                while not seen[k]:
                    seen[k] = True
                    k = perm[k]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
            # product of linear factors (x delta_{i,perm(i)} - M[i][perm(i)])
            poly = [sign]
            for i in range(n):
                lin = [-entries[i][perm[i]], one if perm[i] == i else zero]
                new = [zero] * (len(poly) + 1)
                for a, ca in enumerate(poly):
                    for b, cb in enumerate(lin):
                        new[a + b] = new[a + b] + ca * cb
                poly = new
            for d, c in enumerate(poly):
                coeffs[d] = coeffs[d] + c
        return tuple(coeffs)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        p, n = self.field.p, self.rows
        aug = [row + tuple(unit) for row, unit in zip(self.values, _identity(p, n))]
        red, pivots = _rref(p, aug, 2 * n)
        if len(pivots) < n or any(c >= n for c in pivots):
            raise ZeroDivisionError("matrix is singular")
        return Matrix._from_values(self.field, [row[n:] for row in red], cols=n)

    def solve(self, b: "Matrix") -> Optional[tuple[Scalar, ...]]:
        """One solution x of self @ x = b (a column), or None.

        Deterministic: free variables are set to zero, so repeated calls
        agree and serialized outputs are reproducible.
        """
        self._check_shape(b, same=False)
        if b.rows != self.rows or b.cols != 1:
            raise ValueError("right-hand side must be a column of matching height")
        x = _solve(self.field.p, self.values, self.cols, [row[0] for row in b.values])
        if x is None:
            return None
        field = self.field
        return tuple(Scalar(field, v) for v in x)

    def kernel(self) -> "Subspace":
        """The right null space, canonicalized; a nonzero row's in closed form."""
        p = self.field.p
        if self.rows == 1 and self.cols > 1 and any(self.values[0]):
            return Subspace._from_echelon(self.field, self.cols,
                                          *_hyperplane(p, self.values[0]))
        red, pivots = _rref(p, self.values, self.cols)
        return Subspace._from_values(self.field, self.cols,
                                     _null_vectors(p, red, pivots, self.cols))

    def image(self) -> "Subspace":
        """The column span, canonicalized."""
        return Subspace._from_values(self.field, self.rows,
                                     _transpose(self.values, self.cols))

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
    """A subspace of k^n, stored by a reduced-column-echelon basis matrix.

    The canonical basis makes equality syntactic: two Subspace objects are
    equal iff they describe the same subspace.  ``_vectors`` holds the same
    basis as rows of values in reduced row echelon form, and ``_pivots``
    their pivot positions, where each vector has a 1 and every other basis
    vector a 0; so the coordinates of a vector of the subspace are its
    entries at the pivots.  Hyperplanes, the stalks of a simple sheaf, take a
    closed-form path: a nonzero row's kernel (``_hyperplane``) and a
    hyperplane's annihilator are written down without elimination.
    """

    __slots__ = ("field", "ambient_dim", "basis", "_vectors", "_pivots")

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
        # Store spanning vectors as columns; RREF of the generators is the
        # canonical form, transposed into column convention.
        sub.basis = Matrix._from_values(field, _transpose(sub._vectors, ambient_dim),
                                        cols=len(pivots))
        return sub

    @classmethod
    def from_vectors(cls, field: FieldSpec, ambient_dim: int,
                     vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        rows = [list(v) for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        values = Matrix(field, rows, cols=ambient_dim).values
        return cls._from_values(field, ambient_dim, values)

    @classmethod
    def zero(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls._from_echelon(field, ambient_dim, [], [])

    @classmethod
    def full(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls._from_echelon(field, ambient_dim, _identity(field.p, ambient_dim),
                                 range(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def basis_columns(self) -> list[tuple[Scalar, ...]]:
        field = self.field
        return [tuple(Scalar(field, x) for x in v) for v in self._vectors]

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
        self._check(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        # x in A cap B iff x = sum u_k a_k lies in B, i.e. its remainder
        # modulo B's echelon basis vanishes; the remainder is linear in u,
        # so the u are the left kernel of the remainders of the a_k.
        p = self.field.p
        rests = []
        for a in self._vectors:
            rest = a
            for q, b in zip(other._pivots, other._vectors):
                if rest[q]:
                    rest = _axpy(p, rest, -rest[q], b)
            rests.append(rest)
        red, pivots = _rref(p, _transpose(rests, self.ambient_dim), self.dim)
        vectors = []
        for u in _null_vectors(p, red, pivots, self.dim):
            vec = [_zero(p)] * self.ambient_dim
            for c, a in zip(u, self._vectors):
                if c:
                    vec = _axpy(p, vec, c, a)
            vectors.append(vec)
        return Subspace._from_values(self.field, self.ambient_dim, vectors)

    def annihilator(self) -> Matrix:
        """Rows spanning the functionals that vanish on this subspace."""
        # phi(basis) = 0  <=>  phi lies in the null space of the basis rows,
        # which are already in reduced row echelon form.
        p, n = self.field.p, self.ambient_dim
        null = _null_vectors(p, self._vectors, self._pivots, n)
        if self.dim == n - 1 and n > 1:
            (v,) = null  # reduced: scaled so its first nonzero entry is 1
            lead = next(filter(None, v))
            return Matrix._from_values(self.field, [_scale(p, _inv(p, lead), v)])
        ker = Subspace._from_values(self.field, n, null)
        return Matrix._from_values(self.field, ker._vectors, cols=n)

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
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"

    def to_json(self) -> list[list[str]]:
        return self.basis.to_json()

    @classmethod
    def from_json(cls, field: FieldSpec, ambient_dim: int,
                  data: Sequence[Sequence[str]], path: str = "$") -> "Subspace":
        """The span of the columns of a basis matrix with ambient_dim rows."""
        rows = wire_rows(field, data, path, ambient_dim)
        return cls._from_values(field, ambient_dim, _transpose(rows, 0))
