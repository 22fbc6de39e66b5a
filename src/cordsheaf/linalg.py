"""Dense exact linear algebra over a FieldSpec.

Matrices are immutable, row-major tuples of Scalars.  Subspaces are stored
by a basis matrix in reduced column echelon form, which is unique, so two
equal subspaces have bit-identical bases; this is what lets the moduli code
deduplicate by syntactic comparison.

Dimensions in this project stay below ~10, so everything is plain Gaussian
elimination with no pivoting heuristics.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .field import FieldSpec, MixedFieldError, Scalar


class Matrix:
    """An exact rows x cols matrix over a fixed field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldSpec, entries: Sequence[Sequence[Scalar]],
                 cols: int | None = None):
        self.field = field
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        # The column count cannot be inferred from an empty row list, so
        # degenerate shapes carry it explicitly.
        self.cols = len(self.entries[0]) if self.rows else (cols or 0)
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
            for x in row:
                if x.field != field:
                    raise MixedFieldError("matrix entry from a different field")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence]) -> "Matrix":
        return cls(field, [[field.scalar(x) for x in row] for row in rows])

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        zero = field.zero()
        return cls(field, [[zero] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def column(cls, field: FieldSpec, vec: Sequence[Scalar]) -> "Matrix":
        return cls(field, [[x] for x in vec], cols=1)

    @classmethod
    def row_vector(cls, field: FieldSpec, vec: Sequence[Scalar]) -> "Matrix":
        return cls(field, [list(vec)])

    # -- access ----------------------------------------------------------------

    def __getitem__(self, key) -> Scalar:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[Scalar, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def column_matrix(self, j: int) -> "Matrix":
        return Matrix.column(self.field, self.col(j))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.field, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic --------------------------------------------------------------

    def _check_shape(self, other: "Matrix", same: bool) -> None:
        if self.field != other.field:
            raise MixedFieldError("matrices over different fields")
        if same and (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other, same=True)
        return Matrix(self.field, [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other, same=True)
        return Matrix(self.field, [
            [a - b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ])

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, [[-a for a in row] for row in self.entries], cols=self.cols)

    def scaled(self, c: Scalar) -> "Matrix":
        return Matrix(self.field, [[c * a for a in row] for row in self.entries])

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other, same=False)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if self.rows == 0 or other.cols == 0:
            return Matrix.zeros(self.field, self.rows, other.cols)
        zero = self.field.zero()
        ocols = tuple(other.col(j) for j in range(other.cols))
        out = []
        for row in self.entries:
            out_row = []
            for c in ocols:
                acc = zero
                for a, b in zip(row, c):
                    if not a.is_zero() and not b.is_zero():
                        acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return Matrix(self.field, out)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [self.col(j) for j in range(self.cols)], cols=self.rows)

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        acc = self.field.zero()
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return self == Matrix.identity(self.field, self.rows)

    def hstack(self, other: "Matrix") -> "Matrix":
        self._check_shape(other, same=False)
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return Matrix(self.field, [r1 + r2 for r1, r2 in zip(self.entries, other.entries)],
                      cols=self.cols + other.cols)

    # -- elimination -------------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        m = [list(row) for row in self.entries]
        pivots = []
        r = 0
        if self.rows == 0:
            return Matrix.zeros(self.field, 0, self.cols), ()
        for c in range(self.cols):
            if r == self.rows:
                break
            pivot_row = None
            for i in range(r, self.rows):
                if not m[i][c].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = m[r][c].inv()
            m[r] = [x * inv for x in m[r]]
            for i in range(self.rows):
                if i != r and not m[i][c].is_zero():
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return Matrix(self.field, m), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        m = [list(row) for row in self.entries]
        det = self.field.one()
        for c in range(self.cols):
            pivot_row = None
            for i in range(c, self.rows):
                if not m[i][c].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                return self.field.zero()
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
                det = -det
            det = det * m[c][c]
            inv = m[c][c].inv()
            for i in range(c + 1, self.rows):
                if not m[i][c].is_zero():
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det

    def is_invertible(self) -> bool:
        return self.rows == self.cols and not self.det().is_zero()

    def charpoly(self) -> tuple[Scalar, ...]:
        """Coefficients of det(xI - M) from degree 0 up to degree n.

        Permutation expansion; fine for the tiny dimensions used here and
        valid in any characteristic.
        """
        import itertools as _it
        if self.rows != self.cols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        n = self.rows
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
                lin = [-self.entries[i][perm[i]], one if perm[i] == i else zero]
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
        aug = self.hstack(Matrix.identity(self.field, self.rows))
        red, pivots = aug.rref()
        if len(pivots) < self.rows or any(p >= self.rows for p in pivots):
            raise ZeroDivisionError("matrix is singular")
        return Matrix(self.field, [row[self.rows:] for row in red.entries])

    def solve(self, b: "Matrix") -> Optional[tuple[Scalar, ...]]:
        """One solution x of self @ x = b (a column), or None.

        Deterministic: free variables are set to zero, so repeated calls
        agree and serialized outputs are reproducible.
        """
        if b.rows != self.rows or b.cols != 1:
            raise ValueError("right-hand side must be a column of matching height")
        if self.rows == 0:
            return tuple([self.field.zero()] * self.cols)
        red, pivots = self.hstack(b).rref()
        if self.cols in pivots:
            return None
        zero = self.field.zero()
        x = [zero] * self.cols
        for r, c in enumerate(pivots):
            x[c] = red.entries[r][self.cols]
        return tuple(x)

    def kernel(self) -> "Subspace":
        """The right null space, canonicalized."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        zero, one = self.field.zero(), self.field.one()
        vectors = []
        for fc in free:
            v = [zero] * self.cols
            v[fc] = one
            for r, pc in enumerate(pivots):
                v[pc] = -red.entries[r][fc]
            vectors.append(v)
        return Subspace.from_vectors(self.field, self.cols, vectors)

    def image(self) -> "Subspace":
        """The column span, canonicalized."""
        return Subspace.from_vectors(
            self.field, self.rows, [self.col(j) for j in range(self.cols)]
        )

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.entries]

    @classmethod
    def from_json(cls, field: FieldSpec, data: Sequence[Sequence[str]],
                  rows: int | None = None, cols: int | None = None) -> "Matrix":
        m = cls(field, [[field.from_str(x) for x in row] for row in data])
        if rows is not None and (m.rows, m.cols) != (rows, cols):
            raise ValueError(f"expected {rows}x{cols} matrix, got {m.rows}x{m.cols}")
        return m


class Subspace:
    """A subspace of k^n, stored by a reduced-column-echelon basis matrix.

    The canonical basis makes equality syntactic: two Subspace objects are
    equal iff they describe the same subspace.
    """

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field: FieldSpec, ambient_dim: int, basis: Matrix):
        # basis is trusted to be canonical; build through from_vectors.
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_vectors(cls, field: FieldSpec, ambient_dim: int,
                     vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        rows = [list(v) for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        if not rows:
            return cls(field, ambient_dim, Matrix.zeros(field, ambient_dim, 0))
        red, pivots = Matrix(field, rows).rref()
        basis_rows = [red.entries[r] for r in range(len(pivots))]
        # Store spanning vectors as columns; RREF of the generators is the
        # canonical form, transposed into column convention.
        return cls(field, ambient_dim,
                   Matrix(field, basis_rows, cols=ambient_dim).transpose())

    @classmethod
    def zero(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(field, ambient_dim, [])

    @classmethod
    def full(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        eye = Matrix.identity(field, ambient_dim)
        return cls.from_vectors(field, ambient_dim, eye.entries)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def basis_columns(self) -> list[tuple[Scalar, ...]]:
        return [self.basis.col(j) for j in range(self.basis.cols)]

    def contains(self, vec: Sequence[Scalar]) -> bool:
        if self.dim == 0:
            return all(x.is_zero() for x in vec)
        return self.basis.solve(Matrix.column(self.field, vec)) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis_columns())

    def coordinates(self, vec: Sequence[Scalar]) -> Optional[tuple[Scalar, ...]]:
        """Coordinates of vec in this basis, or None if outside."""
        return self.basis.solve(Matrix.column(self.field, vec))

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.from_vectors(
            self.field, self.ambient_dim,
            self.basis_columns() + other.basis_columns(),
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        # x in A cap B iff x = A u = B w; solve [A | -B] (u; w) = 0 and push
        # the u-part back through A.
        stacked = self.basis.hstack(-other.basis)
        sols = stacked.kernel()
        vectors = []
        for col in sols.basis_columns():
            u = col[: self.dim]
            vec = [self.field.zero()] * self.ambient_dim
            for coeff, bcol in zip(u, self.basis_columns()):
                if not coeff.is_zero():
                    vec = [a + coeff * b for a, b in zip(vec, bcol)]
            vectors.append(vec)
        return Subspace.from_vectors(self.field, self.ambient_dim, vectors)

    def annihilator(self) -> Matrix:
        """Rows spanning the functionals that vanish on this subspace."""
        # phi(basis) = 0  <=>  basis^T phi^T = 0.
        ker = self.basis.transpose().kernel()
        return ker.basis.transpose()

    def apply(self, mat: Matrix) -> "Subspace":
        """The image subspace mat(self)."""
        if mat.cols != self.ambient_dim:
            raise ValueError("matrix does not act on this ambient space")
        return (mat * self.basis).image()

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
                  data: Sequence[Sequence[str]]) -> "Subspace":
        if not data or not data[0]:
            return cls.zero(field, ambient_dim)
        mat = Matrix.from_json(field, data)
        return mat.image()
