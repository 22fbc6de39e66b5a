import itertools
import random
from fractions import Fraction

import pytest

from cordsheaf import linalg
from cordsheaf.field import FieldSpec, MixedFieldError, Scalar
from cordsheaf.linalg import (Matrix, Subspace, _hyperplane, _identity, _null_vectors, _one,
                              _right_inverse, _rref, _zero)

from linalg_reference import solve

F5 = FieldSpec.prime(5)
F3 = FieldSpec.prime(3)
QQ = FieldSpec.rationals()


def rand_matrix(field, rows, cols, rng):
    if field.is_prime_field:
        return Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(cols)]
                                        for _ in range(rows)])
    return Matrix.from_rows(field, [[rng.randint(-4, 4) for _ in range(cols)]
                                    for _ in range(rows)])


def test_rank_examples():
    assert Matrix.identity(F5, 3).rank() == 3
    assert Matrix.zeros(F5, 2, 4).rank() == 0
    # matrix of the three-unlink worked example: zero first column, zero
    # second row, lower-right block of determinant 1*2 - 1*1 = 1
    m = Matrix.from_rows(F5, [[0, 1, 1], [0, 0, 0], [0, 1, 2]])
    assert m.rank() == 2


def test_kernel_image_examples():
    assert Matrix.identity(F5, 3).kernel().dim == 0
    assert Subspace(F5, 2, Matrix.zeros(F5, 2, 3)).dim == 0
    row = Matrix.from_rows(F5, [[0, 1, 1]])
    ker = row.kernel()
    assert ker.dim == 2
    one, zero = F5.one(), F5.zero()
    assert ker.contains([one, zero, zero])
    assert ker.contains([zero, one, -one])
    assert not ker.contains([zero, one, one])


def test_rank_nullity():
    rng = random.Random(2)
    for _ in range(300):
        m = rand_matrix(F3, rng.randint(0, 4), rng.randint(1, 4), rng)
        assert m.kernel().dim + m.rank() == m.cols


def test_sum_intersect():
    e1 = [F5.one(), F5.zero(), F5.zero()]
    e2 = [F5.zero(), F5.one(), F5.zero()]
    A = Subspace.from_vectors(F5, 3, [e1])
    B = Subspace.from_vectors(F5, 3, [e2])
    assert A.sum(Subspace.zero(F5, 3)) == A
    assert A.intersect(Subspace.full(F5, 3)) == A
    assert A.sum(B).dim == 2
    rng = random.Random(3)
    for _ in range(300):
        U = Subspace(F3, 4, rand_matrix(F3, 4, rng.randint(0, 3), rng))
        V = Subspace(F3, 4, rand_matrix(F3, 4, rng.randint(0, 3), rng))
        assert U.sum(V).dim + U.intersect(V).dim == U.dim + V.dim


def test_canonical_subspace_equality():
    rng = random.Random(4)
    for _ in range(200):
        vecs = [[rng.randrange(3) for _ in range(4)] for _ in range(2)]
        U = Subspace.from_vectors(F3, 4, [[F3.scalar(x) for x in v] for v in vecs])
        # same space from a shuffled, rescaled generating set
        mixed = [[F3.scalar(2 * x) for x in vecs[1]], [F3.scalar(x) for x in vecs[0]]]
        both = [[a + b for a, b in zip(mixed[0], mixed[1])], mixed[1]]
        V = Subspace.from_vectors(F3, 4, both + mixed)
        assert U == V
        assert hash(U) == hash(V)


def test_public_subspace_constructor_canonicalizes_its_basis():
    U = Subspace(F3, 2, Matrix.from_rows(F3, [[2], [0]]))
    assert U.contains([F3.one(), F3.zero()])
    assert U == Subspace.from_vectors(F3, 2, [[F3.one(), F3.zero()]])
    assert hash(U) == hash(Subspace.from_vectors(F3, 2, [[F3.one(), F3.zero()]]))
    rng = random.Random(5)
    for _ in range(100):
        basis = rand_matrix(F3, 3, rng.randint(0, 3), rng)
        assert Subspace(F3, 3, basis) == Subspace.from_vectors(F3, 3, zip(*basis.entries))
    with pytest.raises(ValueError):
        Subspace(F3, 3, Matrix.from_rows(F3, [[1], [0]]))


def test_solve_examples_and_property():
    # the elimination reference that the closed-form right inverse is pinned to
    assert solve(5, _identity(5, 3), 3, [2, 0, 4]) == [2, 0, 4]
    assert solve(5, [[0, 0], [0, 0]], 2, [1, 0]) is None
    assert solve(5, [[1], [2]], 1, [2, 4]) == [2]
    rng = random.Random(5)
    for _ in range(300):
        m = rand_matrix(F3, 3, rng.randint(1, 4), rng)
        b = linalg._matvec(3, m.values, [rng.randrange(3) for _ in range(m.cols)])
        got = solve(3, m.values, m.cols, b)
        assert got is not None
        assert linalg._matvec(3, m.values, got) == b


def test_rank_product_bound():
    rng = random.Random(6)
    for _ in range(300):
        a = rand_matrix(F3, 3, 3, rng)
        b = rand_matrix(F3, 3, 3, rng)
        assert (a * b).rank() <= min(a.rank(), b.rank())


def test_inverse_and_det():
    rng = random.Random(7)
    n_invertible = 0
    for _ in range(300):
        m = rand_matrix(F5, 3, 3, rng)
        if m.is_invertible():
            n_invertible += 1
            assert (m * m.inverse()).is_identity()
    assert n_invertible > 100


def test_charpoly():
    m = Matrix.from_rows(F5, [[1, 0], [0, 2]])
    # (x-1)(x-2) = x^2 - 3x + 2
    assert [c.value for c in m.charpoly()] == [2, 2, 1]
    rng = random.Random(8)
    for _ in range(100):
        m = rand_matrix(F3, 3, 3, rng)
        coeffs = m.charpoly()
        assert coeffs[3] == F3.one()
        assert coeffs[0] == ((-F3.one()) ** 3) * m.det()


def test_annihilator():
    U = Subspace.from_vectors(F3, 3, [[F3.one(), F3.one(), F3.zero()]])
    ann = U.annihilator()
    assert ann.rows == 2
    for j in range(U.basis.cols):
        assert (ann * Matrix.column(F3, U.basis.col(j))).is_zero()
    assert Subspace.zero(F3, 2).annihilator().rows == 2
    assert Subspace.full(F3, 2).annihilator().rows == 0


def test_matrix_json_roundtrip():
    m = Matrix.from_rows(QQ, [[1, -2], [3, 4]])
    m2 = Matrix.from_json(QQ, m.to_json())
    assert m == m2


def test_matrix_equality_and_hash_see_shape():
    a, b = Matrix.zeros(F3, 0, 2), Matrix.zeros(F3, 0, 3)
    assert a != b
    assert hash(a) != hash(b)
    assert len({a, b, Matrix.zeros(F3, 0, 2)}) == 2
    assert Matrix.zeros(F3, 2, 0) != Matrix.zeros(F3, 3, 0)
    assert Matrix.zeros(F3, 0, 2) == Matrix.zeros(F3, 0, 2)


# -- the value kernels against a Scalar-by-Scalar reference ------------------------
#
# Every reference below works on lists of Scalars with the field's own
# operators, and shares no code with linalg.

F2 = FieldSpec.prime(2)
F7 = FieldSpec.prime(7)
FIELDS = (F2, F3, F5, F7, QQ)


def rand_scalar(field, rng):
    if field.is_prime_field:
        return field.scalar(rng.randrange(field.p))
    if rng.random() < 0.3:
        return field.zero()
    return field.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def rand_rows(field, rows, cols, rng):
    # sparse often enough that rank drops and pivots skip columns
    zero_share = rng.choice((0.0, 0.4, 0.8))
    return [[field.zero() if rng.random() < zero_share else rand_scalar(field, rng)
             for _ in range(cols)] for _ in range(rows)]


def ref_rref(field, rows, cols):
    m = [list(row) for row in rows]
    pivots, r = [], 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if not m[i][c].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inv()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def ref_span(field, vectors, n):
    """Canonical basis of a span: the nonzero rows of the RREF."""
    red, pivots = ref_rref(field, vectors, n)
    return [tuple(row) for row in red[:len(pivots)]]


def ref_null(field, rows, cols):
    red, pivots = ref_rref(field, rows, cols)
    out = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [field.zero()] * cols
        v[fc] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        out.append(v)
    return ref_span(field, out, cols)


def ref_det(field, rows):
    n = len(rows)
    total = field.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = -field.one() if inversions % 2 else field.one()
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def refsolve(field, rows, cols, rhs):
    red, pivots = ref_rref(field, [list(r) + [b] for r, b in zip(rows, rhs)], cols + 1)
    if cols in pivots:
        return None
    x = [field.zero()] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return tuple(x)


def ref_mul(field, a, b, inner, cols):
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            acc = field.zero()
            for k in range(inner):
                acc = acc + row[k] * b[k][j]
            out_row.append(acc)
        out.append(tuple(out_row))
    return out


def scalars(m):
    """The entries of m, checked to be canonical Scalars of m's field."""
    rows = m.entries
    assert len(rows) == m.rows and all(len(row) == m.cols for row in rows)
    for row in rows:
        for x in row:
            assert isinstance(x, Scalar) and x.field == m.field
            if m.field.is_prime_field:
                assert type(x.value) is int and 0 <= x.value < m.field.p
            else:
                assert type(x.value) is Fraction
    return [list(row) for row in rows]


def basis(sub):
    scalars(sub.basis)
    return [sub.basis.col(j) for j in range(sub.dim)]


def test_value_kernels_match_scalar_reference():
    rng = random.Random(9)
    for field in FIELDS:
        for _ in range(60):
            r, c, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 3)
            rows = rand_rows(field, r, c, rng)
            m = Matrix(field, rows, cols=c)
            assert scalars(m) == rows and (m.rows, m.cols) == (r, c)

            # products
            other_rows = rand_rows(field, c, k, rng)
            prod = m * Matrix(field, other_rows, cols=k)
            assert (prod.rows, prod.cols) == (r, k)
            assert scalars(prod) == [list(x) for x in ref_mul(field, rows, other_rows, c, k)]
            same = Matrix(field, rand_rows(field, r, c, rng), cols=c)
            assert scalars(m + same) == [[a + b for a, b in zip(x, y)]
                                         for x, y in zip(rows, scalars(same))]
            assert scalars(m - same) == [[a - b for a, b in zip(x, y)]
                                         for x, y in zip(rows, scalars(same))]
            s = rand_scalar(field, rng)
            assert scalars(m.scaled(s)) == [[s * a for a in row] for row in rows]

            # elimination
            red, pivots = m.rref()
            want_red, want_pivots = ref_rref(field, rows, c)
            assert scalars(red) == want_red and list(pivots) == want_pivots
            assert m.rank() == len(want_pivots)
            assert basis(m.kernel()) == ref_null(field, rows, c)
            assert basis(Subspace(field, r, m)) == ref_span(
                field, [list(col) for col in zip(*rows)] if r else [[]] * c, r)
            rhs = [rand_scalar(field, rng) for _ in range(r)]
            want = refsolve(field, rows, c, rhs)
            assert solve(field.p, m.values, c, [x.value for x in rhs]) == \
                (None if want is None else [x.value for x in want])

            # square matrices
            sq = Matrix(field, rand_rows(field, r, r, rng), cols=r)
            sq_rows = scalars(sq)
            assert sq.det() == ref_det(field, sq_rows)
            if sq.det().is_zero():
                with pytest.raises(ZeroDivisionError):
                    sq.inverse()
            else:
                red, _ = ref_rref(field, [row + [field.one() if i == j else field.zero()
                                                 for j in range(r)]
                                          for i, row in enumerate(sq_rows)], 2 * r)
                assert scalars(sq.inverse()) == [row[r:] for row in red]


def test_subspace_operations_match_scalar_reference():
    rng = random.Random(10)
    for field in FIELDS:
        for _ in range(60):
            n = rng.randint(0, 4)
            gens_u = rand_rows(field, rng.randint(0, 3), n, rng)
            gens_v = rand_rows(field, rng.randint(0, 3), n, rng)
            U = Subspace.from_vectors(field, n, gens_u)
            V = Subspace.from_vectors(field, n, gens_v)
            assert basis(U) == ref_span(field, gens_u, n)
            assert U.dim == len(basis(U)) and U.basis.rows == n
            assert basis(U.sum(V)) == ref_span(field, gens_u + gens_v, n)
            # U cap V as the annihilator of ann(U) + ann(V), computed apart
            ann = ref_null(field, basis(U), n) + ref_null(field, basis(V), n)
            assert basis(U.intersect(V)) == ref_null(field, ann, n)
            assert scalars(U.annihilator()) == [list(v) for v in ref_null(field, basis(U), n)]
            assert U.annihilator().cols == n

            # coordinates of a vector inside U, and of one that may not be
            coeffs = [rand_scalar(field, rng) for _ in range(U.dim)]
            inside = [field.zero()] * n
            for c, v in zip(coeffs, basis(U)):
                inside = [a + c * b for a, b in zip(inside, v)]
            assert U.contains(inside)
            assert U.coordinates(inside) == tuple(coeffs)
            probe = [rand_scalar(field, rng) for _ in range(n)]
            cols = [list(col) for col in zip(*basis(U))] if U.dim else [[]] * n
            want = refsolve(field, cols, U.dim, probe)
            assert U.coordinates(probe) == want
            assert U.contains(probe) == (want is not None)
            assert U.contains_subspace(U.intersect(V))

            # image under a map
            k = rng.randint(0, 3)
            mat_rows = rand_rows(field, k, n, rng)
            image = U.apply(Matrix(field, mat_rows, cols=n))
            moved = ref_mul(field, mat_rows, [list(col) for col in zip(*basis(U))]
                            if U.dim else [[] for _ in range(n)], n, U.dim)
            assert basis(image) == ref_span(field, [list(col) for col in zip(*moved)]
                                            if k else [[]] * U.dim, k)


def test_mixed_fields_rejected_at_the_boundary():
    a = Matrix.identity(F3, 2)
    b = Matrix.identity(F5, 2)
    with pytest.raises(MixedFieldError):
        Matrix(F3, [[F3.one(), F5.one()], [F3.one(), F3.one()]])
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a.scaled(F5.one()),
               lambda: Subspace.full(F3, 2).sum(Subspace.full(F5, 2)),
               lambda: Subspace.full(F3, 2).intersect(Subspace.full(F5, 2)),
               lambda: Subspace.full(F3, 2).contains([F5.one(), F5.one()]),
               lambda: Subspace.from_vectors(F3, 2, [[F5.one(), F5.one()]])):
        with pytest.raises(MixedFieldError):
            op()


def test_plain_values_rejected_with_a_type_error():
    for build in (lambda: Matrix(F3, [[1, 2]]),
                  lambda: Matrix(F3, [[F3.one(), 2]]),
                  lambda: Subspace.from_vectors(F3, 2, [[1, 0]])):
        with pytest.raises(TypeError, match="Scalars; Matrix.from_rows"):
            build()
    assert Matrix.from_rows(F3, [[1, 2]]) == Matrix(F3, [[F3.one(), F3.scalar(2)]])


def test_accessors_return_scalars_of_the_matrix_field():
    for field in FIELDS:
        m = Matrix.from_rows(field, [[1, 2, 0], [0, -1, 3]])
        for x in (m[1, 2], *m.row(0), *m.col(1), *(x for row in m.entries for x in row)):
            assert isinstance(x, Scalar) and x.field == field
        assert m[1, 1] == -field.one()
        assert m.row(1) == tuple(m.entries[1])
        assert m.col(2) == (field.zero(), field.scalar(3))


def elimination_kernel(field, row):
    p, n = field.p, len(row)
    red, pivots = _rref(p, [row], n)
    return Subspace._from_values(field, n, _null_vectors(p, red, pivots, n))


def elimination_annihilator(sub):
    p, n = sub.field.p, sub.ambient_dim
    null = _null_vectors(p, sub._vectors, sub._pivots, n)
    return Matrix._from_values(sub.field, Subspace._from_values(sub.field, n, null)._vectors,
                               cols=n)


@pytest.fixture
def eliminations(monkeypatch):
    """Counts the calls of linalg._rref while a test runs."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _rref(*args)

    monkeypatch.setattr(linalg, "_rref", counted)
    return calls


def test_codimension_one_closed_forms_match_elimination(eliminations):
    rng = random.Random(12)
    for field in FIELDS:
        p = field.p
        for _ in range(150):
            n = rng.randint(2, 6)
            row = [x.value for x in rand_rows(field, 1, n, rng)[0]]
            if not any(row):
                row[rng.randrange(n)] = _one(p)
            eliminations.clear()
            ker = Subspace._from_echelon(field, n, *_hyperplane(p, row, _identity(p, n)))
            ann = ker.annihilator()
            assert not eliminations
            want = elimination_kernel(field, row)
            assert (ker._vectors, ker._pivots) == (want._vectors, want._pivots)
            assert basis(ker) == basis(want)
            assert scalars(ann) == scalars(elimination_annihilator(ker))
            assert _right_inverse(p, row) == solve(p, [row], n, [_one(p)])

            # an (n-1)-dimensional subspace from a random spanning set
            U = Subspace.from_vectors(field, n, rand_rows(field, n - 1, n, rng))
            if U.dim == n - 1:
                eliminations.clear()
                ann = U.annihilator()
                assert not eliminations
                assert scalars(ann) == scalars(elimination_annihilator(U))


def test_zero_row_and_one_dimension_take_elimination(eliminations):
    for field in FIELDS:
        p = field.p
        for row in ([_zero(p)] * 3, [field.scalar(-1).value]):
            n = len(row)
            eliminations.clear()
            ker = Matrix._from_values(field, [row]).kernel()
            assert eliminations
            assert basis(ker) == basis(elimination_kernel(field, row))
            eliminations.clear()
            ann = ker.annihilator()
            assert eliminations
            assert scalars(ann) == scalars(elimination_annihilator(ker))
            assert _right_inverse(p, row) == solve(p, [row], n, [_one(p)])
