import itertools
import random
from fractions import Fraction

import pytest

from cordsheaf.braid import BraidWord, MeridianWord, component_map, geometry
from cordsheaf.cordaug import AugCandidate
from cordsheaf.correspondence import aug_to_sheaf, extend_by_constant
from cordsheaf.field import FieldSpec
from cordsheaf.linalg import Matrix, Subspace
from cordsheaf.sheafmodel import (DegenerateSummand, SheafData, _first_moved, _fixing_det,
                                  _split_constant_summand_exists, global_sections, is_reduced,
                                  is_stable, isomorphic, once_stabilized, stabilized_space,
                                  validate)

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)
QQ = FieldSpec.rationals()

UNLINK2 = BraidWord(2, [])
UNLINK3 = BraidWord(3, [])


def golden_sheaf(field=F5, e12=1, e13=1, e32=1, e33=2):
    cm = component_map(UNLINK3)
    one = field.one()
    R = Matrix.from_rows(field, [[0, e12, e13], [0, 0, 0], [0, e32, e33]])
    cand = AugCandidate(field, cm, R, [one] * 3,
                        [one, one, one - field.scalar(e33)])
    return cand, aug_to_sheaf(cand, UNLINK3)


def test_transport_rejects_a_strand_above_n():
    _, sheaf = golden_sheaf()
    assert sheaf.transport(MeridianWord([(3, 1), (1, -1)])).rows == 3
    with pytest.raises(ValueError, match="strand 4, but there are only 3"):
        sheaf.transport(MeridianWord([(1, 1), (4, 1)]))


def test_golden_sheaf_valid_and_matches_display():
    _, sheaf = golden_sheaf()
    assert validate(sheaf).ok
    assert sheaf.N == 3
    assert sheaf.M[0].is_identity()
    assert sheaf.M[1] == Matrix.from_rows(F5, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    assert sheaf.M[2] == Matrix.from_rows(F5, [[1, 0, 0], [0, 1, 0], [0, -1, -1]])
    spans = [
        [[1, 0, 0], [0, -1, 1]],   # e12 = e13 = 1
        [[0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, -2, 1]],   # e33 = 2, e32 = 1
    ]
    for i, vectors in enumerate(spans):
        want = Subspace.from_vectors(F5, 3, [[F5.scalar(x) for x in v] for v in vectors])
        assert sheaf.W[i] == want


def test_corrupted_stalk_caught():
    _, sheaf = golden_sheaf()
    bad_w2 = Subspace.from_vectors(F5, 3, [
        [F5.one(), F5.zero(), F5.zero()],
        [F5.zero(), F5.one(), F5.zero()],
    ])
    bad = SheafData(F5, UNLINK3, 3, sheaf.M, (sheaf.W[0], bad_w2, sheaf.W[2]), ())
    report = validate(bad)
    assert not report.ok
    assert any(f["family"] == "meridian-triviality" for f in report.failures)


def test_global_sections_examples():
    _, sheaf = golden_sheaf()
    assert global_sections(sheaf).dim == 0
    # independent oracle: scan all 125 vectors of F_5^3
    count = 0
    for vec in itertools.product(F5.elements(), repeat=3):
        if all(w.contains(list(vec)) for w in sheaf.W):
            count += 1
    assert count == 1  # only the zero vector

    hyper = Subspace.from_vectors(F3, 2, [[F3.one(), F3.zero()]])
    same = SheafData(F3, UNLINK2, 2,
                     [Matrix.identity(F3, 2)] * 2, [hyper, hyper], ())
    assert global_sections(same) == hyper


def test_global_sections_fixed_by_meridians():
    rng = random.Random(0)
    checked = 0
    for _ in range(400):
        sheaf = _random_valid_sheaf(rng)
        gamma = global_sections(sheaf)
        for j in range(gamma.dim):
            col = Matrix.column(sheaf.field, gamma.basis.col(j))
            for m in sheaf.M:
                assert m * col == col
        checked += 1
    assert checked == 400


def _random_valid_sheaf(rng):
    """Valid objects drawn from the unlink enumerations plus constant fat."""
    from cordsheaf.moduli import enumerate_augs
    braid = rng.choice([UNLINK2, UNLINK3, BraidWord(2, [1, 1]), BraidWord(2, [1, 1, 1])])
    field = rng.choice([F2, F3])
    pool = _pool(braid, field)
    cand = rng.choice(pool)
    sheaf = aug_to_sheaf(cand, braid)
    if not validate(sheaf).ok:
        return _random_valid_sheaf(rng)
    if rng.random() < 0.3:
        sheaf = extend_by_constant(sheaf, rng.randint(1, 2))
    return sheaf


_POOLS = {}


def _pool(braid, field):
    from cordsheaf.moduli import enumerate_augs
    key = (braid, field)
    if key not in _POOLS:
        _POOLS[key] = enumerate_augs(braid, field)
    return _POOLS[key]


def test_once_stabilized_examples():
    _, sheaf = golden_sheaf()
    V0 = stabilized_space(sheaf)
    assert V0.dim == 2
    # images of Id - M2 and Id - M3 in the (R0, R2, R3) coordinates
    assert V0 == Subspace.from_vectors(F5, 3, [
        [F5.zero(), F5.one(), F5.zero()],
        [F5.zero(), F5.zero(), F5.one()],
    ])
    sub = once_stabilized(sheaf)
    assert sub.N == 2
    trivial = SheafData(F3, UNLINK2, 2, [Matrix.identity(F3, 2)] * 2,
                        [Subspace.from_vectors(F3, 2, [[F3.one(), F3.zero()]])] * 2, ())
    assert stabilized_space(trivial).dim == 0
    one_dim = SheafData(F3, BraidWord(1, []), 1, [Matrix.from_rows(F3, [[2]])],
                        [Subspace.zero(F3, 1)], ())
    assert stabilized_space(one_dim).dim == 1


def test_once_stabilized_not_idempotent_in_general():
    # applying the operation twice genuinely shrinks the worked example:
    # the zero-row strand acts unipotently through the extension direction
    # only, so its displacement image dies after the first restriction
    _, sheaf = golden_sheaf()
    first = once_stabilized(sheaf)
    second = once_stabilized(first)
    assert first.N == 2 and second.N == 1
    # on stable objects the operation is the identity on dimensions
    stable = SheafData(F3, BraidWord(1, []), 1, [Matrix.from_rows(F3, [[2]])],
                       [Subspace.zero(F3, 1)], ())
    assert is_stable(stable)
    assert once_stabilized(stable).N == 1


def test_stability_counterexample_from_two_unlink():
    # V_0 = V but nonzero global sections: not stable
    m1 = Matrix.from_rows(F3, [[1, 1], [0, 1]])
    m2 = Matrix.from_rows(F3, [[1, 0], [0, 2]])
    fixed1 = Subspace.from_vectors(F3, 2, [[F3.one(), F3.zero()]])
    sheaf = SheafData(F3, UNLINK2, 2, [m1, m2], [fixed1, fixed1], ())
    assert validate(sheaf).ok
    assert stabilized_space(sheaf).dim == 2
    assert global_sections(sheaf).dim == 1
    assert not is_stable(sheaf)


def test_all_identity_not_stable():
    hyper = Subspace.from_vectors(F3, 2, [[F3.one(), F3.zero()]])
    sheaf = SheafData(F3, UNLINK2, 2, [Matrix.identity(F3, 2)] * 2, [hyper, hyper], ())
    assert not is_stable(sheaf)


def test_smallest_sheaf_valid():
    # one-dimensional space, identity meridian, zero stalk: valid data (only
    # stalk dimensions are constrained), though nothing about it is reduced
    tiny = SheafData(F3, BraidWord(1, []), 1, [Matrix.identity(F3, 1)],
                     [Subspace.zero(F3, 1)], ())
    assert validate(tiny).ok


def test_reduced_examples():
    _, sheaf = golden_sheaf()
    assert is_reduced(sheaf)
    # extended-by-zero constant on the whole link: a split summand, not reduced
    j_shriek = SheafData(F3, BraidWord(1, []), 1, [Matrix.identity(F3, 1)],
                         [Subspace.zero(F3, 1)], ())
    assert not is_reduced(j_shriek)
    # stable implies reduced on a healthy example
    stable = SheafData(F3, BraidWord(1, []), 1, [Matrix.from_rows(F3, [[2]])],
                       [Subspace.zero(F3, 1)], ())
    assert is_stable(stable) and is_reduced(stable)


def test_stable_implies_reduced_sampled():
    rng = random.Random(1)
    stable_seen = 0
    for _ in range(600):
        sheaf = _random_valid_sheaf(rng)
        if is_stable(sheaf):
            stable_seen += 1
            assert is_reduced(sheaf)
    assert stable_seen > 30


def test_degenerate_objects_excluded_from_predicates():
    deg = DegenerateSummand(1, F3.scalar(2))
    sheaf = SheafData(F3, BraidWord(1, []), 0, [Matrix(F3, [])],
                      [Subspace.zero(F3, 0)], [deg])
    assert validate(sheaf).ok
    assert not is_stable(sheaf)
    assert not is_reduced(sheaf)


def test_isomorphic_examples():
    _, sheaf = golden_sheaf()
    P = isomorphic(sheaf, sheaf)
    assert P is not None and P.is_invertible()
    # conjugating by the diagonal dilation matrix gives an isomorphic object
    D = Matrix.from_rows(F5, [[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    conj = SheafData(F5, UNLINK3, 3,
                     [D * m * D.inverse() for m in sheaf.M],
                     [w.apply(D) for w in sheaf.W], ())
    assert validate(conj).ok
    assert isomorphic(sheaf, conj) is not None
    # different meridian spectra can never be isomorphic
    other = SheafData(F5, BraidWord(1, []), 1, [Matrix.from_rows(F5, [[2]])],
                      [Subspace.zero(F5, 1)], ())
    other2 = SheafData(F5, BraidWord(1, []), 1, [Matrix.from_rows(F5, [[3]])],
                       [Subspace.zero(F5, 1)], ())
    assert isomorphic(other, other2) is None


def test_isomorphic_distinguishes_stalk_configurations():
    # same meridian matrices, stalk line moved to a non-invariant position
    m = Matrix.from_rows(F3, [[1, 0], [0, 2]])
    eye = Matrix.identity(F3, 2)
    w_a = Subspace.from_vectors(F3, 2, [[F3.one(), F3.zero()]])
    w_b = Subspace.from_vectors(F3, 2, [[F3.one(), F3.one()]])
    A = SheafData(F3, UNLINK2, 2, [eye, m], [w_a, w_a], ())
    B = SheafData(F3, UNLINK2, 2, [eye, m], [w_b, w_a], ())
    assert validate(A).ok
    got = isomorphic(A, B)
    assert got is None  # w_b is not fixed by m, so B is not even valid data


# (field, constant directions added) -> the isomorphism found between the
# golden sheaf and its conjugate by D = 2 Id + (ones above the diagonal).
# The intertwiner spaces have dimension 1, 3 and 7: F5 at 7 and F101 at 3 or
# more exceed the exhaustive search's cap, so there and over the rationals
# the pinned matrix is the first hit of the seeded random search.
PINNED_ISOMORPHISMS = {
    ("QQ", 0): [["1", "1/2", "0"], ["0", "1", "1/2"], ["0", "0", "1"]],
    ("QQ", 1): [["3", "3/2", "0", "0"], ["0", "3", "3/2", "0"], ["0", "0", "3", "3"],
                ["0", "0", "0", "6"]],
    ("QQ", 2): [["3", "3/2", "0", "0", "0"], ["0", "3", "3/2", "0", "0"],
                ["0", "0", "3", "3", "0"], ["-3", "0", "0", "-1", "1"],
                ["-6", "0", "0", "-14", "2"]],
    ("F5", 0): [["1", "3", "0"], ["0", "1", "3"], ["0", "0", "1"]],
    ("F5", 1): [["1", "3", "0", "0"], ["0", "1", "3", "0"], ["0", "0", "1", "1"],
                ["0", "0", "0", "2"]],
    ("F5", 2): [["3", "4", "0", "0", "0"], ["0", "3", "4", "0", "0"], ["3", "0", "3", "0", "2"],
                ["4", "0", "0", "3", "3"], ["1", "0", "0", "1", "3"]],
    ("F101", 0): [["1", "51", "0"], ["0", "1", "51"], ["0", "0", "1"]],
    ("F101", 1): [["49", "75", "0", "0"], ["0", "49", "75", "0"], ["97", "0", "49", "53"],
                  ["93", "0", "0", "5"]],
    ("F101", 2): [["49", "75", "0", "0", "0"], ["0", "49", "75", "0", "0"],
                  ["97", "0", "49", "53", "5"], ["33", "0", "0", "65", "62"],
                  ["82", "0", "0", "19", "3"]],
}


@pytest.mark.parametrize("name, extra", sorted(PINNED_ISOMORPHISMS))
def test_isomorphic_returns_the_pinned_matrix(name, extra):
    field = QQ if name == "QQ" else FieldSpec.prime(int(name[1:]))
    F = extend_by_constant(golden_sheaf(field)[1], extra)
    D = Matrix.from_rows(field, [[2 if a == b else int(b == a + 1) for b in range(F.N)]
                                 for a in range(F.N)])
    G = SheafData(field, UNLINK3, F.N, [D * m * D.inverse() for m in F.M],
                  [w.apply(D) for w in F.W], ())
    P = isomorphic(F, G)
    assert P is not None and P.to_json() == PINNED_ISOMORPHISMS[name, extra]
    assert P.is_invertible()
    assert all(G.M[i] * P == P * F.M[i] for i in range(3))
    assert all(F.W[i].apply(P) == G.W[i] for i in range(3))
    # a different third meridian: no isomorphism, though for extra > 0 the
    # intertwiner space is not zero and the same search runs to its end
    other = extend_by_constant(golden_sheaf(field, e33=3)[1], extra)
    assert isomorphic(F, other) is None


def test_sheaf_json_roundtrip():
    _, sheaf = golden_sheaf()
    again = SheafData.from_json(sheaf.to_json())
    assert again == sheaf
    deg = SheafData(F3, BraidWord(1, []), 0, [Matrix(F3, [])],
                    [Subspace.zero(F3, 0)], [DegenerateSummand(1, F3.scalar(2))])
    assert SheafData.from_json(deg.to_json()) == deg


def _compatibility_by_image(sheaf):
    """The segment check written with the transport matrix: the image of
    W_tau(i) under the segment's transport must equal W_i."""
    geom = geometry(sheaf.braid)
    failures = []
    for i in range(1, sheaf.braid.n + 1):
        moved = sheaf.W[geom.tau[i - 1] - 1].apply(sheaf.transport(geom.segments[i]))
        if moved != sheaf.W[i - 1]:
            failures.append({"family": "compatibility", "location": f"segment of strand {i}",
                             "expected": str(sheaf.W[i - 1].to_json()),
                             "got": str(moved.to_json())})
    return failures


def test_segment_check_matches_the_image_reference():
    failing = passing = 0
    for braid, field in ((UNLINK3, F3), (BraidWord(2, [1, 1]), F3), (BraidWord(2, [1, 1, 1]), F5),
                         (BraidWord(3, [1, -2, 1, -2]), F3), (BraidWord(2, [1, 1, 1, 1]), F5),
                         (BraidWord(3, [1, 1, 2]), F3)):
        for cand in _pool(braid, field)[:80]:
            sheaf = aug_to_sheaf(cand, braid)
            variants = [sheaf]
            for a, b in itertools.combinations(range(braid.n), 2):
                W = list(sheaf.W)
                W[a], W[b] = W[b], W[a]
                variants.append(SheafData(field, braid, sheaf.N, sheaf.M, W, sheaf.deg))
            for obj in variants:
                report = validate(obj).to_json()
                assert not any(f["family"] == "invertibility" for f in report["failures"])
                want = [f for f in report["failures"] if f["family"] != "compatibility"]
                want += _compatibility_by_image(obj)
                assert report == {"failures": want, "notes": []}
                if any(f["family"] == "compatibility" for f in want):
                    failing += 1
                else:
                    passing += 1
    assert failing >= 50 and passing >= 50


def test_wirtinger_check_matches_every_strand_reference():
    # validate skips the strands whose transported meridian is m_q itself;
    # the reference compares M_q with rho(transported word) on every strand
    failing = 0
    for braid, field in ((UNLINK3, F3), (BraidWord(2, [1, 1, 1]), F5),
                         (BraidWord(3, [1, -2, 1, -2]), F3), (BraidWord(3, [1, 1, 2]), F3)):
        geom = geometry(braid)
        for cand in _pool(braid, field)[:40]:
            sheaf = aug_to_sheaf(cand, braid)
            for a, b in itertools.combinations(range(braid.n), 2):
                M = list(sheaf.M)
                M[a], M[b] = M[b], M[a]
                obj = SheafData(field, braid, sheaf.N, M, sheaf.W, sheaf.deg)
                want = []
                for q in range(1, braid.n + 1):
                    rhs = obj.transport(geom.transported[q - 1])
                    if rhs != M[q - 1]:
                        want.append({"family": "wirtinger", "location": f"m_{q}",
                                     "expected": str(rhs.to_json()),
                                     "got": str(M[q - 1].to_json())})
                got = [f for f in validate(obj).to_json()["failures"]
                       if f["family"] == "wirtinger"]
                assert got == want
                failing += bool(want)
    assert failing >= 20


# -- value paths against Scalar references -------------------------------------------

FIGURE_EIGHT = BraidWord(3, [1, -2, 1, -2])
INVERSE_BRAIDS = (FIGURE_EIGHT, BraidWord(2, [1, 1, 1]), BraidWord(3, [1, 1, 2]),
                  BraidWord(3, [-1, 2, -1, -2]), BraidWord(3, [2, -1, -1]))


def _rand_value(field, rng):
    if field.is_prime_field:
        return rng.randrange(field.p)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else Fraction(0)


def _rand_matrix(field, N, rng, invertible):
    while True:
        mat = Matrix.from_rows(field, [[_rand_value(field, rng) for _ in range(N)]
                                       for _ in range(N)])
        if not invertible or not _ref_det(mat).is_zero():
            return mat


def _random_sheaf(braid, field, rng, invertible=True):
    """Random meridians and stalks: a SheafData that need not be valid."""
    N = rng.randint(1, 3)
    M = [_rand_matrix(field, N, rng, invertible) for _ in range(braid.n)]
    W = [Subspace.from_vectors(field, N, [[field.scalar(_rand_value(field, rng))
                                           for _ in range(N)] for _ in range(rng.randint(0, N))])
         for _ in range(braid.n)]
    return SheafData(field, braid, N, M, W)


def _ref_det(mat):
    """The determinant by permutation expansion, in Scalars."""
    field, n, total = mat.field, mat.rows, mat.field.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = -field.one() if inversions % 2 else field.one()
        for i in range(n):
            term = term * mat[i, perm[i]]
        total = total + term
    return total


def test_row_transport_matches_the_transposed_transport_matrix():
    # a functional carried through a word's letters as a row vector, f <- f M,
    # equals f rho(word) with rho(word) multiplied out
    rng = random.Random(21)
    for field in (F2, F3, F5, F7, QQ):
        for braid in INVERSE_BRAIDS:
            geom = geometry(braid)
            words = list(geom.segments.values()) + list(geom.longitudes.values())
            assert any(e == -1 for word in words for _, e in word.letters)
            for _ in range(4):
                sheaf = _random_sheaf(braid, field, rng)
                for word in words:
                    f = [field.scalar(_rand_value(field, rng)) for _ in range(sheaf.N)]
                    want = Matrix(field, [f], cols=sheaf.N) * sheaf.transport(word)
                    got = sheaf._transport_row(word, [x.value for x in f])
                    assert got == list(want.values[0])


def _fixing_sheaf(braid, field, rng):
    """Meridians that fix their hyperplane stalks pointwise, M = Id + u g
    with W = ker g, so that validate decides invertibility as g(M x); about
    a third are singular, M = Id - x g with g(x) = 1."""
    N = rng.randint(1, 3)
    M, W = [], []
    for _ in range(braid.n):
        g = [0] * N
        while not any(g):
            g = [_rand_value(field, rng) for _ in range(N)]
        a = next(k for k, v in enumerate(g) if v)
        if rng.random() < 0.3:
            u = [-field.scalar(g[a]).inv().value if k == a else 0 for k in range(N)]
        else:
            u = [_rand_value(field, rng) for _ in range(N)]
        M.append(Matrix.identity(field, N)
                 + Matrix.from_rows(field, [[x * y for y in g] for x in u]))
        W.append(Matrix.from_rows(field, [g]).kernel())
    return SheafData(field, braid, N, M, W)


def test_invertibility_on_values_matches_the_determinant():
    rng = random.Random(22)
    singular_seen = 0
    for field in (F2, F3, F5, F7, QQ):
        for braid in (UNLINK3,) + INVERSE_BRAIDS:
            for _ in range(6):
                sheaf = _random_sheaf(braid, field, rng, invertible=False)
                singular = [_ref_det(mat).is_zero() for mat in sheaf.M]
                assert [not mat.is_invertible() for mat in sheaf.M] == singular
                assert [mat.det() for mat in sheaf.M] == [_ref_det(mat) for mat in sheaf.M]
                want = [{"family": "invertibility", "location": f"M[{singular.index(True) + 1}]",
                         "expected": "invertible", "got": "singular"}] if any(singular) else []
                got = [f for f in validate(sheaf).failures if f["family"] == "invertibility"]
                assert got == want
                singular_seen += any(singular)
    assert singular_seen >= 20

    # meridians that fix their hyperplane stalk pointwise take the g(M x) path
    rng = random.Random(23)
    singular_seen = 0
    for field in (F2, F3, F5, F7, QQ):
        for braid in (UNLINK3,) + INVERSE_BRAIDS:
            for _ in range(6):
                sheaf = _fixing_sheaf(braid, field, rng)
                p = field.p
                for mat, sub in zip(sheaf.M, sheaf.W):
                    assert sub.dim == sheaf.N - 1 and _first_moved(p, mat, sub) is None
                    assert _fixing_det(p, mat, sub) == _ref_det(mat).value
                singular = [_ref_det(mat).is_zero() for mat in sheaf.M]
                want = [{"family": "invertibility", "location": f"M[{singular.index(True) + 1}]",
                         "expected": "invertible", "got": "singular"}] if any(singular) else []
                failures = validate(sheaf).failures
                assert [f for f in failures if f["family"] == "invertibility"] == want
                assert not any(f["family"] == "meridian-triviality" for f in failures)
                singular_seen += any(singular)
    assert singular_seen >= 20



def test_sections_and_stabilized_space_equal_the_pairwise_folds():
    rng = random.Random(14)
    for _ in range(400):
        sheaf = _random_valid_sheaf(rng)
        field, N = sheaf.field, sheaf.N
        gamma = Subspace.full(field, N)
        for sub in sheaf.W:
            gamma = gamma.intersect(sub)
        eye, V0 = Matrix.identity(field, N), Subspace.zero(field, N)
        for mat in sheaf.M:
            V0 = V0.sum((eye - mat).image())
        for got, want in ((global_sections(sheaf), gamma), (stabilized_space(sheaf), V0)):
            assert (got._vectors, got._pivots) == (want._vectors, want._pivots)
            assert got.to_json() == want.to_json()


def _split_summand_by_folds(sheaf):
    """_split_constant_summand_exists with every meet a fold of intersect."""
    field, N, comps = sheaf.field, sheaf.N, sheaf.components
    eye = Matrix.identity(field, N)
    fixed = Subspace.full(field, N)
    for mat in sheaf.M:
        fixed = fixed.intersect((eye - mat).kernel())
    if fixed.dim == 0:
        return False
    for size in range(1, comps.r + 1):
        for sublink in itertools.combinations(range(1, comps.r + 1), size):
            on = [i for i in range(1, comps.n + 1) if comps.component(i) in sublink]
            walls = {sheaf.W[i - 1] for i in on}
            if len(walls) != 1:
                continue
            wall = walls.pop()
            if any(wall.apply(mat) != wall for mat in sheaf.M):
                continue
            inside = fixed
            for i in range(1, comps.n + 1):
                if i not in on:
                    inside = inside.intersect(sheaf.W[i - 1])
            if not wall.contains_subspace(inside):
                return True
    return False


def test_split_summand_search_equals_the_pairwise_folds():
    rng = random.Random(14)
    seen = set()
    for _ in range(600):
        braid = rng.choice([BraidWord(1, []), UNLINK2, UNLINK3, BraidWord(2, [1, 1])])
        field, N = rng.choice([F2, F3]), rng.randint(0, 3)
        walls = [Subspace.from_vectors(field, N, [[field.scalar(rng.randrange(field.p))
                                                    for _ in range(N)]
                                                   for _ in range(rng.randint(0, N))])
                 for _ in range(2)]
        M = []
        for _ in range(braid.n):
            mat = Matrix.identity(field, N)
            if rng.random() < 0.4:
                mat = Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(N)]
                                               for _ in range(N)])
            M.append(mat)
        W = [rng.choice(walls) for _ in range(braid.n)]
        sheaf = SheafData(field, braid, N, M, W, ())
        got = _split_constant_summand_exists(sheaf)
        assert got == _split_summand_by_folds(sheaf)
        seen.add(got)
    assert seen == {False, True}
