import itertools
import re
import random

import pytest

from cordsheaf.braid import BraidWord, MeridianWord, component_map, geometry
from cordsheaf.cordaug import (AugCandidate, canonical_form, check_relations,
                               degenerate_components, index_sets)
from cordsheaf.correspondence import (InvalidTrivializationError,
                                      LocalTrivialization, NotAnAugmentationError,
                                      aug_to_sheaf, aug_to_subsheaf,
                                      canonical_trivialization,
                                      choose_trivialization, diff_candidates,
                                      extend_by_constant, pure_cord_trace,
                                      roundtrip_aug, roundtrip_sheaf,
                                      sheaf_to_aug)
from cordsheaf.correspondence import (_AugLayout, _candidate, _certified_layout,
                                      _roundtrip_sheaf, _sheaf_read_off)
from cordsheaf.field import FieldSpec, MixedFieldError
from cordsheaf.linalg import Matrix, Subspace
from cordsheaf.moduli import enumerate_augs, quotient_by_dilation, verify_bijection
from cordsheaf.reports import DiffReport
from cordsheaf.sheafmodel import (DegenerateSummand, SheafData, global_sections,
                                  stabilized_space, validate)

from linalg_reference import solve

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
UNLINK3 = BraidWord(3, [])


def golden_candidate():
    cm = component_map(UNLINK3)
    one = F5.one()
    R = Matrix.from_rows(F5, [[0, 1, 1], [0, 0, 0], [0, 1, 2]])
    return AugCandidate(F5, cm, R, [one] * 3, [one, one, one - F5.scalar(2)])


def test_golden_canonical_trivialization_matches_display():
    cand = golden_candidate()
    triv = canonical_trivialization(cand)
    assert triv.f[0] == Matrix.from_rows(F5, [[0, 1, 1]])
    # the zero-row strand carries the -1 normalization making the right
    # inverse identity (Id - M_2) finv_2 = R_2 hold
    assert triv.f[1] == Matrix.from_rows(F5, [[-1, 0, 0]])
    assert triv.f[2] == Matrix.from_rows(F5, [[0, 1, 2]])
    assert triv.finv[0] == Matrix.from_rows(F5, [[0], [0], [1]])
    assert triv.finv[1] == Matrix.from_rows(F5, [[-1], [0], [0]])
    assert triv.finv[2] == Matrix.from_rows(F5, [[0], [0], [3]])  # inverse of 2


def test_golden_recovery_exact():
    cand = golden_candidate()
    sheaf = aug_to_sheaf(cand, UNLINK3)
    back = sheaf_to_aug(sheaf, canonical_trivialization(cand))
    assert diff_candidates(cand, back).empty
    assert roundtrip_aug(cand, UNLINK3).empty
    assert roundtrip_sheaf(sheaf).empty


def test_golden_subsheaf_matrices():
    cand = golden_candidate()
    sub = aug_to_subsheaf(cand, UNLINK3)
    assert sub.N == 2
    assert sub.M[0].is_identity() and sub.M[1].is_identity()
    assert sub.M[2] == Matrix.from_rows(F5, [[1, 0], [-1, -1]])


def test_identity_meridians_give_zero_matrix():
    hyper = Subspace.from_vectors(F3, 2, [[F3.one(), F3.zero()]])
    sheaf = SheafData(F3, BraidWord(2, []), 2,
                      [Matrix.identity(F3, 2)] * 2, [hyper, hyper], ())
    cand = sheaf_to_aug(sheaf, choose_trivialization(sheaf))
    assert cand.R.is_zero()


def test_one_dimensional_unknot():
    braid = BraidWord(1, [])
    mu_hat = F5.scalar(3)
    sheaf = SheafData(F5, braid, 1, [Matrix.from_rows(F5, [[3]])],
                      [Subspace.zero(F5, 1)], ())
    cand = sheaf_to_aug(sheaf, choose_trivialization(sheaf))
    assert cand.mu[0] == mu_hat
    assert cand.lam[0] == F5.one()
    assert roundtrip_sheaf(sheaf).empty


def test_invalid_trivialization_rejected():
    cand = golden_candidate()
    sheaf = aug_to_sheaf(cand, UNLINK3)
    good = canonical_trivialization(cand)
    # a functional that does not kill W_1, and a 2 x N one
    for f1 in ([[1, 0, 0]], [[0, 1, 1], [0, 1, 1]]):
        with pytest.raises(InvalidTrivializationError):
            sheaf_to_aug(sheaf, LocalTrivialization(
                [Matrix.from_rows(F5, f1)] + list(good.f[1:]), good.finv))


# the golden instances of test_golden: (strands, word, p, every k-th augmentation)
GOLDEN_INSTANCES = [(2, (), 3, 1), (2, (1, 1, 1), 5, 1), (3, (1, -2, 1, -2), 3, 1),
                    (3, (1, 2), 3, 1), (1, (), 7, 1), (2, (1, 1, 1), 7, 1), (2, (), 5, 1),
                    (3, (), 2, 1), (3, (), 3, 25), (2, (1, 1), 3, 1)]


def test_trivialization_from_matrices_reads_the_same():
    # the public constructor reads the values off the matrices once; the
    # read-off gives the same augmentation as on the trivialization it came from
    read = 0
    for n, word, p, every in GOLDEN_INSTANCES:
        braid = BraidWord(n, word)
        for cand in enumerate_augs(braid, FieldSpec.prime(p))[::every]:
            sheaf = aug_to_sheaf(cand, braid)
            if not validate(sheaf).ok:
                continue
            triv = choose_trivialization(sheaf)
            again = LocalTrivialization(triv.f, triv.finv)
            assert (again.f, again.finv) == (triv.f, triv.finv)
            assert sheaf_to_aug(sheaf, again) == sheaf_to_aug(sheaf, triv)
            read += 1
    assert read > 500


def test_trivialization_over_another_field_rejected():
    sheaf = aug_to_sheaf(golden_candidate(), UNLINK3)
    triv = choose_trivialization(sheaf)

    def over(field, mats):
        return [None if m is None else Matrix.from_rows(field, [[x.value for x in row]
                                                                for row in m.entries])
                for m in mats]

    with pytest.raises(MixedFieldError):
        sheaf_to_aug(sheaf, LocalTrivialization(over(F3, triv.f), over(F3, triv.finv)))
    with pytest.raises(MixedFieldError):
        LocalTrivialization(over(F3, triv.f), triv.finv)


def test_not_an_augmentation_rejected():
    # a normalization failure, and a trefoil candidate with the right
    # diagonal that breaks the transport identities
    trefoil = BraidWord(2, [1, 1, 1])
    cases = [
        (UNLINK3, AugCandidate(F5, component_map(UNLINK3),
                               Matrix.from_rows(F5, [[3, 0, 0], [0, 0, 0], [0, 0, 0]]),
                               [F5.one()] * 3, [F5.one()] * 3)),
        (trefoil, AugCandidate(F5, component_map(trefoil),
                               Matrix.from_rows(F5, [[0, 1], [2, 0]]),
                               [F5.one()], [F5.one()])),
    ]
    for braid, bad in cases:
        expected = check_relations(bad, braid).failures
        assert expected
        for build in (aug_to_sheaf, aug_to_subsheaf):
            with pytest.raises(NotAnAugmentationError) as err:
                build(bad, braid)
            assert err.value.report.failures == expected
    assert {f["family"] for f in check_relations(cases[1][1], trefoil).failures} \
        & {"transport-row", "transport-col"}


def test_layout_pivots_match_greedy_definition():
    rng = random.Random(11)
    for field in (F3, F5):
        for n in (2, 3, 4):
            for _ in range(40):
                rows = [[field.scalar(rng.randrange(field.p)) if rng.random() < 0.5
                         else field.zero() for _ in range(n)] for _ in range(n)]
                cand = AugCandidate(field, component_map(BraidWord(n, [])),
                                    Matrix(field, rows), [field.one()] * n,
                                    [field.one()] * n)
                lay = _AugLayout(cand, index_sets(cand))
                cols = [cand.R.col(j - 1) for j in range(1, n + 1)]
                for j in range(1, n + 1):
                    earlier = Subspace.from_vectors(field, n, cols[:j - 1])
                    assert (j in lay.pivots) == (not earlier.contains(cols[j - 1]))
                    if j not in lay.pivots:
                        spanned = Subspace.from_vectors(
                            field, n, [cols[p - 1] for p in lay.pivots if p < j])
                        assert spanned.contains(cols[j - 1])
                    # the coordinates (field values) rebuild the column from
                    # the pivot columns
                    rebuilt = [field.zero()] * n
                    for c, p in zip(lay.coords[j - 1], lay.pivots):
                        rebuilt = [a + field.scalar(c) * b for a, b in zip(rebuilt, cols[p - 1])]
                    assert tuple(rebuilt) == cols[j - 1]


# -- gauge properties --------------------------------------------------------------


_SHEAF_POOL = None


def _suite_sheaves(rng, max_items=250):
    global _SHEAF_POOL
    if _SHEAF_POOL is None:
        _SHEAF_POOL = []
        for braid, field in ((UNLINK3, F3), (BraidWord(2, []), F3),
                             (BraidWord(2, [1, 1, 1]), F3), (BraidWord(2, [1]), F3),
                             (BraidWord(2, [1, 1]), F2)):
            for orbit in quotient_by_dilation(enumerate_augs(braid, field)):
                sheaf = aug_to_sheaf(orbit.rep, braid)
                if validate(sheaf).ok and sheaf.N > 0:
                    _SHEAF_POOL.append((orbit.rep, sheaf))
    out = list(_SHEAF_POOL)
    rng.shuffle(out)
    return out[:max_items]


def _random_coherent_trivialization(sheaf, rng):
    """Rescale the canonical family per component and perturb right inverses
    inside the stalks; these are exactly the allowed gauge choices."""
    base = choose_trivialization(sheaf)
    field = sheaf.field
    comps = sheaf.components
    units = list(field.elements(nonzero=True))
    scale = {s: rng.choice(units) for s in range(1, comps.r + 1)}
    f, finv = [], []
    for i in range(1, sheaf.braid.n + 1):
        if base.f[i - 1] is None:
            f.append(None)
            finv.append(None)
            continue
        c = scale[comps.component(i)]
        fi = base.f[i - 1].scaled(c)
        vec = base.finv[i - 1].scaled(c.inv())
        wall = sheaf.W[i - 1]
        if wall.dim and rng.random() < 0.8:
            w = wall.basis.col(rng.randrange(wall.dim))
            vec = vec + Matrix.column(field, w)
        f.append(fi)
        finv.append(vec)
    return LocalTrivialization(f, finv)


def test_gauge_identity():
    # (Id - M_s) finv_s f_s = (Id - M_s) for every strand of every sample
    rng = random.Random(0)
    samples = _suite_sheaves(rng)
    eye_cache = {}
    for _, sheaf in samples:
        triv = _random_coherent_trivialization(sheaf, rng)
        eye = eye_cache.setdefault((sheaf.field, sheaf.N),
                                   Matrix.identity(sheaf.field, sheaf.N))
        for i in range(1, sheaf.braid.n + 1):
            if triv.f[i - 1] is None:
                continue
            lhs = (eye - sheaf.M[i - 1]) * (triv.finv[i - 1] * triv.f[i - 1])
            assert lhs == eye - sheaf.M[i - 1]


def test_right_inverse_independence():
    rng = random.Random(1)
    for cand, sheaf in _suite_sheaves(rng, max_items=120):
        base = choose_trivialization(sheaf)
        finv2 = []
        for i in range(1, sheaf.braid.n + 1):
            if base.finv[i - 1] is None:
                finv2.append(None)
                continue
            vec = base.finv[i - 1]
            wall = sheaf.W[i - 1]
            if wall.dim:
                w = wall.basis.col(rng.randrange(wall.dim))
                vec = vec + Matrix.column(sheaf.field, w)
            finv2.append(vec)
        other = LocalTrivialization(base.f, finv2)
        a = sheaf_to_aug(sheaf, base)
        b = sheaf_to_aug(sheaf, other)
        assert diff_candidates(a, b).empty


def test_trivialization_covariance():
    # two coherent trivializations induce dilation-equivalent augmentations
    rng = random.Random(2)
    for cand, sheaf in _suite_sheaves(rng, max_items=120):
        t1 = _random_coherent_trivialization(sheaf, rng)
        t2 = _random_coherent_trivialization(sheaf, rng)
        a = sheaf_to_aug(sheaf, t1)
        b = sheaf_to_aug(sheaf, t2)
        ca, _ = canonical_form(a)
        cb, _ = canonical_form(b)
        assert diff_candidates(ca, cb).empty


def test_quotient_invariance():
    # adding a trivial constant block inside every stalk leaves the induced
    # augmentation unchanged for the induced trivialization
    rng = random.Random(3)
    for cand, sheaf in _suite_sheaves(rng, max_items=80):
        fat = extend_by_constant(sheaf, rng.randint(1, 2))
        assert validate(fat).ok
        triv = choose_trivialization(sheaf)
        extra = fat.N - sheaf.N
        f2, finv2 = [], []
        for i in range(1, sheaf.braid.n + 1):
            if triv.f[i - 1] is None:
                f2.append(None)
                finv2.append(None)
                continue
            zeros = [sheaf.field.zero()] * extra
            f2.append(Matrix(sheaf.field, [list(triv.f[i - 1].row(0)) + zeros]))
            finv2.append(Matrix.column(sheaf.field,
                                       list(triv.finv[i - 1].col(0)) + zeros))
        a = sheaf_to_aug(sheaf, triv)
        b = sheaf_to_aug(fat, LocalTrivialization(f2, finv2))
        assert diff_candidates(a, b).empty


def test_pure_cord_traces_match_formula():
    rng = random.Random(4)
    for cand, sheaf in _suite_sheaves(rng, max_items=100):
        triv = choose_trivialization(sheaf)
        induced = sheaf_to_aug(sheaf, triv)
        geom = geometry(sheaf.braid)
        comps = sheaf.components
        deg = set()
        for d in sheaf.deg:
            deg.add(d.component)
        for s in range(1, comps.r + 1):
            if s in deg:
                continue
            b = comps.base_strand(s)
            loops = [MeridianWord.identity(), MeridianWord.generator(b),
                     geom.longitudes[s],
                     MeridianWord.generator(b, -1) * geom.longitudes[s]]
            for loop in loops:
                lam_t, mu_t, cord_t = pure_cord_trace(sheaf, s, loop)
                assert lam_t == induced.lam[s - 1]
                assert mu_t == induced.mu[s - 1]
                eye = Matrix.identity(sheaf.field, sheaf.N)
                direct = (triv.f[b - 1] * (sheaf.transport(loop)
                          * ((eye - sheaf.M[b - 1]) * triv.finv[b - 1])))[0, 0]
                assert cord_t == direct


def test_pure_cord_trace_rejects_strands_and_components_out_of_range():
    sheaf = aug_to_sheaf(golden_candidate(), UNLINK3)
    pure_cord_trace(sheaf, 3, MeridianWord.generator(3))
    with pytest.raises(ValueError, match="strand 4, but there are only 3"):
        pure_cord_trace(sheaf, 1, MeridianWord([(1, 1), (4, 1)]))
    for component in (0, 4):
        with pytest.raises(ValueError, match=f"no component {component} among 3"):
            pure_cord_trace(sheaf, component, MeridianWord.identity())


def test_roundtrip_aug_across_unlink_candidates():
    for field in (F2, F3):
        for cand in enumerate_augs(UNLINK3, field):
            assert roundtrip_aug(cand, UNLINK3).empty


def test_dilation_functoriality_of_subsheaf():
    # dilation-equivalent candidates give isomorphic subsheaf data, with the
    # diagonal rescaling witnessing the isomorphism
    from cordsheaf.cordaug import DilationParam, apply_dilation
    from cordsheaf.sheafmodel import isomorphic
    rng = random.Random(8)
    units3 = list(F3.elements(nonzero=True))
    checked = 0
    for cand, sheaf in _suite_sheaves(rng, max_items=40):
        braid = sheaf.braid
        if cand.field != F3:
            continue
        d = DilationParam([rng.choice(units3) for _ in range(cand.r)])
        moved = apply_dilation(cand, d)
        assert check_relations(moved, braid).ok
        a = aug_to_subsheaf(cand, braid)
        b = aug_to_subsheaf(moved, braid)
        assert isomorphic(a, b) is not None
        checked += 1
    assert checked > 10


def test_stable_sheaves_induce_nonzero_rows():
    # stability forces every row functional of the induced augmentation to
    # be nonzero
    from cordsheaf.sheafmodel import is_stable
    rng = random.Random(9)
    stable_seen = 0
    for cand, sheaf in _suite_sheaves(rng):
        if not is_stable(sheaf):
            continue
        stable_seen += 1
        induced = sheaf_to_aug(sheaf, choose_trivialization(sheaf))
        assert not index_sets(induced).I_dprime
    assert stable_seen > 20


def test_degenerate_split_roundtrip():
    cm = component_map(UNLINK3)
    one = F3.one()
    cand = AugCandidate(F3, cm, Matrix.zeros(F3, 3, 3),
                        [F3.scalar(2), one, F3.scalar(2)], [one, one, one])
    sheaf = aug_to_sheaf(cand, UNLINK3)
    assert sheaf.N == 0
    assert [(d.component, d.alpha.value) for d in sheaf.deg] == [(1, 2), (2, 1), (3, 2)]
    assert roundtrip_aug(cand, UNLINK3).empty
    assert roundtrip_sheaf(sheaf).empty


def test_mixed_degenerate_and_visible_components():
    # component 1 degenerate, components 2 and 3 linked through the worked
    # example's lower block
    cm = component_map(UNLINK3)
    one = F3.one()
    R = Matrix.from_rows(F3, [[0, 0, 0], [0, 0, 1], [0, 1, 2]])
    cand = AugCandidate(F3, cm, R, [F3.scalar(2), one, one],
                        [one, one, F3.scalar(2)])
    report = check_relations(cand, UNLINK3)
    assert report.ok
    assert degenerate_components(cand) == [1]
    sheaf = aug_to_sheaf(cand, UNLINK3)
    assert validate(sheaf).ok
    assert [(d.component, d.alpha.value) for d in sheaf.deg] == [(1, 2)]
    assert roundtrip_aug(cand, UNLINK3).empty
    assert roundtrip_sheaf(sheaf).empty


def _with_strand(mats, strand, mat):
    return [mat if i == strand else m for i, m in enumerate(mats, 1)]


# each way a trivialization can fail to fit the mixed sheaf above (strand 1
# degenerate, N = 2), and the message naming it
BAD_TRIVIALIZATIONS = [
    ("a functional on a degenerate strand",
     lambda f, x: (_with_strand(f, 1, f[1]), _with_strand(x, 1, x[1])),
     "strand 1 is degenerate and admits no trivialization"),
    ("a missing functional", lambda f, x: (_with_strand(f, 2, None), x),
     "strand 2 needs a functional"),
    ("a wrong shape", lambda f, x: (_with_strand(f, 2, Matrix.from_rows(F3, [[0, 1, 1]])), x),
     re.escape("f[2] must be 1x2 and finv[2] 2x1")),
    ("a vanishing f", lambda f, x: (_with_strand(f, 2, Matrix.zeros(F3, 1, 2)), x),
     re.escape("f[2] vanishes")),
    ("a finv that is not a right inverse",
     lambda f, x: (f, _with_strand(x, 3, x[2].scaled(F3.scalar(2)))),
     re.escape("finv[3] is not a right inverse")),
]


@pytest.mark.parametrize("change, message", [case[1:] for case in BAD_TRIVIALIZATIONS],
                         ids=[case[0] for case in BAD_TRIVIALIZATIONS])
def test_trivialization_that_does_not_fit_is_rejected(change, message):
    R = Matrix.from_rows(F3, [[0, 0, 0], [0, 0, 1], [0, 1, 2]])
    one = F3.one()
    cand = AugCandidate(F3, component_map(UNLINK3), R, [F3.scalar(2), one, one],
                        [one, one, F3.scalar(2)])
    sheaf = aug_to_sheaf(cand, UNLINK3)
    good = canonical_trivialization(cand)
    assert good.f[0] is None and sheaf.N == 2
    f, finv = change(list(good.f), list(good.finv))
    with pytest.raises(InvalidTrivializationError, match=message):
        sheaf_to_aug(sheaf, LocalTrivialization(f, finv))


# -- the sheaf round trip's comparison map -------------------------------------------


def _transverse_vector(sheaf):
    """A vector of values outside every non-degenerate stalk, or None."""
    field = sheaf.field
    walls = [sheaf.W[i - 1] for i in range(1, sheaf.braid.n + 1)
             if i not in sheaf.deg_strands()]
    for tup in itertools.product(range(field.p), repeat=sheaf.N):
        if all(wall._coordinates(list(tup)) is None for wall in walls):
            return list(tup)
    return None


def test_comparison_map_is_the_transverse_vector_map():
    # R_j -> (Id - M_j) finv_j, at the pivots of the induced augmentation,
    # is R_j -> v_j / f_j(v) with v_j = (Id - M_j) v, for any v off every
    # stalk: the meridians are the rank-one updates Id - (Id - M_j) finv_j f_j
    compared = 0
    for _, sheaf in _suite_sheaves(random.Random(10), max_items=None):
        v = _transverse_vector(sheaf)
        if v is None:
            continue
        field = sheaf.field
        triv = choose_trivialization(sheaf)
        eps = sheaf_to_aug(sheaf, triv)
        eye = Matrix.identity(field, sheaf.N)
        vec = Matrix._from_values(field, [(x,) for x in v], cols=1)
        for j in _AugLayout(eps, index_sets(eps)).pivots:
            displaced = eye - sheaf.M[j - 1]
            want = (displaced * vec).scaled((triv.f[j - 1] * vec)[0, 0].inv())
            assert displaced * triv.finv[j - 1] == want
            compared += 1
        assert roundtrip_sheaf(sheaf).empty
    assert compared > 1000


def test_unlink_over_f2_runs_every_comparison():
    # no vector of F_2^2 avoids the three stalks of four representatives;
    # the comparison map needs none
    report = verify_bijection(UNLINK3, F2)
    assert report.ok
    assert report.notes == [f"{len(report.aug_points)} candidates, "
                            f"{len(report.orbits)} dilation orbits"]


def test_corrupted_meridian_is_itemized():
    sheaf = aug_to_sheaf(golden_candidate(), UNLINK3)
    M = list(sheaf.M)
    M[2] = M[2].scaled(F5.scalar(2))
    bad = SheafData(F5, UNLINK3, sheaf.N, M, sheaf.W, sheaf.deg)
    assert not validate(bad).ok
    entries = roundtrip_sheaf(bad).entries
    assert {"location": "rank-one meridians", "expected": "M[j] = Id - d_j f_j",
            "got": "fails at strands [3]"} in entries


def _elimination_sheaf(cand, braid, extended):
    """The subsheaf, or with extended the full sheaf, from its definition.

    The pivot columns of R base the space, with R_0 ahead of them when
    extended and a non-degenerate strand has a zero row.  M_t = Id - c_t g_t,
    where c_t holds the coordinates of R_t (0 on R_0) and g_t is row t of R
    on the pivots, or -1 on R_0 at such a zero-row strand, so that
    M_t(R_0) = R_0 + R_t there; W_t = ker g_t by elimination.  A degenerate
    strand has a zero row and column, so the identity and the full space.
    """
    field, n = cand.field, cand.n
    pivots = cand.R.rref()[1]
    basis = Matrix.from_rows(field, [[cand.R[i, j].value for j in pivots] for i in range(n)])
    deg = degenerate_components(cand)
    zero_rows = {i for i in index_sets(cand).I_dprime if cand.components.component(i) not in deg}
    lead = [0] if extended and zero_rows else []
    d = len(lead) + len(pivots)
    mats, stalks = [], []
    for t in range(1, n + 1):
        col = [row[t - 1] for row in cand.R.values]
        c = lead + solve(field.p, basis.values, len(pivots), col)
        g = lead + [cand.R.values[t - 1][j] for j in pivots]
        if lead and t in zero_rows:
            g = [-1] + [0] * len(pivots)
        mats.append(Matrix.from_rows(field, [[int(a == b) - c[a] * g[b] for b in range(d)]
                                             for a in range(d)]))
        stalks.append(Matrix.from_rows(field, [g]).kernel())
    summands = [DegenerateSummand(s, cand.lam[s - 1]) for s in deg]
    return SheafData(field, braid, d, mats, stalks, summands)


def test_subsheaf_matches_the_elimination_reference():
    # the subsheaf, and the full sheaf with its R_0 extension at zero-row
    # strands, both written by hand in _AugLayout._build
    hopf, t24 = BraidWord(2, [1, 1]), BraidWord(2, [1, 1, 1, 1])
    cases = ((hopf, F3, "extended"), (UNLINK3, F2, "degenerate"), (hopf, F5, "extended"),
             (t24, F5, "extended"))
    for braid, field, kind in cases:
        seen = False
        for cand in enumerate_augs(braid, field):
            lay = _AugLayout(cand, index_sets(cand))
            seen |= lay.extended if kind == "extended" else bool(lay.deg_strands)
            assert lay.subsheaf(braid) == _elimination_sheaf(cand, braid, False), cand
            assert lay.sheaf(braid) == _elimination_sheaf(cand, braid, True), cand
        assert seen, kind


def _corrupted(sheaf, rng):
    """Sheaves that differ from sheaf in one meridian or one stalk: each
    meridian entry shifted by one, each meridian replaced by the zero
    matrix and by a random matrix, each stalk replaced by the zero space,
    the full space and a random hyperplane."""
    field, N, n = sheaf.field, sheaf.N, sheaf.braid.n
    p = field.p
    for t in range(n):
        mats = [Matrix.zeros(field, N, N),
                Matrix.from_rows(field, [[rng.randrange(p) for _ in range(N)] for _ in range(N)])]
        for a, b in itertools.product(range(N), repeat=2):
            rows = [list(row) for row in sheaf.M[t].values]
            rows[a][b] += 1
            mats.append(Matrix.from_rows(field, rows))
        g = [0] * N
        while N and not any(g):
            g = [rng.randrange(p) for _ in range(N)]
        stalks = [Subspace.zero(field, N), Subspace.full(field, N),
                  Matrix.from_rows(field, [g]).kernel()]
        for mat in mats:
            yield SheafData(field, sheaf.braid, N, sheaf.M[:t] + (mat,) + sheaf.M[t + 1:],
                            sheaf.W, sheaf.deg)
        for sub in stalks:
            yield SheafData(field, sheaf.braid, N, sheaf.M,
                            sheaf.W[:t] + (sub,) + sheaf.W[t + 1:], sheaf.deg)


def _phi_and_v0(sheaf):
    """Phi's columns, the d_j at the induced augmentation's pivots, and V_0
    as a Subspace, where roundtrip_sheaf reaches its comparison of the two:
    Gamma = 0, the read-off is a valid augmentation, and dim V_0 is the
    subsheaf's.  Else None."""
    field, N = sheaf.field, sheaf.N
    if global_sections(sheaf).dim:
        return None
    try:
        *read, disp = _sheaf_read_off(sheaf, choose_trivialization(sheaf))
        eps = _candidate(sheaf.field, sheaf.components, *read)
        lay = _certified_layout(eps, sheaf.braid)
    except (InvalidTrivializationError, NotAnAugmentationError):
        return None
    V0 = stabilized_space(sheaf)
    if lay.values(extended=False)[0] != V0.dim:
        return None
    return [disp[j - 1] for j in lay.pivots], V0


def _conjugated(sheaf, rng):
    """sheaf moved by a random change of basis: an isomorphic object whose
    matrices are no longer in the layout's shape."""
    field, N = sheaf.field, sheaf.N
    P = Matrix.identity(field, N)
    while N:
        P = Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(N)] for _ in range(N)])
        if P.is_invertible():
            break
    Pi = P.inverse()
    return SheafData(field, sheaf.braid, N, [P * M * Pi for M in sheaf.M],
                     [W.apply(P) for W in sheaf.W], sheaf.deg)


def test_phi_spans_v0_wherever_the_round_trip_compares_dimensions():
    # each d_j = (Id - M_j) finv_j lies in V_0, and the d_j at R's pivot
    # columns are independent since R = (f_i d_j); so once dim V_0 is the
    # subsheaf's dimension, Phi's image is all of V_0, and roundtrip_sheaf
    # need not compare them.  Layout sheaves, their conjugates and their
    # one-entry corruptions, all over the suite's links
    rng = random.Random(23)
    sheaves = [sheaf for _, sheaf in _suite_sheaves(rng, max_items=None)]
    for braid, field in ((BraidWord(2, [1, 1]), F3), (BraidWord(3, [1, -2, 1, -2]), F3),
                         (BraidWord(3, [1, 1, 2]), F3), (BraidWord(2, [1, 1, 1, 1]), F5)):
        sheaves += [aug_to_sheaf(cand, braid) for cand in enumerate_augs(braid, field)]
    sheaves += [_conjugated(sheaf, rng) for sheaf in rng.sample(sheaves, 300)]
    sheaves += [bad for sheaf in rng.sample(sheaves, 20) for bad in _corrupted(sheaf, rng)]
    compared = 0
    for sheaf in sheaves:
        found = _phi_and_v0(sheaf)
        if found is not None:
            cols, V0 = found
            assert Subspace._from_values(sheaf.field, sheaf.N, cols) == V0
            compared += bool(cols)
    assert compared >= 2000


def test_rejected_sheaves_raise_one_exception_type():
    # the read-off either reports or raises InvalidTrivializationError, which
    # names the strand or component, on sheaves validate rejects: formerly a
    # vanishing lambda or mu raised ValueError from AugCandidate, and an
    # inverse letter of a singular meridian ZeroDivisionError
    rng = random.Random(31)
    hopf = BraidWord(2, [1, 1])
    golden = [aug_to_sheaf(golden_candidate(), UNLINK3)]
    golden += [aug_to_sheaf(cand, hopf) for cand in enumerate_augs(hopf, F3)]
    messages = []
    rejected = 0
    for sheaf in golden:
        for bad in _corrupted(sheaf, rng):
            rejected += not validate(bad).ok
            try:
                report = roundtrip_sheaf(bad)
            except InvalidTrivializationError as err:
                messages.append(str(err))
            else:
                assert isinstance(report, DiffReport)
            try:
                cand = sheaf_to_aug(bad, choose_trivialization(bad))
            except InvalidTrivializationError as err:
                messages.append(str(err))
            else:
                assert isinstance(cand, AugCandidate)
    assert rejected > 200
    assert all(re.search(r"(strand|component) \d|\[\d\]", text) for text in messages)
    for kind in ("mu of component", "is singular", "codimension"):
        assert any(kind in text for text in messages), kind


def test_diff_candidates_names_each_differing_entry():
    cand, one = golden_candidate(), F5.one()
    other = AugCandidate(F5, cand.components,
                         Matrix.from_rows(F5, [[0, 1, 1], [0, 0, 0], [0, 3, 2]]),
                         [one, F5.scalar(2), one], [one, F5.scalar(4), one - F5.scalar(2)])
    assert diff_candidates(cand, other).to_json() == [
        {"location": "R[3][2]", "expected": "1", "got": "3"},
        {"location": "lambda[2]", "expected": "1", "got": "2"},
        {"location": "mu[2]", "expected": "1", "got": "4"},
    ]


# (strands, word, p) -> orbit representatives whose sheaf reads back as the
# representative itself, as another member of its orbit, off its orbit, or
# raises: the links verify reports failures on, then the benchmark's verify
# instances
SHORTCUT_PATHS = {(2, (1, 1, 1, 1), 5): (53, 29, 4, 0), (3, (1, 1), 3): (85, 221, 22, 0),
                  (3, (1, 1, 2), 3): (9, 4, 1, 2), (3, (1, 2, 1, 2, 1, 2), 3): (28, 70, 30, 0),
                  (2, (1, 1), 3): (9, 5, 2, 0), (2, (), 7): (163, 246, 0, 0),
                  (2, (), 5): (69, 76, 0, 0), (3, (), 2): (64, 0, 0, 0),
                  (2, (1, 1, 1), 5): (11, 0, 0, 0), (2, (1, 1), 5): (49, 17, 6, 0)}


def _values(cand) -> tuple:
    return cand.R.values, tuple(x.value for x in cand.lam), tuple(x.value for x in cand.mu)


def _shortcut_path(monkeypatch, sheaf, lay, values) -> str:
    """Which path _roundtrip_sheaf takes given the representative's layout,
    after checking that it returns what the full path returns, and that it
    runs the relation certificate only off the representative's orbit."""
    import cordsheaf.correspondence as co
    certified = []
    monkeypatch.setattr(co, "check_relations",
                        lambda *args: certified.append(None) or check_relations(*args))
    try:
        diff, eps, key = _roundtrip_sheaf(sheaf, lay, values)
    except InvalidTrivializationError as err:
        monkeypatch.undo()
        with pytest.raises(InvalidTrivializationError, match=f"^{re.escape(str(err))}$"):
            _roundtrip_sheaf(sheaf)
        return "raises"
    path = ("itself" if eps is lay.cand else "orbit" if key == _values(lay.cand) else "off")
    assert len(certified) == (path == "off")
    monkeypatch.undo()
    full, want, none = _roundtrip_sheaf(sheaf)
    assert none is None
    assert diff.entries == full.entries
    assert _values(eps) == _values(want)
    assert key == _values(canonical_form(want)[0])
    return path


@pytest.mark.parametrize("key", list(SHORTCUT_PATHS),
                         ids=lambda key: f"{list(key[1])}/{key[0]}/F{key[2]}")
def test_sheaf_round_trip_shortcut_matches_the_full_path(monkeypatch, key):
    # verify_bijection hands each representative's layout and sheaf values
    # to the sheaf round trip: a read-back equal to the representative, or
    # in its orbit, skips the certificate (and the layout and values it
    # would rebuild), and must report exactly what the full path reports
    n, word, p = key
    braid = BraidWord(n, list(word))
    paths = {"itself": 0, "orbit": 0, "off": 0, "raises": 0}
    for orbit in quotient_by_dilation(enumerate_augs(braid, FieldSpec.prime(p))):
        lay = _AugLayout(orbit.rep, index_sets(orbit.rep))
        values = lay.values(lay.extended)
        paths[_shortcut_path(monkeypatch, lay.sheaf(braid, values), lay, values)] += 1
    assert tuple(paths.values()) == SHORTCUT_PATHS[key]


def test_sheaf_round_trip_shortcut_certifies_a_read_back_off_the_orbit(monkeypatch):
    # a corrupted sheaf handed over with its source's layout: squaring strand
    # 1's meridian moves the read-back off the orbit and breaks the
    # certificate, which runs and itemizes its failures as the full path does
    braid = BraidWord(2, [1, 1])
    cand = next(c for c in enumerate_augs(braid, F5) if c.R.values == ((0, 0), (1, 4)))
    lay = _AugLayout(cand, index_sets(cand))
    values = lay.values(lay.extended)
    sheaf = lay.sheaf(braid, values)
    bad = SheafData(F5, braid, sheaf.N, [sheaf.M[0] * sheaf.M[0], sheaf.M[1]], sheaf.W, sheaf.deg)
    assert _shortcut_path(monkeypatch, bad, lay, values) == "off"
    [entry] = _roundtrip_sheaf(bad, lay, values)[0].entries
    assert entry["location"] == "induced augmentation"
    assert "'family': 'transport-col'" in entry["got"]
