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
from cordsheaf.correspondence import _AugLayout
from cordsheaf.field import FieldSpec
from cordsheaf.linalg import Matrix, Subspace
from cordsheaf.moduli import enumerate_augs, quotient_by_dilation
from cordsheaf.sheafmodel import SheafData, validate

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
    bad = LocalTrivialization(
        [Matrix.from_rows(F5, [[1, 0, 0]])] + list(good.f[1:]), good.finv)
    with pytest.raises(InvalidTrivializationError):
        sheaf_to_aug(sheaf, bad)


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
            w = wall.basis_columns()[rng.randrange(wall.dim)]
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
                w = wall.basis_columns()[rng.randrange(wall.dim)]
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
            f2.append(Matrix.row_vector(sheaf.field, list(triv.f[i - 1].row(0)) + zeros))
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
                     MeridianWord.generator(b) ** -1 * geom.longitudes[s]]
            for loop in loops:
                lam_t, mu_t, cord_t = pure_cord_trace(sheaf, s, loop)
                assert lam_t == induced.lam[s - 1]
                assert mu_t == induced.mu[s - 1]
                eye = Matrix.identity(sheaf.field, sheaf.N)
                direct = (triv.f[b - 1] * (sheaf.transport(loop)
                          * ((eye - sheaf.M[b - 1]) * triv.finv[b - 1])))[0, 0]
                assert cord_t == direct


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
