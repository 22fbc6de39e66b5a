import itertools
import random
from fractions import Fraction

import pytest

from cordsheaf.braid import BraidWord, MeridianWord, component_map, geometry
from cordsheaf.cordaug import (AugCandidate, DilationParam, _carry, _kernel_inputs,
                               apply_dilation, apply_loop, canonical_form, check_relations,
                               degenerate_components, index_sets, loop_matrix,
                               passes_fast, zero_column_components,
                               zero_row_components)
from cordsheaf.field import FieldSpec, MixedFieldError
from cordsheaf.linalg import Matrix, _axpy, _identity, _inv
from cordsheaf.moduli import enumerate_augs, search_space_size

import certificate_reference as reference
from certificate_reference import SCANNED

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
QQ = FieldSpec.rationals()

UNLINK3 = BraidWord(3, [])
HOPF = BraidWord(2, [1, 1])


def unlink3_candidate(field, e12, e13, e32, e33):
    cm = component_map(UNLINK3)
    one = field.one()
    R = Matrix.from_rows(field, [[0, e12, e13], [0, 0, 0], [0, e32, e33]])
    mu3 = one - field.scalar(e33)
    return AugCandidate(field, cm, R, [one, one, one], [one, one, mu3])


GOLDEN = unlink3_candidate(F5, 1, 1, 1, 2)


def fast_verdict(cand, geom):
    """passes_fast on the raw values of a candidate, as the enumerator calls it."""
    return passes_fast(geom, [x.value for x in cand.lam], _kernel_inputs(cand))


def mu_of_strand(cand, i):
    return cand.mu[cand.components.component(i) - 1]


def meridian_operator(cand, t, exponent):
    """The n x n matrix of rho(m_t^exponent), Id -+ (coeff) R_t e_t^T: the
    reference that apply_loop's rank-one updates are compared against."""
    p = cand.field.p
    coeff = -1 if exponent == 1 else _inv(p, mu_of_strand(cand, t).value)
    units = _identity(p, cand.n)
    col = _axpy(p, units[t - 1], coeff, [row[t - 1] for row in cand.R.values])
    return Matrix._from_values(cand.field, [e[:t - 1] + (x,) + e[t:] for e, x in zip(units, col)])


def random_scalar(field, rng):
    if field.is_prime_field:
        return field.scalar(rng.randrange(field.p))
    return field.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def random_candidate(field, braid, rng, normalize=True):
    cm = component_map(braid)
    n = braid.n
    if field.is_prime_field:
        units = list(field.elements(nonzero=True))
    else:
        units = [field.scalar(Fraction(a, b)) for a in (-3, -1, 1, 2) for b in (1, 2)]
    mu = [rng.choice(units) for _ in range(cm.r)]
    lam = [rng.choice(units) for _ in range(cm.r)]
    rows = [[random_scalar(field, rng) for _ in range(n)] for _ in range(n)]
    if normalize:
        for i in range(n):
            rows[i][i] = field.one() - mu[cm.component(i + 1) - 1]
    return AugCandidate(field, cm, Matrix(field, rows), lam, mu)


def test_unit_constraints():
    cm = component_map(UNLINK3)
    with pytest.raises(ValueError):
        AugCandidate(F5, cm, Matrix.zeros(F5, 3, 3), [F5.zero()] * 3, [F5.one()] * 3)


def test_golden_candidate_passes():
    report = check_relations(GOLDEN, UNLINK3)
    assert report.ok, report.failures
    sets = index_sets(GOLDEN)
    assert sets.I_dprime == {2} and sets.J_dprime == {1}
    assert degenerate_components(GOLDEN) == []


def test_normalization_failure_reported():
    bad = AugCandidate(F5, component_map(UNLINK3),
                       Matrix.from_rows(F5, [[3, 1, 1], [0, 0, 0], [0, 1, 2]]),
                       GOLDEN.lam, GOLDEN.mu)
    report = check_relations(bad, UNLINK3)
    assert not report.ok
    assert report.failures[0]["family"] == "normalization"


def test_unknot_relations():
    braid = BraidWord(1, [])
    cm = component_map(braid)
    seen = set()
    for lam in F3.elements(nonzero=True):
        for mu in F3.elements(nonzero=True):
            cand = AugCandidate(F3, cm, Matrix(F3, [[F3.one() - mu]]), [lam], [mu])
            if check_relations(cand, braid).ok:
                seen.add((lam.value, mu.value))
    # the longitude of the unknot is trivial, so (lambda - 1)(1 - mu) = 0
    assert seen == {(1, 1), (1, 2), (2, 1)}


def test_meridian_operator_inverse_property():
    rng = random.Random(0)
    for _ in range(400):
        cand = random_candidate(F5, UNLINK3, rng)
        for t in (1, 2, 3):
            n_pos = meridian_operator(cand, t, 1)
            n_neg = meridian_operator(cand, t, -1)
            assert (n_pos * n_neg).is_identity()
            assert loop_matrix(cand, MeridianWord.generator(t)) == n_pos


def test_meridian_operator_trivial_for_zero_column():
    assert meridian_operator(GOLDEN, 1, 1).is_identity()


def test_golden_subrep_matrix():
    # operator of the third meridian restricted to the span of columns 2, 3
    n3 = meridian_operator(GOLDEN, 3, 1)
    r2, r3 = (Matrix.column(F5, GOLDEN.R.col(j)) for j in (1, 2))
    assert n3 * r2 == r2 - r3  # eps_32 = 1
    assert n3 * r3 == r3.scaled(F5.one() - F5.scalar(2))


def test_loop_matrix_multiplicative():
    rng = random.Random(1)
    for _ in range(200):
        cand = random_candidate(F5, UNLINK3, rng)
        w1 = MeridianWord([(rng.randint(1, 3), rng.choice([1, -1])) for _ in range(3)])
        w2 = MeridianWord([(rng.randint(1, 3), rng.choice([1, -1])) for _ in range(3)])
        assert loop_matrix(cand, w1 * w2) == loop_matrix(cand, w1) * loop_matrix(cand, w2)
    assert loop_matrix(GOLDEN, MeridianWord.identity()).is_identity()
    w = MeridianWord.generator(2) * MeridianWord.generator(2).inverse()
    assert loop_matrix(GOLDEN, w).is_identity()


def random_rational(rng):
    return QQ.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))


def random_rational_candidate(braid, rng):
    cm = component_map(braid)
    n = braid.n
    units = [QQ.scalar(Fraction(a, b)) for a in (-3, -1, 2, 5) for b in (1, 2, 3)]
    mu = [rng.choice(units) for _ in range(cm.r)]
    lam = [rng.choice(units) for _ in range(cm.r)]
    rows = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][i] = QQ.one() - mu[cm.component(i + 1) - 1]
    return AugCandidate(QQ, cm, Matrix(QQ, rows), lam, mu)


def test_apply_loop_matches_operator_product():
    # reference: the ordered product of meridian operators, times X
    rng = random.Random(7)
    for field in (F5, QQ):
        for braid in (UNLINK3, BraidWord(3, [1, -2, 1, -2]), HOPF):
            n = braid.n
            for _ in range(60):
                if field == QQ:
                    cand = random_rational_candidate(braid, rng)
                    value = lambda: random_rational(rng)
                else:
                    cand = random_candidate(field, braid, rng)
                    value = lambda: field.scalar(rng.randrange(field.p))
                letters = [(rng.randint(1, n), rng.choice([1, -1]))
                           for _ in range(rng.randint(0, 6))]
                cols = rng.randint(1, 4)
                X = Matrix(field, [[value() for _ in range(cols)] for _ in range(n)])
                want = Matrix.identity(field, n)
                for t, e in letters:
                    want = want * meridian_operator(cand, t, e)
                want = want * X
                assert apply_loop(cand, MeridianWord(letters), X) == want
                assert reference.loop_product(cand, MeridianWord(letters), X) == want
    empty = apply_loop(GOLDEN, MeridianWord([(1, 1), (3, -1)]), Matrix.zeros(F5, 3, 0))
    assert (empty.rows, empty.cols) == (3, 0)
    with pytest.raises(MixedFieldError):
        apply_loop(GOLDEN, MeridianWord.generator(3), Matrix.identity(F3, 3))


def test_carry_reads_rows_and_columns_of_the_full_product():
    # E_t R = R (Id + c e_t R_t.) for each update E_t = Id + c R_.t e_t^T, so
    # row i of loop_matrix(w) @ R is row i of R carried forward through w by
    # R's rows, and column j is column j of R carried back by R's columns
    rng = random.Random(17)
    changed = 0
    for field in (F2, F5, QQ):
        for braid in (UNLINK3, HOPF, BraidWord(3, [1, -2, 1, -2]), BraidWord(4, [1, -2, 3])):
            n = braid.n
            for k in range(40):
                cand = random_candidate(field, braid, rng, normalize=k % 2 == 0)
                p, rows, minv = _kernel_inputs(cand)
                cols = list(zip(*rows))
                word = MeridianWord([(rng.randint(1, n), rng.choice([1, -1]))
                                     for _ in range(rng.randint(0, 8))])
                full = apply_loop(cand, word, cand.R).values
                for i in range(n):
                    assert tuple(_carry(p, rows, minv, word.letters, rows[i])) == full[i]
                    assert (tuple(_carry(p, cols, minv, reversed(word.letters), cols[i]))
                            == tuple(row[i] for row in full))
                changed += full != rows
    assert changed >= 300


def test_loops_reject_strands_above_n_and_misshaped_x():
    # strand 4 of a 3-strand candidate, and X with 4 rows, used to pass
    # silently; strand 0 never reaches here (MeridianWord rejects it)
    with pytest.raises(ValueError, match="strand 4, but there are only 3"):
        loop_matrix(GOLDEN, MeridianWord.generator(4))
    with pytest.raises(ValueError, match="strand 4, but there are only 3"):
        apply_loop(GOLDEN, MeridianWord([(1, 1), (4, -1)]), GOLDEN.R)
    with pytest.raises(ValueError, match="X has 4 rows, not the candidate's 3"):
        apply_loop(GOLDEN, MeridianWord.generator(1), Matrix.identity(F5, 4))
    with pytest.raises(ValueError, match="X has 2 rows"):
        apply_loop(GOLDEN, MeridianWord.identity(), Matrix.zeros(F5, 2, 3))
    with pytest.raises(ValueError, match="is not"):
        loop_matrix(GOLDEN, MeridianWord([(0, 1)]))


def test_eval_broken_cord_examples():
    # the cord from strand i through a based loop to strand j has the value
    # at (i, j) of the loop's operator applied to R
    def cord(i, word, j):
        return apply_loop(GOLDEN, word, GOLDEN.R)[i - 1, j - 1]

    assert cord(1, MeridianWord.identity(), 2) == GOLDEN.entry(1, 2)
    mu3 = GOLDEN.mu[2]
    assert cord(3, MeridianWord.generator(3), 3) == mu3 * (F5.one() - mu3)
    # eps_12 - eps_13*eps_32 = 1 - 1 = 0
    assert cord(1, MeridianWord.generator(3), 2) == F5.zero()


def test_meridian_and_skein_families_are_identities():
    # with the diagonal forced from mu, the meridian and skein families hold
    # for arbitrary off-diagonal entries; this justifies the certificate not
    # evaluating them
    rng = random.Random(2)
    for field in (F3, F5, QQ):
        for _ in range(200):
            cand = random_candidate(field, UNLINK3, rng)
            R = cand.R
            for t in (1, 2, 3):
                inserted = loop_matrix(cand, MeridianWord.generator(t)) * R
                for i in range(1, 4):
                    for j in range(1, 4):
                        # skein
                        want = cand.entry(i, j)
                        got = inserted[i - 1, j - 1] + cand.entry(i, t) * cand.entry(t, j)
                        assert want == got
                        # meridian relations of m_t, on row t and on column t
                        mu_t = mu_of_strand(cand, t)
                        assert inserted[t - 1, j - 1] == mu_t * cand.entry(t, j)
                        assert inserted[i - 1, t - 1] == cand.entry(i, t) * mu_t


def test_fast_path_equals_full_check():
    # the figure-eight on 3 strands has multi-letter segments and nontrivial
    # Wirtinger words on every strand
    for braid, field in ((HOPF, F3), (BraidWord(2, []), F3),
                         (BraidWord(2, [1, 1, 1]), F3), (HOPF, F2),
                         (BraidWord(3, [1, -2, 1, -2]), F3)):
        cm = component_map(braid)
        geom = geometry(braid)
        units = list(field.elements(nonzero=True))
        everything = list(field.elements())
        n = braid.n
        fast_set, full_set = set(), set()
        for mu in itertools.product(units, repeat=cm.r):
            for lam in itertools.product(units, repeat=cm.r):
                off = [(i, j) for i in range(n) for j in range(n) if i != j]
                for vals in itertools.product(everything, repeat=len(off)):
                    rows = [[None] * n for _ in range(n)]
                    for i in range(n):
                        rows[i][i] = field.one() - mu[cm.component(i + 1) - 1]
                    for (i, j), v in zip(off, vals):
                        rows[i][j] = v
                    cand = AugCandidate(field, cm, Matrix(field, rows), lam, mu)
                    key = (cand.R, cand.lam, cand.mu)
                    if fast_verdict(cand, geom):
                        fast_set.add(key)
                    if check_relations(cand, braid).ok:
                        full_set.add(key)
        assert fast_set == full_set


def test_rational_candidates_checked():
    # the worked unlink-3 shape with rational entries is an augmentation;
    # with lambda_3 = 2/3 the marked strand 3 breaks transport and longitude
    R = Matrix.from_rows(QQ, [[0, Fraction(1, 2), 3], [0, 0, 0],
                              [0, Fraction(-2, 3), Fraction(5, 2)]])
    one = QQ.one()
    mu = [one, one, QQ.scalar(Fraction(-3, 2))]
    good = AugCandidate(QQ, component_map(UNLINK3), R, [one] * 3, mu)
    assert check_relations(good, UNLINK3).ok
    assert fast_verdict(good, geometry(UNLINK3))
    bad = AugCandidate(QQ, component_map(UNLINK3), R,
                       [one, one, QQ.scalar(Fraction(2, 3))], mu)
    assert not fast_verdict(bad, geometry(UNLINK3))
    assert check_relations(bad, UNLINK3).failures == [
        {"family": "transport-row", "location": "strand 3 -> 3, col 2",
         "expected": "-2/3", "got": "-1"},
        {"family": "transport-row", "location": "strand 3 -> 3, col 3",
         "expected": "5/2", "got": "15/4"},
        {"family": "transport-col", "location": "strand 3 -> 3, row 1",
         "expected": "2", "got": "3"},
        {"family": "transport-col", "location": "strand 3 -> 3, row 3",
         "expected": "5/3", "got": "5/2"},
        {"family": "longitude-left", "location": "(l_3; 3,2)",
         "expected": "-4/9", "got": "-2/3"},
        {"family": "longitude-left", "location": "(l_3; 3,3)",
         "expected": "5/3", "got": "5/2"},
        {"family": "longitude-right", "location": "(1,3; l_3)",
         "expected": "2", "got": "3"},
        {"family": "longitude-right", "location": "(3,3; l_3)",
         "expected": "5/3", "got": "5/2"},
    ]


def test_failure_report_format():
    # Hopf link over F5 with lambda = 3 on both components: strands 1 and 2
    # are both marked, so transport-row reports lambda^-1 * got (raw got is
    # 3 * 4 = 2 on strand 1), and the Wirtinger entries carry matrix JSON
    cm = component_map(HOPF)
    cand = AugCandidate(F5, cm, Matrix.from_rows(F5, [[2, 1], [1, 2]]),
                        [F5.scalar(3)] * 2, [F5.scalar(4)] * 2)
    assert check_relations(cand, HOPF).failures == [
        {"family": "transport-row", "location": "strand 1 -> 1, col 2",
         "expected": "1", "got": "4"},
        {"family": "transport-col", "location": "strand 1 -> 1, row 2",
         "expected": "3", "got": "2"},
        {"family": "transport-row", "location": "strand 2 -> 2, col 1",
         "expected": "1", "got": "3"},
        {"family": "transport-col", "location": "strand 2 -> 2, row 1",
         "expected": "3", "got": "4"},
        {"family": "wirtinger", "location": "m_1",
         "expected": "[['3', '4'], ['4', '1']]", "got": "[['1', '4'], ['4', '3']]"},
        {"family": "wirtinger", "location": "m_2",
         "expected": "[['1', '4'], ['4', '3']]", "got": "[['1', '2'], ['2', '1']]"},
        {"family": "longitude-left", "location": "(l_1; 1,2)",
         "expected": "3", "got": "2"},
        {"family": "longitude-right", "location": "(2,1; l_1)",
         "expected": "3", "got": "2"},
        {"family": "longitude-left", "location": "(l_2; 2,1)",
         "expected": "3", "got": "4"},
        {"family": "longitude-right", "location": "(1,2; l_2)",
         "expected": "3", "got": "4"},
    ]


def test_dilation_action():
    d = DilationParam([F5.one(), F5.scalar(2), F5.scalar(3)])
    dilated = apply_dilation(GOLDEN, d)
    D = Matrix.from_rows(F5, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert dilated.R == D * GOLDEN.R * D.inverse()
    assert dilated.lam == GOLDEN.lam and dilated.mu == GOLDEN.mu
    assert check_relations(dilated, UNLINK3).ok
    # diagonal entries never move
    for i in range(1, 4):
        assert dilated.entry(i, i) == GOLDEN.entry(i, i)


def test_dilation_group_law():
    rng = random.Random(3)
    units = list(F5.elements(nonzero=True))
    for _ in range(300):
        cand = random_candidate(F5, UNLINK3, rng)
        d1 = DilationParam([rng.choice(units) for _ in range(3)])
        d2 = DilationParam([rng.choice(units) for _ in range(3)])
        lhs = apply_dilation(apply_dilation(cand, d1), d2)
        prod = DilationParam([a * b for a, b in zip(d1.d, d2.d)])
        assert lhs.R == apply_dilation(cand, prod).R


def test_canonical_form_idempotent_and_orbit_constant():
    units = list(F5.elements(nonzero=True))
    canon, witness = canonical_form(GOLDEN)
    assert witness.reduced
    again, _ = canonical_form(canon)
    assert again == canon
    # the whole reduced-dilation orbit lands on one representative
    reps = set()
    for d2 in units:
        for d3 in units:
            d = DilationParam([F5.one(), d2, d3])
            moved = apply_dilation(GOLDEN, d)
            rep, _ = canonical_form(moved)
            reps.add((rep.R, rep.lam, rep.mu))
    assert len(reps) == 1


def test_canonical_form_chain_linked_components():
    # orbit where component 2 touches only component 3, which touches 1:
    # the spanning-forest pinning must normalize both mixed entries
    cm = component_map(UNLINK3)
    one, zero = F3.one(), F3.zero()
    R = Matrix.from_rows(F3, [[0, 0, 0], [0, 0, 1], [1, 0, 0]])
    base = AugCandidate(F3, cm, R, [one] * 3, [one] * 3)
    assert check_relations(base, UNLINK3).ok
    reps = set()
    units = list(F3.elements(nonzero=True))
    for d2 in units:
        for d3 in units:
            moved = apply_dilation(base, DilationParam([one, d2, d3]))
            rep, _ = canonical_form(moved)
            reps.add((rep.R, rep.lam, rep.mu))
    assert len(reps) == 1


def test_row_column_vanishing_propagates_along_components():
    # on a knot braid every valid candidate has R = 0 as soon as one row
    # vanishes, matching the equivalences for cords of one component
    braid = BraidWord(2, [1, 1, 1])
    cm = component_map(braid)
    rng = random.Random(4)
    geom = geometry(braid)
    found = 0
    for _ in range(4000):
        cand = random_candidate(F3, braid, rng)
        if not fast_verdict(cand, geom):
            continue
        found += 1
        rows_zero = [all(x.is_zero() for x in cand.R.row(i)) for i in range(2)]
        cols_zero = [all(x.is_zero() for x in cand.R.col(j)) for j in range(2)]
        assert rows_zero[0] == rows_zero[1]
        assert cols_zero[0] == cols_zero[1]
    assert found > 0


def test_degenerate_component_note():
    cm = component_map(UNLINK3)
    one = F3.one()
    cand = AugCandidate(F3, cm, Matrix.zeros(F3, 3, 3),
                        [F3.scalar(2), one, one], [one, one, one])
    report = check_relations(cand, UNLINK3)
    assert report.ok
    assert degenerate_components(cand) == [1, 2, 3]
    assert any("degenerate" in note for note in report.notes)


def test_one_sided_components():
    # the worked example: row 2 is zero with column 2 = (1, 0, 1), and
    # column 1 is zero with row 1 nonzero
    assert zero_row_components(GOLDEN) == [2]
    assert zero_column_components(GOLDEN) == [1]
    # a degenerate component is neither
    cm = component_map(UNLINK3)
    one = F3.one()
    R = Matrix.from_rows(F3, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    cand = AugCandidate(F3, cm, R, [one] * 3, [one] * 3)
    assert degenerate_components(cand) == [1]
    assert zero_row_components(cand) == [3]
    assert zero_column_components(cand) == [2]


def test_candidate_json_roundtrip():
    data = GOLDEN.to_json()
    again = AugCandidate.from_json(data)
    assert again == GOLDEN


def test_full_and_fast_certificates_report_the_same_failures():
    # both values of full, which perfbench still passes, give the same report
    rng = random.Random(11)
    accepted = rejected = 0
    for braid in (HOPF, UNLINK3, BraidWord(2, [1, 1, 1]), BraidWord(3, [1, -2, 1, -2]),
                  BraidWord(2, [1, 1, 1, 1]), BraidWord(3, [1, 1, 2])):
        for field in (F3, F5):
            cands = [random_candidate(field, braid, rng, normalize=k % 2 == 0)
                     for k in range(100)]
            if field == F3:
                points = enumerate_augs(braid, field)
                cands += rng.sample(points, min(20, len(points)))
            for cand in cands:
                full = check_relations(cand, braid)
                fast = check_relations(cand, braid, full=False)
                assert full.to_json() == fast.to_json()
                accepted += full.ok
                rejected += not full.ok
    assert accepted >= 100 and rejected >= 1000


def test_longitude_families_match_the_reference_on_every_component():
    # check_relations itemizes the longitude families only when a transport
    # or Wirtinger item failed: a longitude is its cycle's segments in a row,
    # so the transport identities imply its identities.  The reference
    # evaluates them on every candidate, accepted ones included, and on
    # components of one strand and of several
    rng = random.Random(13)
    accepted = rejected = itemized = 0
    for braid, field in ((UNLINK3, F2), (BraidWord(2, []), F5), (BraidWord(3, [1, 1, 2]), F3),
                         (BraidWord(2, [1, 1, 1]), F5), (HOPF, F3), (BraidWord(3, [1, -2, 1, -2]), F3),
                         (BraidWord(4, [1, 2, 3]), F2)):
        cands = [random_candidate(field, braid, rng) for _ in range(60)]
        points = enumerate_augs(braid, field)
        cands += rng.sample(points, min(15, len(points)))
        for cand in cands:
            report = check_relations(cand, braid)
            got = [f for f in report.failures if f["family"].startswith("longitude")]
            assert got == reference.items(cand, braid, ("longitude-left", "longitude-right"))
            accepted += report.ok
            rejected += not report.ok
            itemized += bool(got)
    assert accepted >= 80 and rejected >= 200 and itemized >= 100


# every braid the full scan covers, then longer words and words with inverse
# letters: (s1 s2^-1)^3, a 4-strand knot, knots with an empty segment, and a
# 4-strand link
REFERENCE_BRAIDS = list(dict.fromkeys(b for b, _ in SCANNED)) + [
    BraidWord(3, [1, -2] * 3), BraidWord(4, [1, -2, 3] * 3), BraidWord(3, [-1, -2, -1, 2]),
    BraidWord(2, [-1, -1, -1]), BraidWord(4, [1, -2, 1, -2, -3, -3])]
CERTIFIED = ("transport-row", "transport-col", "wirtinger")


@pytest.mark.parametrize("braid", REFERENCE_BRAIDS,
                         ids=[f"{list(b.word)}/{b.n}" for b in REFERENCE_BRAIDS])
def test_transport_family_matches_the_full_product_reference(braid):
    # check_relations's transport and Wirtinger items, in order, and
    # passes_fast's verdict, against products of the whole segment operator
    # with R; candidates are random (some not normalized), enumerated, and
    # enumerated with one off-diagonal entry moved
    rng = random.Random(f"{list(braid.word)}/{braid.n}")
    geom = geometry(braid)
    n = braid.n
    small = F3 if search_space_size(braid, F3) <= 3000 else F2
    points = enumerate_augs(braid, small)
    cands = rng.sample(points, min(10, len(points)))
    for cand in rng.sample(points, min(10, len(points))):
        if n > 1:
            i, j = rng.sample(range(n), 2)
            rows = [list(row) for row in cand.R.values]
            rows[i][j] = (rows[i][j] + rng.randrange(1, small.p)) % small.p
            cands.append(AugCandidate(small, cand.components, Matrix._from_values(small, rows),
                                      cand.lam, cand.mu))
    for field in (F2, F5, QQ):
        cands += [random_candidate(field, braid, rng, normalize=k % 8 != 0) for k in range(16)]
    passed = itemized = 0
    for cand in cands:
        report = check_relations(cand, braid)
        got = [f for f in report.failures if f["family"] in CERTIFIED]
        assert got == reference.items(cand, braid, CERTIFIED), cand.to_json()
        if not (report.failures and report.failures[0]["family"] == "normalization"):
            assert fast_verdict(cand, geom) == (not got), cand.to_json()
        passed += report.ok
        itemized += bool(got)
    assert passed >= min(10, len(points)) and itemized >= 20


def test_candidate_parts_over_another_field_are_refused():
    cm, one = component_map(UNLINK3), F5.one()
    R3 = Matrix.from_rows(F3, [[0, 1, 1], [0, 0, 0], [0, 1, 2]])
    with pytest.raises(MixedFieldError, match="candidate part over F3 used over F5"):
        AugCandidate(F5, cm, R3, [one] * 3, [one, one, F5.scalar(4)])
    with pytest.raises(MixedFieldError):
        AugCandidate(F5, cm, GOLDEN.R, [one, F3.one(), one], [one, one, F5.scalar(4)])


def test_dilation_over_another_field_is_refused():
    with pytest.raises(MixedFieldError, match="dilation parameter over F3 used over F5"):
        apply_dilation(GOLDEN, DilationParam([F3.one(), F3.scalar(2), F3.one()]))
