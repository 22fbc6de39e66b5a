import random
import re
from fractions import Fraction

import pytest

from cordsheaf.braid import (MAX_LETTERS, BraidGeometry, BraidWord, BudgetExceededError,
                             MeridianWord, NonMonotoneComponentsError, component_map,
                             permutation, relabel_for_components)

from braid_reference import (artin_action, exponent_sums, longitude_word, power, segment_word,
                             wirtinger_relations)

HOPF = BraidWord(2, [1, 1])
TREFOIL = BraidWord(2, [1, 1, 1])
UNLINK3 = BraidWord(3, [])


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(2, [2])
    with pytest.raises(ValueError):
        BraidWord(1, [1])
    with pytest.raises(ValueError):
        BraidWord(0, [])
    assert BraidWord.parse(2, "1 -1 1").word == (1, -1, 1)
    assert BraidWord.parse(3, "").word == ()



@pytest.mark.parametrize("letter", [1.9, "1", True], ids=["float", "str", "bool"])
def test_braid_letters_must_be_ints(letter):
    # int() would read each of these as the letter 1
    n = 3 if letter is True else 2
    with pytest.raises(ValueError, match=f"letter {letter!r} is not an int"):
        BraidWord(n, [letter])


@pytest.mark.parametrize("n, word", [(2.0, [1]), (True, [])], ids=["float", "bool"])
def test_braid_strand_count_must_be_an_int(n, word):
    # 2.0 would build and fail later in geometry; True would serialize as true
    with pytest.raises(ValueError, match=f"strand count {n!r} is not an int"):
        BraidWord(n, word)


def test_permutation_examples():
    assert permutation(HOPF) == (1, 2)
    assert permutation(TREFOIL) == (2, 1)
    assert permutation(UNLINK3) == (1, 2, 3)


def test_permutation_composition():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(2, 5)
        w1 = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 5))]
        w2 = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 5))]
        t1, t2 = permutation(BraidWord(n, w1)), permutation(BraidWord(n, w2))
        t12 = permutation(BraidWord(n, w1 + w2))
        assert t12 == tuple(t2[t1[i] - 1] for i in range(n))


def test_component_map_examples():
    cm = component_map(UNLINK3)
    assert cm.r == 3 and cm.labels == (1, 2, 3)
    cm = component_map(HOPF)
    assert cm.r == 2 and cm.labels == (1, 2)
    cm = component_map(TREFOIL)
    assert cm.r == 1 and cm.labels == (1, 1) and cm.base_strand(1) == 1


def test_component_map_monotonicity():
    # closure of sigma_2^2 in Br_3 interleaves nothing, but a crafted braid
    # with cycles {1,3},{2} must be rejected and then fixed by relabeling
    bad = BraidWord(3, [1, 2, 1, 2, 1, 2])  # full twist squared-ish; check cycles first
    try:
        component_map(bad)
    except NonMonotoneComponentsError:
        fixed, pi = relabel_for_components(bad)
        component_map(fixed)
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randint(2, 5)
        word = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 8))]
        braid = BraidWord(n, word)
        try:
            component_map(braid)
        except NonMonotoneComponentsError:
            fixed, pi = relabel_for_components(braid)
            cm = component_map(fixed)  # must not raise
            assert sorted(pi) == list(range(1, n + 1))


def test_artin_examples():
    b = BraidWord(2, [1])
    m1, m2 = MeridianWord.generator(1), MeridianWord.generator(2)
    assert artin_action(b, m1) == MeridianWord([(1, 1), (2, 1), (1, -1)])
    assert artin_action(b, m2) == m1


def test_artin_inverse_roundtrip():
    rng = random.Random(2)
    for _ in range(600):
        n = rng.randint(2, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 6))]
        braid = BraidWord(n, word)
        w = MeridianWord([(rng.randint(1, n), rng.choice([1, -1]))
                          for _ in range(rng.randint(0, 5))])
        assert artin_action(braid.inverse(), artin_action(braid, w)) == w


def test_wirtinger_examples():
    rels = wirtinger_relations(UNLINK3)
    assert all(lhs == rhs for lhs, rhs in rels)
    rels = wirtinger_relations(HOPF)
    m1, m2 = MeridianWord.generator(1), MeridianWord.generator(2)
    assert rels[0] == (m1, MeridianWord([(1, 1), (2, 1), (1, 1), (2, -1), (1, -1)]))
    assert rels[1] == (m2, MeridianWord([(1, 1), (2, 1), (1, -1)]))
    rels = wirtinger_relations(BraidWord(2, [1]))
    assert rels[0] == (m1, MeridianWord([(1, 1), (2, 1), (1, -1)]))
    assert rels[1] == (m2, m1)


def test_longitude_unlinks_trivial():
    for s in (1, 2, 3):
        assert longitude_word(UNLINK3, s).is_identity()
    assert longitude_word(BraidWord(1, []), 1).is_identity()


def test_longitude_unknot_stabilized():
    # the closures of sigma_1^{+-1} are unknots; their zero-framed longitudes
    # must be trivial in the link group (here even freely for the positive one)
    assert longitude_word(BraidWord(2, [1]), 1).is_identity()
    neg = longitude_word(BraidWord(2, [-1]), 1)
    assert exponent_sums(neg, 2) in ([1, -1], [-1, 1])


def test_longitude_hopf():
    # one mixed under-crossing and no self-crossings: the longitude of each
    # component is conjugate to the other component's meridian, with total
    # exponent of absolute value 1 and zero self-linking
    l1 = longitude_word(HOPF, 1)
    sums = exponent_sums(l1, 2)
    assert sums[0] == 0 and abs(sums[1]) == 1
    l2 = longitude_word(HOPF, 2)
    sums = exponent_sums(l2, 2)
    assert abs(sums[0]) == 1 and sums[1] == 0


def test_longitude_zero_framing_random():
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(1, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, n - 1)
                for _ in range(rng.randint(0, 7))] if n > 1 else []
        braid = BraidWord(n, word)
        try:
            cm = component_map(braid)
        except NonMonotoneComponentsError:
            braid, _ = relabel_for_components(braid)
            cm = component_map(braid)
        for s in range(1, cm.r + 1):
            sums = exponent_sums(longitude_word(braid, s), n)
            assert sum(sums[i - 1] for i in cm.strands[s - 1]) == 0


def test_longitude_is_full_segment_cycle():
    for braid in (HOPF, TREFOIL, BraidWord(3, [1, 1, 2])):
        cm = component_map(braid)
        tau = permutation(braid)
        for s in range(1, cm.r + 1):
            b = cm.base_strand(s)
            word = MeridianWord.identity()
            i = b
            while True:
                word = word * segment_word(braid, i)
                i = tau[i - 1]
                if i == b:
                    break
            assert word == longitude_word(braid, s)


# -- matrix-representation checks: the longitude must commute with the base
# meridian in the group presented by the Wirtinger relations -----------------


def _mat_rep_eval(word, mats):
    out = tuple(tuple(Fraction(1 if i == j else 0) for j in range(2)) for i in range(2))

    def mul(X, Y):
        return tuple(tuple(sum(X[i][k] * Y[k][j] for k in range(2)) for j in range(2))
                     for i in range(2))

    def inv(X):
        d = X[0][0] * X[1][1] - X[0][1] * X[1][0]
        return ((X[1][1] / d, -X[0][1] / d), (-X[1][0] / d, X[0][0] / d))

    for s, e in word.letters:
        out = mul(out, mats[s - 1] if e == 1 else inv(mats[s - 1]))
    return out


def test_trefoil_longitude_peripheral():
    A = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    B = ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(1)))
    mats = (A, B)
    for lhs, rhs in wirtinger_relations(TREFOIL):
        assert _mat_rep_eval(lhs, mats) == _mat_rep_eval(rhs, mats)
    L = _mat_rep_eval(longitude_word(TREFOIL, 1), mats)
    MA = _mat_rep_eval(MeridianWord.generator(1), mats)

    def mul(X, Y):
        return tuple(tuple(sum(X[i][k] * Y[k][j] for k in range(2)) for j in range(2))
                     for i in range(2))

    assert mul(L, MA) == mul(MA, L)
    assert L != _mat_rep_eval(MeridianWord.identity(), mats)


def test_meridian_word_reduction():
    w = MeridianWord([(1, 1), (2, 1), (2, -1), (1, -1), (1, 1)])
    assert w == MeridianWord.generator(1)
    assert (w * w.inverse()).is_identity()
    assert power(MeridianWord.generator(1), -3) == MeridianWord([(1, -1)] * 3)


@pytest.mark.parametrize("letter", [(0, 1), (-1, 1), (1.5, 1), (True, 1), (1, 2), (1, 0),
                                    (1, True), (1, -1.0), ("1", 1)])
def test_meridian_word_rejects_bad_letters(letter):
    # strand 0 or a negative strand would index from the end downstream
    with pytest.raises(ValueError, match=re.escape(repr(letter))):
        MeridianWord([(1, 1), letter])
    if letter[0] != 1:
        with pytest.raises(ValueError, match="is not"):
            MeridianWord.generator(letter[0])


def test_meridian_word_checks_its_strands():
    w = MeridianWord([(2, 1), (3, -1)])
    w.check_strands(3)
    with pytest.raises(ValueError, match="strand 3, but there are only 2"):
        w.check_strands(2)
    MeridianWord.identity().check_strands(1)


def test_long_words_share_their_letters():
    # a reduced word holds one tuple object per letter value, at most 2n
    geom = BraidGeometry(BraidWord(3, [1, -2] * 8))
    words = [*geom.transported, *geom.segments.values(), *geom.longitudes.values()]
    assert max(map(len, words)) > 2000
    for w in words:
        assert len({id(letter) for letter in w.letters}) <= 2 * 3
    w = MeridianWord([[1, 1], [2, -1]] * 500)
    assert w.letters == ((1, 1), (2, -1)) * 500
    assert len({id(letter) for letter in w.inverse().letters}) == 2


def test_geometry_letter_cap():
    # (s1 s2^-1)^12 expands to 300 099 letters of transported meridians and
    # 150 048 of segment contributions, under the cap; 32 crossings of it
    # would hold about 20 million
    geom = BraidGeometry(BraidWord(3, [1, -2] * 12))
    assert sum(map(len, geom.transported)) == 300099
    with pytest.raises(BudgetExceededError, match="letters exceeds the budget"):
        BraidGeometry(BraidWord(3, [1, -2] * 16))
    # the geometry holds a letter per strand before any crossing, so an empty
    # word on more strands than the cap is refused before anything is built
    with pytest.raises(BudgetExceededError, match=f"of {MAX_LETTERS + 1} letters exceeds"):
        BraidGeometry(BraidWord(MAX_LETTERS + 1, []))


# -- every word against one pairwise product at a time ------------------------------


def _fold(words):
    out = MeridianWord.identity()
    for w in words:
        out = out * w
    return out


def _folded_geometry(braid):
    """Transported words, segments and longitudes, built one product at a time."""
    geom = BraidGeometry(braid)
    comps, n = geom.components, braid.n
    theta = [MeridianWord.generator(i) for i in range(1, n + 1)]
    occupant = list(range(1, n + 1))
    contributions = {i: [] for i in range(1, n + 1)}
    writhe = [0] * comps.r
    for g in braid.word:
        k = abs(g) - 1
        over, under = (k, k + 1) if g > 0 else (k + 1, k)
        over_strand, under_strand = occupant[over], occupant[under]
        contributions[under_strand].append(theta[over].inverse() if g > 0 else theta[over])
        if comps.component(under_strand) == comps.component(over_strand):
            writhe[comps.component(under_strand) - 1] += 1 if g > 0 else -1
        a, b = theta[k], theta[k + 1]
        theta[k], theta[k + 1] = (a * b * a.inverse(), a) if g > 0 else (b, b.inverse() * a * b)
        occupant[k], occupant[k + 1] = occupant[k + 1], occupant[k]
    segments = {}
    for i in range(1, n + 1):
        seg = _fold(contributions[i])
        s = comps.component(i)
        if i == comps.base_strand(s):
            w = writhe[s - 1]
            seg = _fold([MeridianWord.generator(i, 1 if w > 0 else -1)] * abs(w)) * seg
        segments[i] = seg
    longitudes = {}
    for s in range(1, comps.r + 1):
        b = i = comps.base_strand(s)
        walk = []
        while True:
            walk.append(segments[i])
            i = geom.tau[i - 1]
            if i == b:
                break
        longitudes[s] = _fold(walk)
    return tuple(theta), tuple(writhe), segments, longitudes


def test_words_equal_the_pairwise_product_fold():
    rng = random.Random(14)
    for _ in range(400):
        n = rng.randint(1, 5)
        word = [rng.choice([1, -1]) * rng.randint(1, n - 1)
                for _ in range(rng.randint(0, 9))] if n > 1 else []
        braid = BraidWord(n, word)
        geom = BraidGeometry(braid)
        assert (geom.transported, geom.writhe, geom.segments, geom.longitudes) \
            == _folded_geometry(braid)
        w = MeridianWord([(rng.randint(1, n), rng.choice([1, -1]))
                          for _ in range(rng.randint(0, 6))])
        images = geom.transported
        assert artin_action(braid, w) == _fold(
            images[s - 1] if e == 1 else images[s - 1].inverse() for s, e in w.letters)
        for k in range(-3, 4):
            assert power(w, k) == _fold([w if k >= 0 else w.inverse()] * abs(k))
