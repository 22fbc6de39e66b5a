"""The wire decoder: one parser from scalar strings to canonical values, and
round trips of every document type through to_json and from_json."""

import random
from fractions import Fraction

import pytest

from cordsheaf.braid import BraidWord, BudgetExceededError, component_map
from cordsheaf.cordaug import AugCandidate
from cordsheaf.correspondence import aug_to_sheaf, extend_by_constant
from cordsheaf.field import FieldSpec, WireFormatError
from cordsheaf.linalg import Matrix, Subspace
from cordsheaf.moduli import enumerate_augs
from cordsheaf.sheafmodel import MAX_SHEAF_SIZE, SheafData

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)
QQ = FieldSpec.rationals()
FIELDS = [F2, F3, F5, F7, QQ]


def reference_value(field, text):
    """The scalar parser as written on Scalars: Fraction arithmetic, then
    FieldSpec.scalar."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        return field.scalar(Fraction(int(num), int(den))).value
    return field.scalar(int(text)).value


TEXTS = ["0", "1", "4", "5", "7", "12", "-1", "-7", "-12", " 3 ", "+2", "1/2", "-3/4",
         "7/3", "10/4", "6/9", "0/7", "-14/21", "5/5", "3/-6", "1/0", "0/0", "\t3\n",
         " 1 / 2 "]
# outside the grammar: digit-group underscores, non-ASCII digits and spaces,
# a sign apart from its digits, two slashes
NOT_SCALARS = ["", "x", "1.5", "1/2/3", "/", "2/", "1_0", "1/2_0", "\u0663", "\uff12",
               "3\u00a0", "- 3", 1, 1.0, None, True, ["1"], {"v": "1"}, b"3"]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_parse_matches_the_scalar_reference(field):
    rng = random.Random(5)
    texts = TEXTS + [f"{rng.randint(-60, 60)}/{rng.choice([-1, 1]) * rng.randint(1, 30)}"
                     for _ in range(300)]
    texts += [str(rng.randint(-10 ** 6, 10 ** 6)) for _ in range(100)]
    for text in texts:
        try:
            want = reference_value(field, text)
        except ZeroDivisionError:
            # a denominator vanishing in the field is an input error
            for parse in (field.parse, field.from_str):
                with pytest.raises(ValueError):
                    parse(text)
            continue
        got = field.parse(text)
        assert got == want and type(got) is type(want), text
        assert field.from_str(text).value == got
    for text in NOT_SCALARS:
        with pytest.raises(ValueError, match="expected (an integer or a/b|a scalar string)"):
            field.parse(text)


def _random_value(field, rng):
    if field.is_prime_field:
        return rng.randrange(field.p)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def _random_matrix(field, rng, rows, cols):
    return Matrix._from_values(field, [[_random_value(field, rng) for _ in range(cols)]
                                       for _ in range(rows)], cols=cols)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_matrix_and_subspace_roundtrip(field):
    rng = random.Random(7)
    for _ in range(60):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        m = _random_matrix(field, rng, rows, cols)
        assert Matrix.from_json(field, m.to_json(), rows, cols) == m
        sub = Subspace(field, rows, m)
        assert Subspace.from_json(field, rows, sub.to_json()) == sub
        # any spanning set decodes to its span
        assert Subspace.from_json(field, rows, m.to_json()) == sub
    for n in range(4):
        for sub in (Subspace.zero(field, n), Subspace.full(field, n)):
            assert Subspace.from_json(field, n, sub.to_json()) == sub


def test_candidate_and_sheaf_roundtrip():
    rng = random.Random(3)
    for braid, field in ((BraidWord(3, []), F3), (BraidWord(2, [1, 1, 1]), F5),
                         (BraidWord(2, [1, 1]), F3), (BraidWord(3, [1, -2, 1, -2]), F3)):
        for cand in enumerate_augs(braid, field):
            assert AugCandidate.from_json(cand.to_json()) == cand
            sheaf = aug_to_sheaf(cand, braid)
            if rng.random() < 0.2:
                sheaf = extend_by_constant(sheaf, rng.randint(1, 2))
            assert SheafData.from_json(sheaf.to_json()) == sheaf
    one = QQ.one()
    cand = AugCandidate(QQ, component_map(BraidWord(1, [])),
                        Matrix.from_rows(QQ, [[Fraction(2, 3)]]), [QQ.scalar(Fraction(-5, 2))],
                        [one - QQ.scalar(Fraction(2, 3))])
    assert AugCandidate.from_json(cand.to_json()) == cand


def test_decoder_reduces_residues_and_ignores_unknown_keys():
    doc = {"field": {"kind": "prime", "p": 5}, "n": 1, "r": 1, "component_map": [1],
           "R": [["7"]], "lambda": ["-1"], "mu": ["1/2"], "note": "ignored"}
    cand = AugCandidate.from_json(doc)
    assert cand.R.values == ((2,),)
    assert [x.value for x in cand.lam + cand.mu] == [4, 3]


def test_errors_name_the_json_path():
    doc = {"field": {"kind": "prime", "p": 5}, "n": 2, "component_map": [1, 1],
           "R": [["1", "0"], ["0", "x"]], "lambda": ["1"], "mu": ["1"]}
    with pytest.raises(WireFormatError) as err:
        AugCandidate.from_json(doc)
    assert err.value.path == "$.R[1][1]"
    assert str(err.value).startswith("$.R[1][1]: ")


ROW_ENTRIES = ["0", "4", "5", "-1", " 3 ", "+2", "007", "1/2", "2/4", "1/0", "1/5", "", "x",
               "1.5", 3, 3.0, True, None, [], "\t3\n", "1_0", "\u0663", "\uff12", b"3"]


def _parsed(field, x, path):
    """FieldSpec.parse's value of x, or the WireFormatError the decoder
    raises for it at path."""
    try:
        return field.parse(x)
    except ValueError as err:
        return WireFormatError(path, str(err))


def _same(decode, want):
    """decode() gives want, or raises a WireFormatError with want's path and
    message."""
    if not isinstance(want, WireFormatError):
        assert decode() == want
        return
    with pytest.raises(WireFormatError) as err:
        decode()
    assert (err.value.path, str(err.value)) == (want.path, str(want))


@pytest.mark.parametrize("field", [F2, F5, QQ], ids=repr)
def test_one_pass_row_parse_matches_parse(field):
    # the decoders read a row of integer strings in one pass and fall back
    # to FieldSpec.parse entry by entry; both give the same values and errors
    one = field.parse("1")
    for x in ROW_ENTRIES:
        v = _parsed(field, x, "$.R[1][0]")
        want = v if isinstance(v, WireFormatError) else \
            Matrix._from_values(field, [(one, one), (v, one)])
        _same(lambda: Matrix.from_json(field, [["1", "1"], [x, "1"]], 2, 2, "$.R"), want)

        v = _parsed(field, x, "$.W[0][0][0]")
        want = v if isinstance(v, WireFormatError) else \
            Subspace._from_values(field, 2, [(v, one)])
        _same(lambda: Subspace.from_json(field, 2, [[x], ["1"]], "$.W[0]"), want)

        doc = {"field": field.to_json(), "braid": {"n": 1, "word": []}, "N": 2,
               "M": [[["1", "0"], ["0", x]]], "W": [[["1"], ["0"]]], "deg": []}
        v = _parsed(field, x, "$.M[0][1][1]")
        want = v if isinstance(v, WireFormatError) else ((one, 0 * one), (0 * one, v))
        _same(lambda: SheafData.from_json(doc).M[0].values, want)

        doc = {"field": field.to_json(), "n": 1, "component_map": [1], "R": [["0"]],
               "lambda": [x], "mu": ["1"]}
        v = _parsed(field, x, "$.lambda[0]")
        want = WireFormatError("$.lambda[0]", "must be a unit, got 0") if v == 0 else v
        _same(lambda: AugCandidate.from_json(doc).lam[0].value, want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sheaf_data_past_the_size_cap_is_refused(n):
    # N * n = MAX_SHEAF_SIZE decodes; one dimension more is refused before
    # any matrix is read, so before their wrong shape is seen
    N = MAX_SHEAF_SIZE // n
    eye = [["1" if i == j else "0" for j in range(N)] for i in range(N)]
    doc = {"field": F5.to_json(), "braid": {"n": n, "word": []}, "N": N, "M": [eye] * n,
           "W": [[row[1:] for row in eye]] * n, "deg": []}
    assert SheafData.from_json(doc).N == N
    doc["N"] = N + 1
    with pytest.raises(BudgetExceededError, match=f"sheaf data of {(N + 1) * n} stalk "
                       f"coordinates \\(N times strands\\) exceeds the budget 128"):
        SheafData.from_json(doc)


def test_component_labels_above_the_strand_count_are_refused():
    # a label is a component of the closure, so at most n; a larger one
    # would size the component map by it
    doc = {"field": F5.to_json(), "n": 2, "component_map": [1, 10 ** 10], "R": [["0", "0"]] * 2,
           "lambda": ["1"] * 2, "mu": ["1"] * 2}
    with pytest.raises(WireFormatError, match=r"\$.component_map: expected 2 component labels "
                       r"in 1..2, got \[1, 10000000000\]"):
        AugCandidate.from_json(doc)
