"""Fuzzing the wire codec: mutated golden documents through every decoder
and through the `sheaf` and `to-aug` verbs.

The seed documents are augmentations the enumerator finds, as in
test_golden, and the sheaves built from them, one with constant directions
added.  A mutant drops keys, swaps the type of a value, perturbs a number,
nests a value deeply or inflates a dimension.  Whatever the mutant, every
decoder returns or raises an input error (a ValueError) or
BudgetExceededError, and the verb that reads its kind of document, `sheaf`
or `to-aug`, exits 0, 2 or 3 without a traceback.  Whatever is accepted
re-encodes to a stable form.  The mutations come from
stdlib random with fixed seeds, so a failure reproduces.
"""

import copy
import io
import json
import random

import pytest

from cordsheaf.braid import BraidWord, BudgetExceededError
from cordsheaf.cli import main
from cordsheaf.cordaug import AugCandidate
from cordsheaf.correspondence import aug_to_sheaf, extend_by_constant
from cordsheaf.field import FieldSpec
from cordsheaf.linalg import Matrix, Subspace
from cordsheaf.moduli import enumerate_augs
from cordsheaf.sheafmodel import MAX_SHEAF_SIZE, SheafData

INSTANCES = [("trefoil", BraidWord(2, [1, 1, 1]), 5), ("hopf", BraidWord(2, [1, 1]), 3),
             ("3-unlink", BraidWord(3, []), 2),
             ("figure-eight", BraidWord(3, [1, -2, 1, -2]), 3)]
MUTANTS = 25  # per seed document

ODD_VALUES = [None, True, False, 0, -1, 7, 2 ** 64, 1.5, -0.0, 1e308, "", "x", "1", "1/0",
              "٣", [], {}, [[]], [["1"]], {"kind": "prime"}, {"n": 1, "word": []}]
_MARK = "\x00nest\x00"


def _seeds(braid, p):
    """Two augmentation documents of the instance and three sheaf documents."""
    field = FieldSpec.prime(p)
    cands = enumerate_augs(braid, field)
    picked = [cands[0], cands[len(cands) // 2], cands[-1]]
    sheaves = [aug_to_sheaf(cand, braid) for cand in picked]
    sheaves[0] = extend_by_constant(sheaves[0], 1)
    return [c.to_json() for c in picked[1:]] + [s.to_json() for s in sheaves]


def _slots(node):
    """Every (container, key) below node, outermost first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, value in items:
        yield node, key
        yield from _slots(value)


def _perturbed(value, rng):
    if type(value) is int:
        return rng.choice([value + 1, value - 1, -value, 0, value * 10 ** rng.randint(1, 40)])
    try:
        v = int(value)
    except ValueError:
        return value + rng.choice(["0", "/", "/0", "x"])
    return rng.choice([str(v + 1), str(-v), f"{v}/0", f"{v}/{rng.randint(2, 9)}",
                       f" +{v} ", str(v * 10 ** rng.randint(1, 40)), f"{v}.0"])


def _mutant(doc, rng) -> str:
    """The text of a mutated deep copy of doc."""
    doc = copy.deepcopy(doc)
    slots = list(_slots(doc))
    kind = rng.choice(["drop", "swap", "perturb", "perturb", "nest", "inflate"])
    container, key = rng.choice(slots)
    if kind == "drop":
        del container[key]
    elif kind == "swap":
        container[key] = copy.deepcopy(rng.choice(ODD_VALUES))
    elif kind == "perturb":
        scalars = [(c, k) for c, k in slots if type(c[k]) in (int, str)]
        container, key = rng.choice(scalars)
        container[key] = _perturbed(container[key], rng)
    elif kind == "inflate":
        key = "N" if "N" in doc else "n"
        doc[key] = rng.choice([doc[key] + 1, 2 * doc[key] + 1, MAX_SHEAF_SIZE + 1, 10 ** 9,
                               10 ** 30])
    else:
        inner = json.dumps(container[key])
        container[key] = _MARK
        depth = rng.choice([2, 50, 500, 5000, 100000])
        return json.dumps(doc).replace(json.dumps(_MARK), "[" * depth + inner + "]" * depth)
    return json.dumps(doc)


def _decoded(decode, *args):
    """decode(*args), or None for an input error or an exceeded budget."""
    try:
        return decode(*args)
    except (ValueError, BudgetExceededError):
        return None


def _check_decoders(data, field):
    """Run every from_json on data; whatever decodes re-encodes stably."""
    for cls in (AugCandidate, SheafData):
        obj = _decoded(cls.from_json, data)
        if obj is not None:
            assert cls.from_json(obj.to_json()).to_json() == obj.to_json()
    if type(data) is not dict:
        return
    for cls, key in ((FieldSpec, "field"), (BraidWord, "braid")):
        obj = _decoded(cls.from_json, data.get(key))
        if obj is not None:
            assert cls.from_json(obj.to_json()).to_json() == obj.to_json()
    matrix = _decoded(Matrix.from_json, field, data.get("R"))
    if matrix is not None:
        assert Matrix.from_json(field, matrix.to_json()) == matrix
    walls = data.get("W")
    N = data.get("N")
    if type(walls) is list and walls and type(N) is int and 0 <= N <= MAX_SHEAF_SIZE:
        sub = _decoded(Subspace.from_json, field, N, walls[0])
        if sub is not None:
            assert Subspace.from_json(field, N, sub.to_json()) == sub


def _run(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code in (0, 2, 3), (argv, text[:300], captured.err)
    assert "Traceback" not in captured.out + captured.err
    if code == 3:
        assert captured.out == "" and captured.err.startswith("budget exceeded: ")
    return code, (json.loads(captured.out) if code == 0 else None)


def _check_verb(capsys, monkeypatch, text, braid, sheaf):
    """The verb that reads the seed's kind of document, sheaf data or an
    augmentation; an accepted reply re-encodes to itself, and a `sheaf`
    reply is read by `to-aug`."""
    if sheaf:
        code, reply = _run(capsys, monkeypatch, text, "to-aug", "--sheaf", "-")
        if code == 0:
            assert AugCandidate.from_json(reply).to_json() == reply
        return
    code, reply = _run(capsys, monkeypatch, text, "sheaf", "--aug", "-", "--braid",
                       " ".join(map(str, braid.word)), "--strands", str(braid.n))
    if code == 0:
        reply.pop("validation")
        assert SheafData.from_json(reply).to_json() == reply
        code, _ = _run(capsys, monkeypatch, json.dumps(reply), "to-aug", "--sheaf", "-")
        assert code in (0, 2)


@pytest.mark.parametrize("name, braid, p", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_mutated_documents_are_decoded_or_rejected_cleanly(capsys, monkeypatch, name, braid, p):
    rng = random.Random(f"fuzz/{name}")
    field = FieldSpec.prime(p)
    for doc in _seeds(braid, p):
        for _ in range(MUTANTS):
            text = _mutant(doc, rng)
            try:
                data = json.loads(text)
            except RecursionError:  # nested past what the decoder's test can load
                data = None
            else:
                _check_decoders(data, field)
            _check_verb(capsys, monkeypatch, text, braid, "N" in doc)
