"""Golden outputs: the command line's `sheaf` and `to-aug` replies, and one
`verify_bijection` report, pinned by SHA-1 digest.

Any change to the linear algebra, the correspondence or the wire format
that alters a single byte of these outputs fails here.  Each instance runs
`cordsheaf sheaf --aug -` on every augmentation the enumerator finds, then
`cordsheaf to-aug --sheaf -` on its reply; the digest covers every reply
and exit code in enumeration order.
"""

import hashlib
import io
import json

import pytest

from cordsheaf import BraidWord, FieldSpec, enumerate_augs, verify_bijection
from cordsheaf.cli import main

# (name, strands, word, p) -> (augmentations, digest of the sheaf replies,
# digest of the to-aug replies)
REPLIES = {
    ("2-unlink", 2, (), 3): (
        41, "4b93cd0eb4e4409b10eed819c04361d67c2a9185",
        "8aad300756a58e867cc9d4a66bd6c588ddeae631"),
    ("trefoil", 2, (1, 1, 1), 5): (
        11, "493018639012d333f9e9636fc34c768767fd18f3",
        "923f4200682c9cefd1d975cc5556ead0c15d3939"),
    ("figure-eight", 3, (1, -2, 1, -2), 3): (
        4, "c58fcb675a1337549e4199fb05d20b047601b96d",
        "23da1108f0726859561cb52ff947e01f29550343"),
    ("unknot", 3, (1, 2), 3): (
        3, "be3093055b39a671d89a1d5086f825aa6e49b1c1",
        "6061d502ca47f0a374139d0267eb7025e10b60f2"),
}

VERIFY_2UNLINK_F5 = "12b7e31ed7fb38cb488cbb6d941ddc9e65993b4a"


def _request(capsys, monkeypatch, argv, doc: str) -> str:
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code = main(argv)
    return f"{code}\n{capsys.readouterr().out}"


@pytest.mark.parametrize("key", list(REPLIES), ids=lambda key: f"{key[0]}-F{key[3]}")
def test_sheaf_and_to_aug_replies(capsys, monkeypatch, key):
    _, n, word, p = key
    braid_args = ["--braid", " ".join(map(str, word)), "--strands", str(n)]
    sheaf_digest, aug_digest = hashlib.sha1(), hashlib.sha1()
    cands = enumerate_augs(BraidWord(n, word), FieldSpec.prime(p))
    for cand in cands:
        reply = _request(capsys, monkeypatch, ["sheaf", "--aug", "-", *braid_args],
                         json.dumps(cand.to_json()))
        sheaf_digest.update(reply.encode() + b"\0")
        reply = _request(capsys, monkeypatch, ["to-aug", "--sheaf", "-"],
                         reply.split("\n", 1)[1])
        aug_digest.update(reply.encode() + b"\0")
    assert (len(cands), sheaf_digest.hexdigest(), aug_digest.hexdigest()) == REPLIES[key]


def test_verify_report():
    report = verify_bijection(BraidWord(2, []), FieldSpec.prime(5))
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha1(text.encode()).hexdigest() == VERIFY_2UNLINK_F5
