"""Golden outputs: the command line's `sheaf` and `to-aug` replies, and one
`verify_bijection` report, pinned by SHA-1 digest.

Any change to the linear algebra, the correspondence or the wire format
that alters a single byte of these outputs fails here.  Each instance runs
`cordsheaf sheaf --aug -` on every augmentation the enumerator finds, then
`cordsheaf to-aug --sheaf -` on its reply; the digest covers every reply
and exit code in enumeration order.  The instances cover the benchmark's
`requests` pool (the 3-component unlink over F3 at every 25th
augmentation), the degenerate components of the 3-component unlink over
F2, and the Hopf link over F3, whose zero-row candidates give extended
sheaves and `invalid sheaf data` replies.
"""

import hashlib
import io
import json

import pytest

from cordsheaf import BraidWord, FieldSpec, enumerate_augs, verify_bijection
from cordsheaf.cli import main

# (name, strands, word, p, every) -> (augmentations, digest of the sheaf
# replies, digest of the to-aug replies); every k-th augmentation is sent
REPLIES = {
    ("2-unlink", 2, (), 3, 1): (
        41, "4b93cd0eb4e4409b10eed819c04361d67c2a9185",
        "8aad300756a58e867cc9d4a66bd6c588ddeae631"),
    ("trefoil", 2, (1, 1, 1), 5, 1): (
        11, "493018639012d333f9e9636fc34c768767fd18f3",
        "923f4200682c9cefd1d975cc5556ead0c15d3939"),
    ("figure-eight", 3, (1, -2, 1, -2), 3, 1): (
        4, "c58fcb675a1337549e4199fb05d20b047601b96d",
        "23da1108f0726859561cb52ff947e01f29550343"),
    ("unknot", 3, (1, 2), 3, 1): (
        3, "be3093055b39a671d89a1d5086f825aa6e49b1c1",
        "6061d502ca47f0a374139d0267eb7025e10b60f2"),
    ("unknot", 1, (), 7, 1): (
        11, "b97ad48cd1a7ffb08eaeee3df53effe2cc764a1d",
        "39f3485dbb82b9174aa587894a7f0c81846b7e9a"),
    ("trefoil", 2, (1, 1, 1), 7, 1): (
        15, "27398cfb20d5f42e9e64b408d0d93e193e3feba3",
        "ff2db78b0e33030539097d8a542a87ea2204d6aa"),
    ("2-unlink", 2, (), 5, 1): (
        433, "6f2e845b137088ada6d68009a13c4e5542e99eeb",
        "1aa342219c5681de95df61bb39b2ebbf85989237"),
    ("3-unlink", 3, (), 2, 1): (
        64, "0e03ab87183f2f646d8ecb7c678717069f950802",
        "159567c6a8e0e2019b16512644110c285df74960"),
    ("3-unlink", 3, (), 3, 25): (
        5947, "a324a527464f1e9efddae9b43b5ef935304ba67a",
        "77c3d6f8486ecdb35d4e6d0da9be91b2280f08f9"),
    ("hopf", 2, (1, 1), 3, 1): (
        23, "a4a7bcf2a2d6e292ee589e87d236051c1abcaf10",
        "3a9b8f587fd2ec333af46dc42f45025745506235"),
}

VERIFY_2UNLINK_F5 = "12b7e31ed7fb38cb488cbb6d941ddc9e65993b4a"


def _request(capsys, monkeypatch, argv, doc: str) -> str:
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code = main(argv)
    return f"{code}\n{capsys.readouterr().out}"


def _id(key) -> str:
    name, _, _, p, every = key
    return f"{name}-F{p}" + (f"-every{every}" if every > 1 else "")


@pytest.mark.parametrize("key", list(REPLIES), ids=_id)
def test_sheaf_and_to_aug_replies(capsys, monkeypatch, key):
    _, n, word, p, every = key
    braid_args = ["--braid", " ".join(map(str, word)), "--strands", str(n)]
    sheaf_digest, aug_digest = hashlib.sha1(), hashlib.sha1()
    cands = enumerate_augs(BraidWord(n, word), FieldSpec.prime(p))
    for cand in cands[::every]:
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
