"""The benchmark's workloads: one closed loop, one client, one thread each.

A workload is built from the program's package ``cs`` and the seed, then
runs whole rounds of operations.  Each operation is timed on its own and
counted as work in the workload's unit: search-space tuples (enumerate),
candidates (verify), requests (requests).  Its output is checked right
after it, outside the timed region, so that memory does not grow with the
length of the run; ``problems`` returns what the checks found.

``enumerate`` and ``verify`` repeat their instances in every round, so they
run each round on a freshly imported package (``load``): no state of the
program carries over between rounds, and an input is never seen twice by
one import.  ``requests`` keeps one import, because its repeats are the
point.
"""

from __future__ import annotations

import hashlib
import json
import random

from checks import (decode_problems, enumerate_problems, failed_operations,
                    sheaf_reply_problems, to_aug_reply_problems, verify_problems)


class Measurement:
    """What the timed loop saw: per-operation intervals and counts.

    ``clock`` gives program time (see ``speed.SpeedSampler.now``); each
    operation is kept as its (start, end) in it.
    """

    def __init__(self, clock):
        self.clock = clock
        self.intervals: list[tuple[float, float]] = []
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    def record(self, start: float, end: float, work: int, attempted: int,
               failed: int = 0) -> None:
        self.intervals.append((start, end))
        self.work += work
        self.attempted += attempted
        self.failed += failed


class Instance:
    __slots__ = ("name", "braid", "field", "tuples", "known_fault")

    def __init__(self, cs, name: str, n: int, word: list[int], p: int,
                 known_fault: bool = False):
        self.name = name
        self.braid = cs.BraidWord(n, word)
        self.field = cs.FieldSpec.prime(p)
        self.tuples = cs.moduli.search_space_size(self.braid, self.field)
        self.known_fault = known_fault
        cs.braid.geometry(self.braid)

    def __repr__(self) -> str:
        return f"{self.name}/F{self.field.p}"


class Enumerate:
    """`augs --modulo-dilation` on 3-strand knot closures: the figure-eight
    over F5, and the unknot over F3, which has a cheaper presentation."""

    fresh_program_each_round = True

    def __init__(self, cs, seed: int):
        self.rng = random.Random(seed)
        self.orbits: dict[str, list] = {}
        self.kept = 0
        self._problems: list[str] = []
        self.load(cs)

    def load(self, cs) -> None:
        self.cs = cs
        self.instances = [Instance(cs, "figure-eight", 3, [1, -2, 1, -2], 5),
                          Instance(cs, "unknot", 3, [1, 2], 3)]
        # the same link on fewer strands, for the Markov check
        self.cheaper = {"unknot": Instance(cs, "unknot", 1, [], 3)}

    def run_round(self, tracer, m: Measurement) -> None:
        moduli = self.cs.moduli
        for inst in self.rng.sample(self.instances, len(self.instances)):
            with tracer.op("op.enumerate"):
                start = m.clock()
                cands = tracer.call("moduli.enumerate_augs", moduli.enumerate_augs,
                                    inst.braid, inst.field)
                orbits = tracer.call("moduli.quotient_by_dilation",
                                     moduli.quotient_by_dilation, cands)
                end = m.clock()
            m.record(start, end, inst.tuples, attempted=1)
            self.kept += len(cands)
            self._problems += [f"{inst}: {e}" for e in
                               enumerate_problems(self.cs, inst.braid, inst.field, cands, orbits)]
            keys = [(o.rep.to_json(), o.size) for o in orbits]
            if self.orbits.setdefault(inst.name, keys) != keys:
                self._problems.append(f"{inst}: orbits differ between rounds")

    def denominators(self) -> tuple[int, int]:
        return self.kept, self.kept

    def problems(self) -> list[str]:
        cs = self.cs
        problems = list(self._problems)
        for name, other in self.cheaper.items():
            want = len(cs.quotient_by_dilation(cs.enumerate_augs(other.braid, other.field)))
            if name in self.orbits and len(self.orbits[name]) != want:
                problems.append(f"{name}: {len(self.orbits[name])} orbits, but {want} on "
                                f"{other.braid.n} strand(s)")
        return problems


class Verify:
    """`verify` on split links with dense solution sets, a knot, and the
    Hopf link over F5, whose zero-row orbits have no sheaf."""

    fresh_program_each_round = True

    def __init__(self, cs, seed: int):
        self.rng = random.Random(seed)
        self.counts: dict[str, tuple] = {}
        self.candidates = 0
        self._problems: list[str] = []
        self.load(cs)

    def load(self, cs) -> None:
        self.cs = cs
        self.instances = [Instance(cs, "2-unlink", 2, [], 7),
                          Instance(cs, "2-unlink", 2, [], 5),
                          Instance(cs, "3-unlink", 3, [], 2),
                          Instance(cs, "trefoil", 2, [1, 1, 1], 5),
                          Instance(cs, "hopf", 2, [1, 1], 5, known_fault=True)]

    def run_round(self, tracer, m: Measurement) -> None:
        moduli = self.cs.moduli
        for inst in self.rng.sample(self.instances, len(self.instances)):
            with tracer.op("op.verify"):
                start = m.clock()
                report = tracer.call("moduli.verify_bijection", moduli.verify_bijection,
                                     inst.braid, inst.field)
                end = m.clock()
            cands, orbits, other = failed_operations(report)
            m.record(start, end, len(report.aug_points),
                     attempted=len(report.aug_points) + len(report.orbits),
                     failed=len(cands) + len(orbits) + len(other))
            self.candidates += len(report.aug_points)
            self._problems += [f"{inst}: {e}" for e in verify_problems(report, inst.known_fault)]
            counts = (len(report.aug_points), len(report.orbits), len(report.failures))
            if self.counts.setdefault(repr(inst), counts) != counts:
                self._problems.append(f"{inst}: counts differ between rounds")

    def denominators(self) -> tuple[int, int]:
        return self.candidates, self.candidates

    def problems(self) -> list[str]:
        return list(self._problems)


# knots and split links over F3-F7, all clean under verify
POOL = [("unknot", 1, [], 7), ("trefoil", 2, [1, 1, 1], 5), ("trefoil", 2, [1, 1, 1], 7),
        ("figure-eight", 3, [1, -2, 1, -2], 3), ("unknot", 3, [1, 2], 3),
        ("2-unlink", 2, [], 3), ("2-unlink", 2, [], 5), ("3-unlink", 3, [], 3)]
PIPELINES_PER_ROUND = 50


def _encode(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


class Requests:
    """Single-object requests made in process, as the command line pipeline
    `cordsheaf sheaf --aug - | cordsheaf to-aug --sheaf -` makes them: a
    `sheaf` request on an augmentation document, then a `to-aug` request on
    its reply.  Each request decodes a JSON document, makes the verb's calls
    and encodes the reply.  Augmentations are drawn uniformly with
    replacement from a pool built at set-up."""

    fresh_program_each_round = False

    def __init__(self, cs, seed: int):
        self.cs = cs
        self.rng = random.Random(seed)
        self.pool = []
        for name, n, word, p in POOL:
            inst = Instance(cs, name, n, word, p)
            self.pool += [(c, inst.braid) for c in cs.enumerate_augs(inst.braid, inst.field)]
        self.docs = [json.dumps({"aug": c.to_json(), "braid": b.to_json()}) for c, b in self.pool]
        self.pipelines = 0
        self.replies: dict[int, bytes] = {}  # pool index -> digest of both replies
        self._problems: list[str] = []

    def _sheaf(self, doc: str, call) -> tuple:
        cs = self.cs
        data = call("wire.decode", json.loads, doc)
        cand = call("cordaug.AugCandidate.from_json", cs.AugCandidate.from_json, data["aug"])
        braid = call("braid.BraidWord.from_json", cs.BraidWord.from_json, data["braid"])
        report = call("cordaug.check_relations", cs.check_relations, cand, braid)
        if not report.ok:
            reply = _encode({"error": "not an augmentation", "failures": report.failures[:8]})
            return (cand, braid), None, reply
        sheaf = call("correspondence.aug_to_sheaf", cs.aug_to_sheaf, cand, braid)
        vrep = call("sheafmodel.validate", cs.validate, sheaf)
        reply = call("wire.encode", lambda: _encode({**sheaf.to_json(), "validation": vrep.to_json()}))
        return (cand, braid), sheaf, reply

    def _to_aug(self, doc: str, call) -> tuple:
        cs = self.cs
        data = call("wire.decode", json.loads, doc)
        sheaf = call("sheafmodel.SheafData.from_json", cs.SheafData.from_json, data)
        vrep = call("sheafmodel.validate", cs.validate, sheaf)
        if not vrep.ok:
            return sheaf, _encode({"error": "invalid sheaf data", "failures": vrep.failures[:8]}), False
        triv = call("correspondence.choose_trivialization", cs.choose_trivialization, sheaf)
        cand = call("correspondence.sheaf_to_aug", cs.sheaf_to_aug, sheaf, triv)
        return sheaf, call("wire.encode", lambda: _encode(cand.to_json())), True

    def run_round(self, tracer, m: Measurement) -> None:
        for _ in range(PIPELINES_PER_ROUND):
            idx = self.rng.randrange(len(self.docs))
            with tracer.op("op.requests"):
                start = m.clock()
                decoded, built, sheaf_reply = tracer.call(
                    "verb.sheaf", self._sheaf, self.docs[idx], tracer.call)
                sheaf, aug_reply, ok = None, None, False
                if built is not None:
                    sheaf, aug_reply, ok = tracer.call("verb.to-aug", self._to_aug,
                                                       sheaf_reply, tracer.call)
                end = m.clock()
            # a failed `sheaf` request leaves its `to-aug` request unmade
            m.record(start, end, 2, attempted=2, failed=2 if built is None else int(not ok))
            self.pipelines += 1
            digest = hashlib.sha1(f"{sheaf_reply}\0{aug_reply}".encode()).digest()
            if idx in self.replies:
                if self.replies[idx] != digest:
                    self._problems.append(f"object {idx}: reply changed on a repeated request")
                continue
            self.replies[idx] = digest
            cand, braid = self.pool[idx]
            errors = decode_problems(decoded, (cand, braid))
            errors += sheaf_reply_problems(self.cs, sheaf_reply, cand)
            if aug_reply is not None:
                errors += decode_problems(sheaf, built)
                errors += to_aug_reply_problems(self.cs, aug_reply, braid, cand)
            self._problems += [f"object {idx}: {e}" for e in errors]

    @property
    def repeated_share(self) -> float:
        return 1 - len(self.replies) / self.pipelines if self.pipelines else 0.0

    def denominators(self) -> tuple[int, int]:
        return self.pipelines, 0

    def problems(self) -> list[str]:
        return list(self._problems)


WORKLOADS = {"enumerate": Enumerate, "verify": Verify, "requests": Requests}
