"""Correctness checks on the benchmark's outputs.

Every check returns a list of problems, empty when the output is right.  The
trace identity, the rank bound, the orbit-size rule and the one-sided
failure class are computed here in plain modular integer arithmetic from the
wire format, apart from the program's scalars and linear algebra; the
relation certificate, sheaf validation and canonical forms are the
program's own, called on code paths separate from the ones the workloads
time.
"""

from __future__ import annotations

import json


def _ints(matrix: list[list[str]], p: int) -> list[list[int]]:
    return [[int(x) % p for x in row] for row in matrix]


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p by Gaussian elimination on a copy."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] % p:
                f = rows[r][c]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _base_strands(labels: list[int]) -> dict[int, int]:
    """Component -> its first strand (1-based), the marked point's strand."""
    base: dict[int, int] = {}
    for strand, s in enumerate(labels, start=1):
        base.setdefault(s, strand)
    return base


def sheaf_problems(sheaf: dict, cand: dict) -> list[str]:
    """mu_s = 1 - tr(Id - M_b) at each base strand b, and rank(Id - M_i) <= 1
    on every strand of a non-degenerate component.

    ``sheaf`` and ``cand`` are wire-format documents; ``cand`` is the
    augmentation the sheaf was built from.
    """
    p = cand["field"]["p"]
    N = sheaf["N"]
    labels = cand["component_map"]
    deg = {d["component"] for d in sheaf["deg"]}
    mats = [_ints(m, p) for m in sheaf["M"]] if N else [[] for _ in labels]
    displaced = [[[((i == j) - m[i][j]) % p for j in range(N)] for i in range(N)]
                 for m in mats]
    problems = []
    for s, b in sorted(_base_strands(labels).items()):
        trace = sum(displaced[b - 1][k][k] for k in range(N)) % p
        mu = int(cand["mu"][s - 1]) % p
        if (1 - trace) % p != mu:
            problems.append(f"component {s}: mu = {mu} but 1 - tr(Id - M_{b}) = {(1 - trace) % p}")
    for i, s in enumerate(labels, start=1):
        if s not in deg and N and rank_mod_p(displaced[i - 1], p) > 1:
            problems.append(f"strand {i}: rank(Id - M_{i}) > 1")
    return problems


def zero_row_components(cand: dict) -> list[int]:
    """Non-degenerate components whose strands all have zero rows of R: the
    class of candidates the sheaf model has no object for."""
    p = cand["field"]["p"]
    R = _ints(cand["R"], p)
    labels = cand["component_map"]
    n = len(labels)
    zero_row = {i for i in range(n) if not any(R[i])}
    zero_col = {j for j in range(n) if not any(R[i][j] for i in range(n))}
    out = []
    for s in sorted(set(labels)):
        strands = {i for i in range(n) if labels[i] == s}
        degenerate = strands <= (zero_row & zero_col)
        if not degenerate and strands <= zero_row:
            out.append(s)
    return out


def orbit_problems(num_candidates: int, sizes: list[int], p: int, r: int) -> list[str]:
    """Orbit sizes sum to the candidate count and divide (p-1)^(r-1), the
    order of the reduced dilation group."""
    problems = []
    if sum(sizes) != num_candidates:
        problems.append(f"orbit sizes sum to {sum(sizes)}, not {num_candidates}")
    group = (p - 1) ** (r - 1)
    bad = [s for s in sizes if s <= 0 or group % s]
    if bad:
        problems.append(f"orbit sizes {bad[:4]} do not divide {group}")
    return problems


def enumerate_problems(cs, braid, field, cands, orbits) -> list[str]:
    """Every kept candidate passes the full relation certificate, and the
    orbits partition the candidates."""
    problems = []
    for k, cand in enumerate(cands):
        if not cs.check_relations(cand, braid, full=True).ok:
            problems.append(f"candidate {k} fails the full certificate")
    r = cs.component_map(braid).r
    problems += orbit_problems(len(cands), [o.size for o in orbits], field.p, r)
    return problems


def failed_operations(report) -> tuple[set[int], set[int], list[dict]]:
    """Split a verify report's failures into failing candidate round trips,
    failing orbits, and failures attached to neither."""
    cands: set[int] = set()
    orbits: set[int] = set()
    other = []
    for f in report.failures:
        where, _, rest = f["location"].partition(" ")
        if where == "candidate":
            cands.add(int(rest))
        elif where in ("orbit", "representative", "representatives"):
            orbits.update(int(k) for k in rest.split(","))
        else:
            other.append(f)
    return cands, orbits, other


def verify_problems(report, known_fault: bool) -> list[str]:
    """A clean instance reports no failure; on the instance with the known
    fault every failing operation is in the zero-row class; orbits partition
    the candidates; every valid sheaf representative satisfies the trace
    identity and the rank bound."""
    problems = []
    bad_cands, bad_orbits, other = failed_operations(report)
    if other:
        problems.append(f"failures outside any candidate or orbit: {other[:2]}")
    if not known_fault and report.failures:
        problems.append(f"clean instance reports {len(report.failures)} failures")
    for k in sorted(bad_cands):
        if not zero_row_components(report.aug_points[k].to_json()):
            problems.append(f"failing candidate {k} is outside the zero-row class")
    for k in sorted(bad_orbits):
        if not zero_row_components(report.orbits[k].rep.to_json()):
            problems.append(f"failing orbit {k} is outside the zero-row class")
    if len(report.sheaf_reps) != len(report.orbits):
        problems.append(f"{len(report.orbits)} orbits but {len(report.sheaf_reps)} sheaves")
    problems += orbit_problems(len(report.aug_points), [o.size for o in report.orbits],
                               report.field.p, report.aug_points[0].r if report.aug_points else 1)
    invalid = {int(f["location"].split()[1]) for f in report.failures
               if f["kind"] == "invalid-sheaf"}
    for k, (orbit, sheaf) in enumerate(zip(report.orbits, report.sheaf_reps)):
        if k not in invalid:
            problems += [f"orbit {k}: {e}"
                         for e in sheaf_problems(sheaf.to_json(), orbit.rep.to_json())]
    return problems


def sheaf_reply_problems(cs, reply: str, cand) -> list[str]:
    """A `sheaf` reply carries no validation failure, validates again after
    decoding, and satisfies the trace identity against its candidate."""
    payload = json.loads(reply)
    if "error" in payload:
        return [f"error reply: {payload['error']}"]
    problems = []
    if payload["validation"]["failures"]:
        problems.append("reply reports validation failures")
    if not cs.validate(cs.SheafData.from_json(payload)).ok:
        problems.append("reply sheaf does not validate")
    return problems + sheaf_problems(payload, cand.to_json())


def _orbit_key(cs, cand) -> tuple:
    rep, _ = cs.canonical_form(cand)
    return rep.R, rep.lam, rep.mu


def to_aug_reply_problems(cs, reply: str, braid, source) -> list[str]:
    """A `to-aug` reply passes the relation certificate and lies in the
    dilation orbit of the candidate its sheaf was built from."""
    payload = json.loads(reply)
    if "error" in payload:
        return [f"error reply: {payload['error']}"]
    cand = cs.AugCandidate.from_json(payload)
    problems = []
    if not cs.check_relations(cand, braid).ok:
        problems.append("reply fails the relation certificate")
    if _orbit_key(cs, cand) != _orbit_key(cs, source):
        problems.append("reply is off the dilation orbit of its source candidate")
    return problems


def decode_problems(decoded, original) -> list[str]:
    """Decoding an encoded object gives back the same object."""
    return [] if decoded == original else [f"decoded {decoded!r} != encoded {original!r}"]
