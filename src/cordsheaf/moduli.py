"""Brute-force enumeration of augmentations over small prime fields, the
quotient by reduced dilations, sheaf representatives, and the bijection check.

Enumeration fixes the diagonal of R from mu (the normalization is a hard
constraint), loops over the rows of R and the unit tuples, and keeps the
candidates passing the relation certificate.  It certifies raw rows: a
candidate object exists only for a tuple that is kept, tagged with the key
of its orbit.  The quotient keys each orbit on the raw rows of its canonical
R.  The bijection check takes its orbits from the enumerator's tags, builds
each candidate's sheaf once, eliminating once per orbit (the other members
carry the first member's layout by the dilation scales the enumerator tags
them with), and hands each representative's certified layout to its sheaf
round trip, which stops where its own checks decide the rest.  The moduli
set of sheaves is produced through the augmentation side; an optional
direct enumeration of small-dimension representation data cross-checks
that nothing is missed at dimensions <= 2.

Where a lone strand (its own component, with an empty longitude segment)
has lambda != 1, its transport identities force its row and column of R to
vanish, so such (mu, lambda) blocks loop over those rows only.

Two representatives are identified in the sheaf moduli when they are
isomorphic, degenerate data included: representatives carry no constant
directions, which are what the quotient by local systems collapses.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Sequence

from .braid import BraidWord, BudgetExceededError, component_map, geometry
from .cordaug import (AugCandidate, _canonical_rows, _dilated_rows, _dilation_factors,
                      _forest_dilation, _orbit_key, _strand_minv, _with_rows, canonical_form,
                      degenerate_components, index_sets, passes_fast)
from .correspondence import _AugLayout, _roundtrip_sheaf, _roundtrip_values, aug_to_subsheaf
from .field import FieldSpec
from .linalg import Matrix, Subspace, _hyperplane, _identity, _inv, _mul, _sub
from .sheafmodel import (SheafData, _first_moved, global_sections, is_reduced, isomorphic,
                         validate)

DEFAULT_BUDGET = 10 ** 8


def search_space_size(braid: BraidWord, field: FieldSpec) -> int:
    """p^(n^2-n) (p-1)^(2r); BudgetExceededError past 128 bits."""
    p = _finite_p(field)
    return _search_space(braid.n, component_map(braid).r, p, 2 ** 128 - 1)


def _finite_p(field: FieldSpec) -> int:
    """The field's characteristic; ValueError on the rationals."""
    if not field.is_prime_field:
        raise ValueError("enumeration needs a finite field")
    return field.p


def _search_space(n: int, r: int, p: int, budget: int) -> int:
    """The search space, refused past budget with each power cut where 2^k
    passes it; a space that may pass 128 bits is written as its powers."""
    a, b, cap = n * n - n, 2 * r, budget.bit_length() + 1
    space = p ** min(a, cap) * (p - 1) ** min(b, cap)
    if space > budget:
        small = a * p.bit_length() + b * (p - 1).bit_length() <= 128
        raise BudgetExceededError(p ** a * (p - 1) ** b if small else f"{p}^{a} * {p - 1}^{b}",
                                  budget)
    return space


def enumerate_augs(braid: BraidWord, field: FieldSpec,
                   budget: int = DEFAULT_BUDGET) -> list[AugCandidate]:
    """All candidates passing the relation certificate, in lexicographic order.

    The certificate is invariant under reduced dilations, which keep the
    diagonal, lambda and mu.  So in each (mu, lambda) block only the tuples
    that are their own canonical form are certified; each one that passes
    brings in its whole orbit, whose other members are certified in turn
    before they are kept.  Sorting the block by its tuples gives the order
    of a scan over every tuple.  A knot skips the test: all are canonical.

    A lone strand i, its own component with an empty longitude segment,
    has transport identities (lambda_s - 1) row_i = 0 and (lambda_s - 1)
    col_i = 0.  So in a block where lambda_s != 1 only tuples whose row i
    and column i vanish are scanned, and none when mu_s != 1, as the
    diagonal entry 1 - mu_s is then nonzero; every tuple left out fails.
    """
    return _enumerate(braid, field, budget)[0]


def _enumerate(braid: BraidWord, field: FieldSpec, budget: int) -> tuple[list, list, list]:
    """enumerate_augs's candidates, and for each the _orbit_key of the orbit
    that brought it in (on a knot, its own), one key object per orbit, and
    the per-strand raw scales of a reduced dilation taking the orbit's
    canonical tuple to it: its R is D R D^-1 for D their diagonal.

    Tuples are walked as rows: each strand's rows of R, with the diagonal
    in place, are built once per mu and set of zeroed lone strands, and the
    certificate runs on them with mu^-1 and lambda read once per block.  A
    Matrix and an AugCandidate are built only for the tuples that are kept.
    Canonicity and the orbits are cordaug's raw-rows forms, _forest_dilation
    and _dilated_rows.
    """
    p = _finite_p(field)
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    cm = component_map(braid)
    n, r = braid.n, cm.r
    _search_space(n, r, p, budget)
    geom = geometry(braid)
    units = list(field.elements(nonzero=True))
    # the lone strands, from 0: tau(i) = i and an empty segment
    lone = [i for i in range(n) if geom.tau[i] == i + 1 and not geom.segments[i + 1].letters]

    def strand_rows(diag: list, zero: frozenset) -> list:  # per strand, its rows in order
        return [[v[:i] + (x,) + v[i:] for v in itertools.product(
                    *((0,) if i in zero or j in zero else range(p) for j in range(n) if j != i))]
                for i, x in enumerate(diag)]

    # the reduced dilations (d_1 = 1), as factor tables and per-strand scales;
    # on a knot the one dilation is the identity
    dilations = [(_dilation_factors(p, cm, d), tuple([d[s - 1] for s in cm.labels]))
                 for d in ((1,) + rest for rest in itertools.product(range(1, p), repeat=r - 1))]
    # canonicity never reads the diagonal, so one bitmap per zeroed set
    # serves every block; on a knot every tuple is canonical
    ones = [1] * r
    canonical: dict = {}  # zeroed set -> bitmap

    # minv and raw_lam below are those of the (mu, lambda) block in scan
    def certified(rows: tuple) -> bool:
        return passes_fast(geom, raw_lam, (p, rows, minv))

    lams = []  # per lambda: its units, raw values and zeroed lone strands
    for lam in itertools.product(units, repeat=r):
        raw = [x.value for x in lam]
        lams.append((lam, raw, frozenset(i for i in lone if raw[cm.labels[i] - 1] != 1)))
    out, keys, scales = [], [], []
    for mu in itertools.product(units, repeat=r):
        minv = _strand_minv(p, cm, mu)
        raw_mu = [x.value for x in mu]
        diag = [_sub(p, 1, mu[s - 1].value) for s in cm.labels]
        zeroable = frozenset(i for i, x in enumerate(diag) if not x)
        choices: dict = {}  # zeroed set -> strand_rows
        for lam, raw_lam, zero in lams:
            if not zero <= zeroable:
                continue  # a zeroed row's diagonal entry 1 - mu_s is not 0
            if zero not in choices:
                choices[zero] = strand_rows(diag, zero)
            if zero not in canonical:
                canonical[zero] = itertools.repeat(1) if r == 1 else bytearray(
                    _forest_dilation(p, cm, rows) == ones
                    for rows in itertools.product(*strand_rows([0] * n, zero)))
            block: dict = {}  # rows -> the key of the certified orbit that brought them in,
            # and the scales of a dilation taking its canonical rows to them
            for rows in itertools.compress(itertools.product(*choices[zero]), canonical[zero]):
                if certified(rows):
                    key = _orbit_key(rows, raw_lam, raw_mu)
                    block.update((_dilated_rows(p, f, rows), (key, delta))
                                 for f, delta in dilations)
            for rows in sorted(block):
                key, delta = block[rows]
                if rows == key[0] or certified(rows):
                    out.append(AugCandidate(field, cm, Matrix._from_values(field, rows), lam, mu))
                    keys.append(key)
                    scales.append(delta)
    return out, keys, scales


class Orbit:
    """A dilation orbit: canonical representative plus its size."""

    __slots__ = ("rep", "size")

    def __init__(self, rep: AugCandidate, size: int):
        self.rep = rep
        self.size = size

    def __repr__(self) -> str:
        return f"Orbit(size={self.size}, rep={self.rep!r})"


def quotient_by_dilation(points: Sequence[AugCandidate]) -> list[Orbit]:
    """Group candidates by canonical form; first-seen order of representatives.

    Orbits are keyed on raw values (_orbit_key).  Each orbit's representative
    is built once, when its first-seen member is not already canonical; a
    canonical member is its own representative.
    """
    orbits: dict = {}
    for cand in points:
        _, rows = _canonical_rows(cand.field.p, cand.components, cand.R.values)
        key = _orbit_key(rows, [x.value for x in cand.lam], [x.value for x in cand.mu])
        orbit = orbits.get(key)
        if orbit is None:
            rep = cand if rows is cand.R.values else _with_rows(cand, rows)
            orbits[key] = orbit = Orbit(rep, 0)
        orbit.size += 1
    return list(orbits.values())


class ModuliReport:
    """Everything verify_bijection computed, JSON-serializable."""

    def __init__(self, braid: BraidWord, field: FieldSpec):
        self.braid = braid
        self.field = field
        self.aug_points: list[AugCandidate] = []
        self.orbits: list[Orbit] = []
        self.sheaf_reps: list[SheafData] = []
        self.bijection: list[tuple[int, int]] = []
        self.failures: list[dict] = []
        self.notes: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, kind: str, location: str, detail) -> None:
        self.failures.append({"kind": kind, "location": location, "detail": str(detail)})

    def to_json(self) -> dict:
        return {
            "braid": self.braid.to_json(),
            "field": self.field.to_json(),
            "aug_points": [o.rep.to_json() for o in self.orbits],
            "aug_orbit_sizes": [o.size for o in self.orbits],
            "num_candidates": len(self.aug_points),
            "sheaf_reps": [s.to_json() for s in self.sheaf_reps],
            "bijection": [list(p) for p in self.bijection],
            "failures": self.failures,
            "notes": self.notes,
        }


def verify_bijection(braid: BraidWord, field: FieldSpec,
                     budget: int = DEFAULT_BUDGET) -> ModuliReport:
    """Enumerate both sides and check they are in bijection.

    Every candidate, not only each orbit representative, must survive the
    augmentation round trip; every sheaf representative must survive the
    sheaf round trip and induce an augmentation back in its paired orbit;
    distinct orbits must give inequivalent sheaves.

    Each orbit's first member is eliminated, and the other members carry
    its layout over (_AugLayout.dilated), each round-tripping on its own.
    Every representative is validated; its sheaf round trip stops where its
    own checks decide the rest (roundtrip_sheaf).
    """
    report = ModuliReport(braid, field)
    report.aug_points, keys, scales = _enumerate(braid, field, budget)

    # enumerate_augs kept only candidates passing the relation certificate.
    # Each candidate's sheaf is written as field values and read back on
    # them; the enumerator's orbits, in first-seen order, get the sheaf of
    # their canonical member, whose layout serves its round trip.
    geom, p = geometry(braid), field.p
    orbit_of: dict = {}  # orbit key -> its orbit's index
    firsts: list = []  # per orbit, its first member's layout and inverse scales
    reps: list = []  # per orbit, its representative's layout and sheaf values
    for idx, (cand, key, delta) in enumerate(zip(report.aug_points, keys, scales)):
        k = orbit_of.setdefault(key, len(reps))
        if k == len(reps):
            lay = _AugLayout(cand, index_sets(cand))
            firsts.append((lay, [_inv(p, x) for x in delta]))
            report.orbits.append(Orbit(None, 0))
            reps.append(None)
        else:
            first, inverse = firsts[k]
            lay = first.dilated(cand, [_mul(p, x, y) for x, y in zip(delta, inverse)])
        values = lay.values(lay.extended)
        diff = _roundtrip_values(lay, geom, values)
        if diff is not None:
            report.fail("roundtrip-aug", f"candidate {idx}", diff.entries[:4])
        report.orbits[k].size += 1
        if cand.R.values == key[0]:
            report.orbits[k].rep, reps[k] = cand, (lay, values)
    report.notes.append(
        f"{len(report.aug_points)} candidates, {len(report.orbits)} dilation orbits")

    for k, (lay, values) in enumerate(reps):
        sheaf = lay.sheaf(braid, values)
        vrep = validate(sheaf)
        if not vrep.ok:
            report.fail("invalid-sheaf", f"orbit {k}", vrep.failures[:4])
        report.sheaf_reps.append(sheaf)

    # a layout sheaf has no global sections, so the round trip reads its
    # augmentation
    induced_keys: dict = {}
    for k, (rep_key, (lay, _)) in enumerate(zip(orbit_of, reps)):
        try:
            diff, eps, key = _roundtrip_sheaf(report.sheaf_reps[k], lay)
            if not diff.empty:
                report.fail("roundtrip-sheaf", f"representative {k}", diff.entries[:4])
            if key != rep_key:
                report.fail("wrong-orbit", f"representative {k}",
                            {"expected": lay.cand.to_json(),
                             "got": canonical_form(eps)[0].to_json()})
            induced_keys.setdefault(key, []).append(k)
        except Exception as err:  # keep verifying; each breakage is one report entry
            report.fail("error", f"representative {k}", f"{type(err).__name__}: {err}")
        report.bijection.append((k, k))

    # Injectivity: isomorphic sheaves induce dilation-equivalent augmentations,
    # so only canonical-form duplicates need the intertwiner search.  It is
    # exact (a None is a proof; past its trial budget it raises) and matches
    # degenerate data too: comparing once-stabilized subobjects is too coarse,
    # since distinct extensions over the zero-row strands share a
    # stabilization (a test pins a concrete pair).
    for group in induced_keys.values():
        for pos, a in enumerate(group):
            for b in group[pos + 1:]:
                if isomorphic(report.sheaf_reps[a], report.sheaf_reps[b]) is not None:
                    report.fail("collision", f"representatives {a}, {b}",
                                "distinct orbits gave equivalent sheaves")
    return report


# -- comparison across braid representatives -------------------------------------------


def orbit_signature(braid: BraidWord, orbit: Orbit) -> tuple:
    """Isomorphism data of an orbit that a Markov move must preserve:
    per-component (lambda, mu, degeneracy, characteristic polynomial of the
    base meridian on the subsheaf), the subsheaf dimension, and orbit size."""
    cand = orbit.rep
    sub = aug_to_subsheaf(cand, braid)
    comps = cand.components
    degs = set(degenerate_components(cand))
    per_component = []
    for s in range(1, comps.r + 1):
        b = comps.base_strand(s)
        chi = sub.M[b - 1].charpoly() if sub.N else ()
        per_component.append((
            str(cand.lam[s - 1]),
            str(cand.mu[s - 1]),
            s in degs,
            tuple(str(c) for c in chi),
        ))
    return (sub.N, orbit.size, tuple(sorted(per_component)))


class ComparisonReport:
    def __init__(self, braid1: BraidWord, braid2: BraidWord, field: FieldSpec):
        self.braid1 = braid1
        self.braid2 = braid2
        self.field = field
        self.counts = (0, 0)
        self.unmatched: list = []
        self.notes: list[str] = []

    @property
    def ok(self) -> bool:
        return self.counts[0] == self.counts[1] and not self.unmatched

    def to_json(self) -> dict:
        return {
            "braid1": self.braid1.to_json(),
            "braid2": self.braid2.to_json(),
            "field": self.field.to_json(),
            "orbit_counts": list(self.counts),
            "unmatched_signatures": [str(s) for s in self.unmatched],
            "notes": self.notes,
        }


def markov_compare(braid1: BraidWord, braid2: BraidWord, field: FieldSpec,
                   budget: int = DEFAULT_BUDGET) -> ComparisonReport:
    """Compare the moduli of two braid representatives of the same link.

    The caller asserts the closures agree.  Orbit counts must match and the
    multisets of orbit signatures must match one-to-one.
    """
    report = ComparisonReport(braid1, braid2, field)
    orbits1 = quotient_by_dilation(enumerate_augs(braid1, field, budget))
    orbits2 = quotient_by_dilation(enumerate_augs(braid2, field, budget))
    report.counts = (len(orbits1), len(orbits2))
    sig1 = Counter(orbit_signature(braid1, o) for o in orbits1)
    sig2 = Counter(orbit_signature(braid2, o) for o in orbits2)
    # a signature is left over on one side at most
    report.unmatched = sorted([("braid1", sig) for sig in (sig1 - sig2).elements()]
                              + [("braid2", sig) for sig in (sig2 - sig1).elements()],
                              key=lambda entry: entry[1])
    report.notes.append(f"compared {len(orbits1)} vs {len(orbits2)} orbit signatures")
    return report


# -- independent small-dimension cross-check ---------------------------------------------


def _invertible_matrices(field: FieldSpec, dim: int) -> Iterable[Matrix]:
    for entries in itertools.product(field.elements(), repeat=dim * dim):
        mat = Matrix(field, [list(entries[k * dim:(k + 1) * dim]) for k in range(dim)])
        if mat.is_invertible():
            yield mat


def _hyperplanes(field: FieldSpec, dim: int) -> list[Subspace]:
    units = _identity(field.p, dim)
    kernels = (Subspace._from_echelon(field, dim, *_hyperplane(field.p, g, units))
               for g in itertools.product(range(field.p), repeat=dim) if any(g))
    return list(dict.fromkeys(kernels))  # each once, in order of first appearance


def enumerate_sheaves_direct(braid: BraidWord, field: FieldSpec,
                             max_dim: int = 2) -> list[SheafData]:
    """Enumerate reduced sheaves with no degenerate summand directly from
    meridian-matrix and stalk data, up to moduli equivalence.

    Exponential in every direction; meant only as an independent check that
    the augmentation-side enumeration reaches everything at dimension <= 2.
    """
    _finite_p(field)
    geom = geometry(braid)
    n = braid.n
    reps: list[SheafData] = []
    for N in range(0, max_dim + 1):
        if N == 0:
            continue  # the zero sheaf is not simple along any component
        hyper = _hyperplanes(field, N)
        for mats in itertools.product(_invertible_matrices(field, N), repeat=n):
            probe = SheafData(field, braid, N, list(mats),
                              [Subspace.full(field, N)] * n)
            if any(probe.M[q - 1] != probe.transport(geom.transported[q - 1])
                   for q in range(1, n + 1)):
                continue
            # the hyperplanes each meridian fixes pointwise
            stalk_options = [[h for h in hyper if _first_moved(field.p, mat, h) is None]
                             for mat in mats]
            for walls in itertools.product(*stalk_options):
                sheaf = SheafData(field, braid, N, list(mats), list(walls))
                if not validate(sheaf).ok:
                    continue
                if global_sections(sheaf).dim != 0 or not is_reduced(sheaf):
                    continue
                if any(isomorphic(sheaf, other) is not None for other in reps):
                    continue
                reps.append(sheaf)
    return reps
