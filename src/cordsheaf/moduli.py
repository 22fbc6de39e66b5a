"""Brute-force enumeration of augmentations over small prime fields, the
quotient by reduced dilations, sheaf representatives, and the bijection check.

Enumeration fixes the diagonal of R from mu (the normalization is a hard
constraint), loops over the off-diagonal entries and the unit tuples, and
keeps the candidates passing the relation certificate.  The moduli set of
sheaves is produced through the augmentation side; an optional direct
enumeration of small-dimension representation data cross-checks that nothing
is missed at dimensions <= 2.

Two objects are identified in the sheaf moduli when their degenerate data
agree and their once-stabilized subobjects are isomorphic (the quotient by
local systems collapses exactly the constant directions).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .braid import BraidWord, BudgetExceededError, component_map, geometry
from .cordaug import (AugCandidate, canonical_form, degenerate_components,
                      index_sets, passes_fast)
from .correspondence import (_AugLayout, _roundtrip_layout, _roundtrip_sheaf,
                             aug_to_sheaf, aug_to_subsheaf, choose_trivialization,
                             sheaf_to_aug)
from .field import FieldSpec
from .linalg import Matrix, Subspace, _sub
from .sheafmodel import (SheafData, global_sections, is_reduced, isomorphic,
                         stabilized_space, validate)

DEFAULT_BUDGET = 10 ** 8


def search_space_size(braid: BraidWord, field: FieldSpec) -> int:
    cm = component_map(braid)
    n, r, p = braid.n, cm.r, field.p
    return p ** (n * n - n) * (p - 1) ** (2 * r)


def enumerate_augs(braid: BraidWord, field: FieldSpec,
                   budget: int = DEFAULT_BUDGET) -> list[AugCandidate]:
    """All candidates passing the relation certificate, in lexicographic order."""
    if not field.is_prime_field:
        raise ValueError("enumeration needs a finite field")
    cm = component_map(braid)
    geom = geometry(braid)
    space = search_space_size(braid, field)
    if space > budget:
        raise BudgetExceededError(space, budget)

    n, r, p = braid.n, cm.r, field.p
    units = list(field.elements(nonzero=True))
    # the off-diagonal residues, row by row: row i is values[a:b] + (R[i][i],)
    # + values[b:c]
    cuts = [(i * (n - 1), i * n, (i + 1) * (n - 1)) for i in range(n)]
    out = []
    for mu in itertools.product(units, repeat=r):
        diag = [_sub(p, 1, mu[s - 1].value) for s in cm.labels]
        for lam in itertools.product(units, repeat=r):
            for values in itertools.product(range(p), repeat=n * (n - 1)):
                R = Matrix._from_values(field, [values[a:b] + (x,) + values[b:c]
                                                for x, (a, b, c) in zip(diag, cuts)])
                cand = AugCandidate(field, cm, R, lam, mu)
                if passes_fast(cand, geom):
                    out.append(cand)
    return out


class Orbit:
    """A dilation orbit: canonical representative plus its size."""

    __slots__ = ("rep", "size")

    def __init__(self, rep: AugCandidate, size: int):
        self.rep = rep
        self.size = size

    def __repr__(self) -> str:
        return f"Orbit(size={self.size}, rep={self.rep!r})"


def quotient_by_dilation(points: Sequence[AugCandidate]) -> list[Orbit]:
    """Group candidates by canonical form; first-seen order of representatives."""
    orbits: dict = {}
    order = []
    for cand in points:
        rep, _ = canonical_form(cand)
        key = (rep.R, rep.lam, rep.mu)
        if key not in orbits:
            orbits[key] = Orbit(rep, 0)
            order.append(key)
        orbits[key].size += 1
    return [orbits[k] for k in order]


def equivalent_in_moduli(F: SheafData, G: SheafData) -> bool:
    """Equality in the sheaf moduli for reduced-plus-degenerate representatives.

    Representatives carry no constant fat, so the local-system quotient is
    detected by matching degenerate data and a genuine isomorphism of the
    remaining data.  (Comparing only once-stabilized subobjects is too
    coarse: distinct extensions over the zero-row strands share a
    stabilization but are inequivalent. A test pins a concrete pair.)
    """
    if [(d.component, d.alpha) for d in F.deg] != [(d.component, d.alpha) for d in G.deg]:
        return False
    return isomorphic(F, G) is not None


def _equivalence_invariants(sheaf: SheafData) -> tuple:
    """Conjugation-invariant data separating inequivalent objects cheaply."""
    V0 = stabilized_space(sheaf)
    deg = tuple((d.component, str(d.alpha)) for d in sheaf.deg)
    chars = tuple(sorted(tuple(str(c) for c in m.charpoly()) for m in sheaf.M))
    wdims = tuple(sorted(w.dim for w in sheaf.W))
    return (sheaf.N, V0.dim, deg, chars, wdims)


def enumerate_sheaf_moduli(braid: BraidWord, field: FieldSpec,
                           budget: int = DEFAULT_BUDGET) -> list[SheafData]:
    """Representatives obtained through the augmentation side.

    The pairwise inequivalence of the output is an injectivity statement and
    is re-checked by verify_bijection rather than silently deduplicated.
    """
    orbits = quotient_by_dilation(enumerate_augs(braid, field, budget))
    return [aug_to_sheaf(o.rep, braid) for o in orbits]


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
                     budget: int = DEFAULT_BUDGET,
                     full_collision_scan: bool = False) -> ModuliReport:
    """Enumerate both sides and check they are in bijection.

    Every candidate, not only each orbit representative, must survive the
    augmentation round trip; every sheaf representative must survive the
    sheaf round trip and induce an augmentation back in its paired orbit;
    distinct orbits must give inequivalent sheaves.
    """
    report = ModuliReport(braid, field)
    report.aug_points = enumerate_augs(braid, field, budget)
    report.orbits = quotient_by_dilation(report.aug_points)
    report.notes.append(
        f"{len(report.aug_points)} candidates, {len(report.orbits)} dilation orbits")

    # enumerate_augs kept only candidates passing the relation certificate
    for idx, cand in enumerate(report.aug_points):
        diff = _roundtrip_layout(_AugLayout(cand, index_sets(cand)), braid)
        if not diff.empty:
            report.fail("roundtrip-aug", f"candidate {idx}", diff.entries[:4])

    # each orbit representative is itself an enumerated candidate
    for k, orbit in enumerate(report.orbits):
        sheaf = _AugLayout(orbit.rep, index_sets(orbit.rep)).sheaf(braid)
        vrep = validate(sheaf)
        if not vrep.ok:
            report.fail("invalid-sheaf", f"orbit {k}", vrep.failures[:4])
        report.sheaf_reps.append(sheaf)

    induced_keys: dict = {}
    for k, sheaf in enumerate(report.sheaf_reps):
        try:
            diff, eps = _roundtrip_sheaf(sheaf)
            if not diff.empty:
                report.fail("roundtrip-sheaf", f"representative {k}", diff.entries[:4])
            for note in diff.notes:
                report.notes.append(f"representative {k}: {note}")
            if eps is None:  # the round trip stopped before reading it
                eps = sheaf_to_aug(sheaf, choose_trivialization(sheaf))
            induced, _ = canonical_form(eps)
            rep = report.orbits[k].rep
            if (induced.R, induced.lam, induced.mu) != (rep.R, rep.lam, rep.mu):
                report.fail("wrong-orbit", f"representative {k}",
                            {"expected": rep.to_json(), "got": induced.to_json()})
            induced_keys.setdefault((induced.R, induced.lam, induced.mu), []).append(k)
        except Exception as err:  # keep verifying; each breakage is one report entry
            report.fail("error", f"representative {k}", f"{type(err).__name__}: {err}")
        report.bijection.append((k, k))

    # Injectivity: isomorphic sheaves induce dilation-equivalent augmentations,
    # so distinct induced canonical forms separate the representatives; only
    # canonical-form duplicates need the intertwiner search.
    if full_collision_scan:
        groups: dict = {}
        for k, sheaf in enumerate(report.sheaf_reps):
            groups.setdefault(_equivalence_invariants(sheaf), []).append(k)
        candidates = groups.values()
    else:
        candidates = induced_keys.values()
    for group in candidates:
        for pos, a in enumerate(group):
            for b in group[pos + 1:]:
                if equivalent_in_moduli(report.sheaf_reps[a], report.sheaf_reps[b]):
                    report.fail("collision", f"representatives {a}, {b}",
                                "distinct orbits gave equivalent sheaves")

    if len(report.orbits) != len(report.sheaf_reps):
        report.fail("count", "moduli", f"{len(report.orbits)} != {len(report.sheaf_reps)}")
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
    sig1 = sorted(orbit_signature(braid1, o) for o in orbits1)
    sig2 = sorted(orbit_signature(braid2, o) for o in orbits2)
    i = j = 0
    while i < len(sig1) or j < len(sig2):
        if i < len(sig1) and j < len(sig2) and sig1[i] == sig2[j]:
            i += 1
            j += 1
        elif j >= len(sig2) or (i < len(sig1) and sig1[i] < sig2[j]):
            report.unmatched.append(("braid1", sig1[i]))
            i += 1
        else:
            report.unmatched.append(("braid2", sig2[j]))
            j += 1
    report.notes.append(f"compared {len(sig1)} vs {len(sig2)} orbit signatures")
    return report


# -- independent small-dimension cross-check ---------------------------------------------


def _invertible_matrices(field: FieldSpec, dim: int) -> Iterable[Matrix]:
    for entries in itertools.product(field.elements(), repeat=dim * dim):
        mat = Matrix(field, [list(entries[k * dim:(k + 1) * dim]) for k in range(dim)])
        if mat.is_invertible():
            yield mat


def _hyperplanes(field: FieldSpec, dim: int) -> list[Subspace]:
    seen = set()
    out = []
    for coeffs in itertools.product(field.elements(), repeat=dim):
        if all(c.is_zero() for c in coeffs):
            continue
        sub = Matrix.row_vector(field, list(coeffs)).kernel()
        if sub not in seen:
            seen.add(sub)
            out.append(sub)
    return out


def enumerate_sheaves_direct(braid: BraidWord, field: FieldSpec,
                             max_dim: int = 2) -> list[SheafData]:
    """Enumerate reduced sheaves with no degenerate summand directly from
    meridian-matrix and stalk data, up to moduli equivalence.

    Exponential in every direction; meant only as an independent check that
    the augmentation-side enumeration reaches everything at dimension <= 2.
    """
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
            stalk_options = []
            for i in range(n):
                opts = [h for h in hyper
                        if all((mats[i] * Matrix.column(field, v)).col(0) == tuple(v)
                               for v in h.basis_columns())]
                stalk_options.append(opts)
            for walls in itertools.product(*stalk_options):
                sheaf = SheafData(field, braid, N, list(mats), list(walls))
                if not validate(sheaf).ok:
                    continue
                if global_sections(sheaf).dim != 0 or not is_reduced(sheaf):
                    continue
                if any(equivalent_in_moduli(sheaf, other) for other in reps):
                    continue
                reps.append(sheaf)
    return reps
