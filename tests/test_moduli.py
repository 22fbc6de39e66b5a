import hashlib
import itertools
import json
import random

import pytest

from cordsheaf.braid import BraidWord, component_map
from cordsheaf.cordaug import (AugCandidate, DilationParam, apply_dilation, canonical_form,
                               check_relations, degenerate_components, index_sets,
                               zero_row_components)
from cordsheaf.correspondence import _AugLayout, aug_to_sheaf
from cordsheaf.field import FieldSpec
from cordsheaf.linalg import Matrix
from cordsheaf.moduli import (BudgetExceededError, enumerate_augs,
                              enumerate_sheaves_direct, markov_compare,
                              quotient_by_dilation, search_space_size,
                              verify_bijection)
from cordsheaf.sheafmodel import global_sections, isomorphic, stabilized_space

import certificate_reference as reference
from certificate_reference import SCANNED

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)

UNKNOT = BraidWord(1, [])
UNLINK2 = BraidWord(2, [])
UNLINK3 = BraidWord(3, [])
HOPF = BraidWord(2, [1, 1])
TREFOIL = BraidWord(2, [1, 1, 1])


def test_search_space_and_budget():
    assert search_space_size(UNLINK3, F5) == 5 ** 6 * 4 ** 6
    with pytest.raises(BudgetExceededError):
        enumerate_augs(UNLINK3, F5, budget=10 ** 6)
    with pytest.raises(ValueError, match="budget must be >= 0"):
        enumerate_augs(UNKNOT, F3, budget=-1)


def test_unknot_counts():
    # n = 1 leaves the normalization plus the trivial-longitude relation
    # (lambda - 1)(1 - mu) = 0; an inline oracle spells that out
    for field in (F2, F3, F5):
        pts = enumerate_augs(UNKNOT, field)
        expected = set()
        for lam in field.elements(nonzero=True):
            for mu in field.elements(nonzero=True):
                if ((lam - field.one()) * (field.one() - mu)).is_zero():
                    expected.add((lam, mu))
        assert {(c.lam[0], c.mu[0]) for c in pts} == expected
        orbits = quotient_by_dilation(pts)
        assert len(orbits) == len(pts)  # knots: reduced dilations act trivially
        assert all(o.size == 1 for o in orbits)
    assert len(enumerate_augs(UNKNOT, F3)) == 3


def test_two_unlink_f2_count():
    # over F_2 all units are 1, the diagonal is then zero, and the two mixed
    # entries are free: four candidates, all singleton orbits
    pts = enumerate_augs(UNLINK2, F2)
    assert len(pts) == 4
    orbits = quotient_by_dilation(pts)
    assert len(orbits) == 4


def test_enumeration_closed_under_dilation():
    for braid, field in ((UNLINK2, F3), (HOPF, F3), (TREFOIL, F3)):
        pts = enumerate_augs(braid, field)
        keys = {(c.R, c.lam, c.mu) for c in pts}
        cm = component_map(braid)
        units = list(field.elements(nonzero=True))
        for cand in pts:
            for d in itertools.product(units, repeat=cm.r):
                moved = apply_dilation(cand, DilationParam(list(d)))
                assert (moved.R, moved.lam, moved.mu) in keys


def _full_scan(braid, field, sample=100):
    """The enumeration as a scan certifying every tuple with the test-side
    reference verdict (full products, stopping at the first broken
    identity), in lexicographic order: mu, then lambda, then the off-diagonal
    entries of R row by row.  enumerate_augs certifies only canonical tuples,
    on raw values, and must return exactly the kept list.  Also returns a
    seeded sample of the rejected candidates, at most sample of them."""
    cm = component_map(braid)
    n, r, p = braid.n, cm.r, field.p
    units = list(field.elements(nonzero=True))
    rng = random.Random(f"{list(braid.word)}/{n}/F{p}")
    kept, rejected, seen = [], [], 0
    for mu in itertools.product(units, repeat=r):
        diag = [(1 - mu[s - 1].value) % p for s in cm.labels]
        for lam in itertools.product(units, repeat=r):
            for values in itertools.product(range(p), repeat=n * (n - 1)):
                rows = [values[i * (n - 1):i * n] + (x,) + values[i * n:(i + 1) * (n - 1)]
                        for i, x in enumerate(diag)]
                cand = AugCandidate(field, cm, Matrix._from_values(field, rows), lam, mu)
                if reference.verdict(cand, braid):
                    kept.append(cand)
                    continue
                # reservoir sampling: each rejected tuple is kept with equal odds
                if seen < sample:
                    rejected.append(cand)
                else:
                    k = rng.randrange(seen + 1)
                    if k < sample:
                        rejected[k] = cand
                seen += 1
    return kept, rejected


@pytest.mark.parametrize("braid, field", SCANNED,
                         ids=[f"{list(b.word)}/{b.n}/F{f.p}" for b, f in SCANNED])
def test_enumeration_equals_the_full_scan(braid, field):
    pts = enumerate_augs(braid, field)
    kept, rejected = _full_scan(braid, field)
    assert pts == kept
    # the reference's verdict is check_relations's on every kept tuple and
    # on the sample of rejected ones
    for cand in pts:
        assert check_relations(cand, braid).ok, cand.to_json()
    for cand in rejected:
        assert not check_relations(cand, braid).ok, cand.to_json()


def _quotient_by_canonical_form(points):
    """The orbits as (representative JSON, size), in first-seen order, keyed
    on canonical_form's representative."""
    orbits: dict = {}
    for cand in points:
        rep, _ = canonical_form(cand)
        key = (rep.R, rep.lam, rep.mu)
        if key not in orbits:
            orbits[key] = [rep.to_json(), 0]
        orbits[key][1] += 1
    return [tuple(entry) for entry in orbits.values()]


@pytest.mark.parametrize("braid, field", SCANNED,
                         ids=[f"{list(b.word)}/{b.n}/F{f.p}" for b, f in SCANNED])
def test_quotient_equals_the_canonical_form_reference(braid, field):
    # in enumeration order an orbit's first member is canonical; reversed,
    # it is not, and the representative must be built
    pts = enumerate_augs(braid, field)
    for points in (pts, pts[::-1]):
        orbits = quotient_by_dilation(points)
        assert [(o.rep.to_json(), o.size) for o in orbits] == _quotient_by_canonical_form(points)


def test_enumeration_reaches_orbits_whose_forest_starts_off_component_1():
    # the spanning-forest counterexample: components 2 and 3 are joined by
    # R[2][3] before R[3][1] links either of them to component 1, so a
    # canonical tuple has R[2][3] = 1 only once R[3][1] pinned component 3
    pts = enumerate_augs(UNLINK3, F3)
    keys = {(c.R, c.lam, c.mu) for c in pts}
    chained = [c for c in pts if c.R.values[0] == (0, 0, 0) and c.R.values[1][0] == 0
               and c.R.values[1][2] and c.R.values[2][0]]
    assert len(chained) >= 4
    units = list(F3.elements(nonzero=True))
    for cand in chained:
        rep, _ = canonical_form(cand)
        assert rep.R.values[2][0] == rep.R.values[1][2] == 1
        assert (rep.R, rep.lam, rep.mu) in keys
        orbit = {apply_dilation(cand, DilationParam([F3.one(), d2, d3])).R
                 for d2 in units for d3 in units}
        assert len(orbit) == 4
        assert all((R, cand.lam, cand.mu) in keys for R in orbit)


def test_orbit_sizes_partition_points():
    for braid, field in ((UNLINK2, F3), (HOPF, F3), (UNLINK3, F2)):
        pts = enumerate_augs(braid, field)
        orbits = quotient_by_dilation(pts)
        assert sum(o.size for o in orbits) == len(pts)
        cm = component_map(braid)
        group_order = (field.p - 1) ** (cm.r - 1)
        for o in orbits:
            assert group_order % o.size == 0


def test_hopf_component_swap_symmetry():
    # swapping the two components is a symmetry of the candidate set
    pts = enumerate_augs(HOPF, F3)
    keys = {(tuple(tuple(x.value for x in row) for row in c.R.entries),
             tuple(x.value for x in c.lam), tuple(x.value for x in c.mu))
            for c in pts}
    swapped = set()
    for R, lam, mu in keys:
        R2 = ((R[1][1], R[1][0]), (R[0][1], R[0][0]))
        swapped.add((R2, (lam[1], lam[0]), (mu[1], mu[0])))
    assert keys == swapped


def test_enumerated_candidates_pass_the_full_certificate():
    # verify_bijection round-trips enumerated candidates without certifying
    # them again, which relies on this
    for braid, field in ((UNLINK2, F7), (UNLINK2, F5), (UNLINK3, F2), (TREFOIL, F5),
                         (HOPF, F5)):
        pts = enumerate_augs(braid, field)
        assert pts
        for cand in pts:
            report = check_relations(cand, braid, full=True)
            assert report.ok, (braid, field, cand, report.failures[:3])


def _equivalence_invariants(sheaf):
    """Conjugation-invariant data separating inequivalent objects cheaply."""
    deg = tuple((d.component, str(d.alpha)) for d in sheaf.deg)
    chars = tuple(sorted(tuple(str(c) for c in m.charpoly()) for m in sheaf.M))
    wdims = tuple(sorted(w.dim for w in sheaf.W))
    return (sheaf.N, stabilized_space(sheaf).dim, deg, chars, wdims)


def test_verify_bijection_clean_cases():
    for braid, field in ((UNKNOT, F2), (UNKNOT, F3), (UNLINK2, F2), (UNLINK2, F3),
                         (TREFOIL, F2), (TREFOIL, F3), (UNLINK3, F2)):
        report = verify_bijection(braid, field)
        assert report.ok, (braid, field, report.failures[:3])
        assert len(report.orbits) == len(report.sheaf_reps)
        # verify_bijection searches for collisions only among representatives
        # inducing the same canonical form; here every pair the invariants
        # cannot separate is searched
        groups: dict = {}
        for k, sheaf in enumerate(report.sheaf_reps):
            groups.setdefault(_equivalence_invariants(sheaf), []).append(k)
        for group in groups.values():
            for a, b in itertools.combinations(group, 2):
                assert isomorphic(report.sheaf_reps[a], report.sheaf_reps[b]) is None, \
                    (braid, field, a, b)


def test_hopf_phantom_augmentations():
    """The open finding this artifact documents: over any field the Hopf link
    admits augmentations where a non-degenerate component has all rows of R
    zero and a nonzero column, and no valid sheaf datum of this model
    realizes them.  The bijection check reports exactly those orbits; the
    mirror configuration (zero column, nonzero row) stays clean."""
    for field, expect_kinds in ((F2, {"invalid-sheaf"}),
                                (F3, {"invalid-sheaf", "roundtrip-aug",
                                      "roundtrip-sheaf", "wrong-orbit"})):
        report = verify_bijection(HOPF, field)
        assert not report.ok
        assert {f["kind"] for f in report.failures} <= expect_kinds
        # every failing orbit is in the class: some non-degenerate component
        # has zero rows and a nonzero column
        bad_orbits = set()
        for f in report.failures:
            if f["location"].startswith("representative") or f["location"].startswith("orbit"):
                bad_orbits.add(int(f["location"].split()[-1].strip(",")))
        assert bad_orbits
        for k in bad_orbits:
            cand = report.orbits[k].rep
            assert zero_row_components(cand), cand.to_json()
        # orbits outside the class are all clean
        for k, orbit in enumerate(report.orbits):
            if not zero_row_components(orbit.rep):
                assert k not in bad_orbits


def test_direct_enumeration_cross_check():
    # unknot as the closure of sigma_1: the single reduced class over F_2/F_3
    # is found both through augmentations and by direct search
    braid = BraidWord(2, [1])
    for field in (F2, F3):
        direct = enumerate_sheaves_direct(braid, field, max_dim=2)
        orbits = quotient_by_dilation(enumerate_augs(braid, field))
        via_aug = [aug_to_sheaf(o.rep, braid) for o in orbits]
        small = [s for s in via_aug if not s.deg and s.N <= 2]
        assert len(direct) == len(small)
    # trefoil over F_2: one nondegenerate class
    direct = enumerate_sheaves_direct(TREFOIL, F2, max_dim=2)
    orbits = quotient_by_dilation(enumerate_augs(TREFOIL, F2))
    via_aug = [aug_to_sheaf(o.rep, TREFOIL) for o in orbits]
    small = [s for s in via_aug if not s.deg and s.N <= 2]
    assert len(direct) == len(small) == 1


def test_direct_enumeration_exposes_hopf_gap():
    # the independent route confirms the phantom finding: no reduced sheaf
    # classes at dimension <= 2 over F_2, against two nondegenerate orbits
    direct = enumerate_sheaves_direct(HOPF, F2, max_dim=2)
    assert direct == []
    orbits = quotient_by_dilation(enumerate_augs(HOPF, F2))
    nondeg = [o for o in orbits
              if not degenerate_components(o.rep)]
    assert len(nondeg) == 2


def test_enumerate_sheaf_moduli_counts():
    # the sheaf moduli through the augmentation side: one sheaf per orbit
    orbits = quotient_by_dilation(enumerate_augs(TREFOIL, F3))
    sheaves = [aug_to_sheaf(o.rep, TREFOIL) for o in orbits]
    assert len(sheaves) == len(orbits)


def test_markov_unknot_triple():
    for field in (F2, F3):
        for other in (BraidWord(2, [1]), BraidWord(2, [-1])):
            rep = markov_compare(UNKNOT, other, field)
            assert rep.ok, rep.to_json()
            assert rep.counts[0] == rep.counts[1]


def test_markov_hopf_moves():
    stab = BraidWord(3, [1, 1, 2])
    for field in (F2, F3):
        rep = markov_compare(HOPF, stab, field)
        assert rep.ok, rep.to_json()
    conj_pair = (BraidWord(3, [1, 1]), BraidWord(3, [-2, 1, 1, 2]))
    for field in (F2, F3):
        rep = markov_compare(*conj_pair, field)
        assert rep.ok, rep.to_json()


def test_moduli_report_json():
    report = verify_bijection(UNKNOT, F3)
    data = report.to_json()
    assert data["aug_orbit_sizes"] == [1, 1, 1]
    assert data["failures"] == []
    assert len(data["bijection"]) == 3


def test_orbit_representatives_are_enumerated_candidates():
    # verify_bijection builds each representative's sheaf without certifying
    # it, which relies on this
    for braid, field in ((UNLINK2, F7), (UNLINK2, F5), (UNLINK3, F2), (TREFOIL, F5),
                         (HOPF, F5), (BraidWord(2, [1, 1, 1, 1]), F5),
                         (BraidWord(3, [1, -2, 1, -2]), F3)):
        pts = enumerate_augs(braid, field)
        keys = {(c.R, c.lam, c.mu) for c in pts}
        for orbit in quotient_by_dilation(pts):
            assert (orbit.rep.R, orbit.rep.lam, orbit.rep.mu) in keys, (braid, field)


# (braid1, braid2, p) -> (orbit counts, unmatched entries from braid1, from
# braid2, SHA-1 of the JSON list of unmatched signatures)
PINNED_MARKOV = [
    ((2, [1, 1]), (3, [-2, 1, 1, 2]), 3, (16, 328), 16, 328,
     "b00444e525fd2ff51a1b5845365c96834ab409e9"),
    ((2, [1, 1]), (2, [1, 1, 1, 1]), 3, (16, 18), 5, 7,
     "848a5c47f5cd92255a2970f14f98d66d9e65d59a"),
    ((2, []), (2, [1, 1]), 3, (25, 16), 14, 5, "17a9fe340d4a82ae4f724da9199b802ee44cd257"),
]


@pytest.mark.parametrize("first, second, p, counts, left, right, digest", PINNED_MARKOV)
def test_markov_unmatched_signatures_are_pinned(first, second, p, counts, left, right, digest):
    # different links: the unmatched signatures of both sides, interleaved
    # in signature order, with the matched ones left out
    report = markov_compare(BraidWord(*first), BraidWord(*second), FieldSpec.prime(p))
    assert report.counts == counts
    sides = [side for side, _ in report.unmatched]
    assert (sides.count("braid1"), sides.count("braid2")) == (left, right)
    signatures = [sig for _, sig in report.unmatched]
    assert signatures == sorted(signatures)
    data = json.dumps(report.to_json()["unmatched_signatures"]).encode()
    assert hashlib.sha1(data).hexdigest() == digest


@pytest.mark.parametrize("braid, field", SCANNED,
                         ids=[f"{list(b.word)}/{b.n}/F{f.p}" for b, f in SCANNED])
def test_layout_sheaves_have_no_global_sections(braid, field):
    # a layout sheaf's functionals are injective on its coordinates, so its
    # stalks meet in zero; verify_bijection reads every representative's
    # augmentation off the sheaf round trip, which stops only when Gamma != 0
    for cand in enumerate_augs(braid, field):
        sheaf = _AugLayout(cand, index_sets(cand)).sheaf(braid)
        assert global_sections(sheaf).dim == 0, cand.to_json()


# (braid, field) -> number of failures and SHA-1 of the report's JSON
FORCED_COLLISIONS = [(UNLINK2, F2, 6, "d5d3522309cc0413f02f9b26ae423a407bb7e29f"),
                     (UNKNOT, F5, 15, "e9dfa3ccc5dcdd791b53a8daadff53b91f812659"),
                     (UNLINK2, F3, 142, "3be0cfe425d382fa6516471931e1a74b534b329d")]


@pytest.mark.parametrize("braid, field, failures, digest", FORCED_COLLISIONS)
def test_collision_entries(monkeypatch, braid, field, failures, digest):
    # no instance reaches the collision branch: distinct orbits induce
    # distinct canonical forms.  Here every representative induces the first
    # one's, and sheaves of equal dimension are called isomorphic, so each
    # such pair is one collision entry, in order.
    from cordsheaf import moduli
    real = moduli._roundtrip_sheaf
    induced = []

    def first_induced(sheaf):
        diff, eps = real(sheaf)
        induced.append(eps)
        return diff, induced[0]

    monkeypatch.setattr(moduli, "_roundtrip_sheaf", first_induced)
    monkeypatch.setattr(moduli, "isomorphic",
                        lambda F, G: Matrix.identity(F.field, F.N) if F.N == G.N else None)
    report = verify_bijection(braid, field)
    dims = [s.N for s in report.sheaf_reps]
    assert [f for f in report.failures if f["kind"] == "collision"] == [
        {"kind": "collision", "location": f"representatives {a}, {b}",
         "detail": "distinct orbits gave equivalent sheaves"}
        for a, b in itertools.combinations(range(len(dims)), 2) if dims[a] == dims[b]]
    assert len(report.failures) == failures
    data = json.dumps(report.to_json(), sort_keys=True).encode()
    assert hashlib.sha1(data).hexdigest() == digest
