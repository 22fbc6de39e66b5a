"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 2 and 3 contain assertions that are known to be unattainable as
stated; they keep failing, and before they do they pin the failures to the
exact class analyzed in the README's Findings section:

* Hopf-link augmentations without a sheaf: candidates on the Hopf link where
  some non-degenerate component has all rows of R zero and a nonzero column.
  Every such orbit fails and no other does; the mirror configuration (zero
  column, nonzero row) round-trips cleanly, and so does the same zero-row
  configuration on split links (the worked three-unlink example is one).  The
  candidates satisfy every framed cord algebra relation, but in this sheaf
  model the commuting Hopf meridians, or the stalk compatibility along the
  longitude, leave them without an object.

Criterion 7 checks once_stabilized against what it is documented to do: it
is the identity on stable objects and is not idempotent in general.  Every
object where a second application shrinks the result has a strand whose
meridian is nontrivial and whose stalk contains V_0.  That class is
necessary, not sufficient: most pool objects in it are idempotent.

Every other assertion is expected to hold exactly.
"""

import itertools
import random
import time

import pytest

from cordsheaf.braid import BraidWord, MeridianWord, component_map, geometry
from cordsheaf.cordaug import (AugCandidate, DilationParam, apply_dilation,
                               canonical_form, check_relations, index_sets,
                               zero_column_components, zero_row_components)
from cordsheaf.correspondence import (LocalTrivialization, aug_to_sheaf,
                                      aug_to_subsheaf, canonical_trivialization,
                                      choose_trivialization, diff_candidates,
                                      pure_cord_trace, sheaf_to_aug)
from cordsheaf.field import FieldSpec
from cordsheaf.linalg import Matrix, Subspace
from cordsheaf.moduli import markov_compare, search_space_size, verify_bijection
from cordsheaf.sheafmodel import (global_sections, is_reduced, is_stable,
                                  once_stabilized, stabilized_space, validate)

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)

SUITE = [
    ("unknot", BraidWord(1, [])),
    ("2-unlink", BraidWord(2, [])),
    ("3-unlink", BraidWord(3, [])),
    ("hopf", BraidWord(2, [1, 1])),
    ("trefoil", BraidWord(2, [1, 1, 1])),
]
F5_SPACE_CAP = 10 ** 4  # "F_5 where budget allows"

_REPORTS = {}


def suite_instances():
    for name, braid in SUITE:
        for field in (F2, F3, F5):
            if field is F5 and search_space_size(braid, field) > F5_SPACE_CAP:
                continue
            yield name, braid, field


def report_for(braid, field):
    key = (braid, field)
    if key not in _REPORTS:
        _REPORTS[key] = verify_bijection(braid, field)
    return _REPORTS[key]


def in_failure_class(cand) -> bool:
    """Some non-degenerate component has all rows of R zero and a nonzero column."""
    return bool(zero_row_components(cand))


def failing_orbits(report) -> set[int]:
    """Indices of the orbits named by the report's failures; a failing
    candidate counts against the orbit of its canonical form."""
    index = {(o.rep.R, o.rep.lam, o.rep.mu): k for k, o in enumerate(report.orbits)}
    out = set()
    for f in report.failures:
        where, _, rest = f["location"].partition(" ")
        if where == "candidate":
            rep, _ = canonical_form(report.aug_points[int(rest)])
            out.add(index[(rep.R, rep.lam, rep.mu)])
        elif where in ("orbit", "representative", "representatives"):
            out.update(int(k) for k in rest.split(","))
    return out


def outcome(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))


def test_criterion_1_worked_example_golden():
    start = time.time()
    cm = component_map(BraidWord(3, []))
    one = F5.one()
    R = Matrix.from_rows(F5, [[0, 1, 1], [0, 0, 0], [0, 1, 2]])
    cand = AugCandidate(F5, cm, R, [one] * 3, [one, one, one - F5.scalar(2)])
    braid = BraidWord(3, [])

    sub = aug_to_subsheaf(cand, braid)
    assert sub.N == 2
    assert sub.M[0].is_identity() and sub.M[1].is_identity()
    assert sub.M[2] == Matrix.from_rows(F5, [[1, 0], [-1, -1]])

    sheaf = aug_to_sheaf(cand, braid)
    assert sheaf.M[0] == Matrix.identity(F5, 3)
    assert sheaf.M[1] == Matrix.from_rows(F5, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    assert sheaf.M[2] == Matrix.from_rows(F5, [[1, 0, 0], [0, 1, 0], [0, -1, -1]])
    spans = [[[1, 0, 0], [0, -1, 1]], [[0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, -2, 1]]]
    for i, vectors in enumerate(spans):
        want = Subspace.from_vectors(F5, 3, [[F5.scalar(x) for x in v] for v in vectors])
        assert sheaf.W[i] == want

    triv = canonical_trivialization(cand)
    # f_2 and its inverse carry the documented -1 normalization; the others
    # are exactly the displayed functionals
    assert triv.f[0] == Matrix.from_rows(F5, [[0, 1, 1]])
    assert triv.f[1] == Matrix.from_rows(F5, [[-1, 0, 0]])
    assert triv.f[2] == Matrix.from_rows(F5, [[0, 1, 2]])
    assert triv.finv[0] == Matrix.from_rows(F5, [[0], [0], [1]])
    assert triv.finv[1] == Matrix.from_rows(F5, [[-1], [0], [0]])
    assert triv.finv[2] == Matrix.from_rows(F5, [[0], [0], [3]])

    back = sheaf_to_aug(sheaf, triv)
    assert diff_candidates(cand, back).empty
    elapsed = time.time() - start
    assert elapsed < 1.0, f"golden pipeline took {elapsed:.2f}s"
    outcome("criterion 1 (worked-example golden test)", True, f"{elapsed * 1000:.0f} ms")


def test_criterion_2_roundtrip_suite():
    start = time.time()
    failures = []
    for name, braid, field in suite_instances():
        report = report_for(braid, field)
        for f in report.failures:
            if f["kind"] in ("roundtrip-aug", "roundtrip-sheaf", "error"):
                failures.append((name, field, f))
    elapsed = time.time() - start
    assert elapsed < 300, f"round-trip suite took {elapsed:.0f}s"
    if failures:
        # every failure is on the Hopf link and in the exact class
        for name, field, f in failures:
            report = _REPORTS[(dict(SUITE)[name], field)]
            idx = int(f["location"].split()[-1])
            cand = (report.aug_points[idx] if f["kind"] == "roundtrip-aug"
                    else report.orbits[idx].rep)
            assert name == "hopf" and in_failure_class(cand), (name, field, f)
        outcome("criterion 2 (round-trip suite)", False,
                f"{len(failures)} failures, all Hopf-link zero-row/nonzero-column "
                "candidates (see README, Findings)")
        pytest.fail(
            f"{len(failures)} round trips fail, every one on a Hopf-link "
            "candidate where a non-degenerate component has all rows of R zero "
            "and a nonzero column, which has no object in this sheaf model (see "
            "the commutation argument f_1(u_2) u_1 f_2 = f_2(u_1) u_2 f_1 in "
            "README, Findings)")
    outcome("criterion 2 (round-trip suite)", True, f"{elapsed:.0f}s")


# Hopf-link orbits outside the failure class that have a zero-column,
# nonzero-row component, by field characteristic; they must stay clean
HOPF_ZERO_COLUMN_ORBITS = {2: 0, 3: 2, 5: 6}


def test_criterion_3_bijection_counts():
    failures = []
    for name, braid, field in suite_instances():
        report = report_for(braid, field)
        assert len(report.orbits) == len(report.sheaf_reps)
        if report.ok:
            continue
        failures.append((name, str(field), len(report.failures)))
        assert name == "hopf", failures
        # orbit level, both ways: the failing orbits are exactly the class
        bad = failing_orbits(report)
        in_class = {k for k, o in enumerate(report.orbits) if in_failure_class(o.rep)}
        assert bad == in_class, (str(field), sorted(bad), sorted(in_class))
        zero_column_only = {k for k, o in enumerate(report.orbits)
                            if zero_column_components(o.rep)} - in_class
        assert len(zero_column_only) == HOPF_ZERO_COLUMN_ORBITS[field.p]
    if failures:
        outcome("criterion 3 (bijection counts)", False,
                f"hopf instances fail exactly on the zero-row/nonzero-column "
                f"orbits: {failures}")
        pytest.fail(
            f"verify_bijection reports failures on {failures}; the failing "
            "orbits are exactly the Hopf-link orbits where a non-degenerate "
            "component has all rows of R zero and a nonzero column, which have "
            "no object in this sheaf model (see the commutation argument "
            "f_1(u_2) u_1 f_2 = f_2(u_1) u_2 f_1 in README, Findings)")
    outcome("criterion 3 (bijection counts)", True)


def test_criterion_4_property_transport_table():
    checked = 0
    for name, braid, field in suite_instances():
        report = report_for(braid, field)
        for orbit in report.orbits:
            cand = orbit.rep
            sheaf = aug_to_sheaf(cand, braid)
            sets = index_sets(cand)
            eye = Matrix.identity(field, sheaf.N)
            assert is_reduced(sheaf) == (not (sets.I_dprime & sets.J_dprime)), cand.to_json()
            assert is_stable(sheaf) == (not sets.I_dprime), cand.to_json()
            all_nontrivial = all(not m.is_identity() or sheaf.N == 0 for m in sheaf.M) \
                and sheaf.N > 0
            assert all_nontrivial == (not sets.J_dprime) or sheaf.N == 0, cand.to_json()
            if sheaf.N == 0:
                assert sets.J_dprime  # everything degenerate
            generic = (not sets.I_dprime) and (not sets.J_dprime)
            assert (is_stable(sheaf) and all_nontrivial) == generic, cand.to_json()
            checked += 1
    assert checked > 1500
    outcome("criterion 4 (property transport table)", True, f"{checked} pairs")


def _valid_sheaf_pool(limit=None):
    pool = []
    for name, braid, field in suite_instances():
        report = report_for(braid, field)
        for orbit in report.orbits:
            sheaf = aug_to_sheaf(orbit.rep, braid)
            if validate(sheaf).ok:
                pool.append((orbit.rep, braid, sheaf))
    if limit:
        pool = pool[:limit]
    return pool


def _random_coherent_trivialization(sheaf, rng):
    base = choose_trivialization(sheaf)
    field = sheaf.field
    comps = sheaf.components
    units = list(field.elements(nonzero=True))
    scale = {s: rng.choice(units) for s in range(1, comps.r + 1)}
    f, finv = [], []
    for i in range(1, sheaf.braid.n + 1):
        if base.f[i - 1] is None:
            f.append(None)
            finv.append(None)
            continue
        c = scale[comps.component(i)]
        fi = base.f[i - 1].scaled(c)
        vec = base.finv[i - 1].scaled(c.inv())
        wall = sheaf.W[i - 1]
        if wall.dim and rng.random() < 0.7:
            w = wall.basis.col(rng.randrange(wall.dim))
            vec = vec + Matrix.column(field, w)
        f.append(fi)
        finv.append(vec)
    return LocalTrivialization(f, finv)


def test_criterion_5_gauge_invariances():
    rng = random.Random(0)
    pool = [(c, b, s) for c, b, s in _valid_sheaf_pool() if s.N > 0]
    assert len(pool) >= 100
    sampled = 0
    for cand, braid, sheaf in pool:
        field = sheaf.field
        eye = Matrix.identity(field, sheaf.N)
        triv = _random_coherent_trivialization(sheaf, rng)
        for i in range(1, sheaf.braid.n + 1):
            if triv.f[i - 1] is None:
                continue
            lhs = (eye - sheaf.M[i - 1]) * (triv.finv[i - 1] * triv.f[i - 1])
            assert lhs == eye - sheaf.M[i - 1]
        # right-inverse independence
        base = choose_trivialization(sheaf)
        finv2 = []
        for i in range(1, sheaf.braid.n + 1):
            if base.finv[i - 1] is None:
                finv2.append(None)
                continue
            vec = base.finv[i - 1]
            if sheaf.W[i - 1].dim:
                w = sheaf.W[i - 1].basis.col(rng.randrange(sheaf.W[i - 1].dim))
                vec = vec + Matrix.column(field, w)
            finv2.append(vec)
        a = sheaf_to_aug(sheaf, base)
        b = sheaf_to_aug(sheaf, LocalTrivialization(base.f, finv2))
        assert diff_candidates(a, b).empty
        # trivialization covariance up to dilation
        t2 = _random_coherent_trivialization(sheaf, rng)
        c2 = sheaf_to_aug(sheaf, t2)
        assert diff_candidates(canonical_form(a)[0], canonical_form(c2)[0]).empty
        # pure-cord trace formulas against the trivialization formula
        comps = sheaf.components
        geom = geometry(sheaf.braid)
        deg = {d.component for d in sheaf.deg}
        for s in range(1, comps.r + 1):
            if s in deg:
                continue
            bstr = comps.base_strand(s)
            for loop in (MeridianWord.identity(), MeridianWord.generator(bstr),
                         geom.longitudes[s]):
                lam_t, mu_t, cord_t = pure_cord_trace(sheaf, s, loop)
                assert lam_t == a.lam[s - 1]
                assert mu_t == a.mu[s - 1]
                direct = (base.f[bstr - 1] * (sheaf.transport(loop)
                          * ((eye - sheaf.M[bstr - 1]) * base.finv[bstr - 1])))[0, 0]
                assert cord_t == direct
        sampled += 1
    outcome("criterion 5 (gauge invariances)", True, f"{sampled} sheaf samples")


def test_criterion_6_markov_invariance():
    unknot_pairs = [
        (BraidWord(1, []), BraidWord(2, [1])),
        (BraidWord(1, []), BraidWord(2, [-1])),
        (BraidWord(2, [1]), BraidWord(2, [-1])),
    ]
    # sigma_2^-1 sigma_1^2 sigma_2 in Br_3 closes to the Hopf link plus a
    # split unknot, so it is compared against sigma_1^2 in Br_3; the genuine
    # Hopf pair is the positive stabilization.
    hopf_pairs = [
        (BraidWord(2, [1, 1]), BraidWord(3, [1, 1, 2])),
        (BraidWord(3, [1, 1]), BraidWord(3, [-2, 1, 1, 2])),
    ]
    results = []
    for b1, b2 in unknot_pairs + hopf_pairs:
        for field in (F2, F3):
            rep = markov_compare(b1, b2, field)
            results.append(rep.ok)
            assert rep.ok, rep.to_json()
    outcome("criterion 6 (Markov invariance)", True, f"{len(results)} comparisons")


def test_criterion_7_structural_invariants():
    rng = random.Random(1)
    pool = _valid_sheaf_pool()
    sheaves = [s for _, _, s in pool]
    assert len(sheaves) >= 1000

    # Gamma(F) is fixed by every meridian matrix
    for sheaf in sheaves:
        gamma = global_sections(sheaf)
        for j in range(gamma.dim):
            col = Matrix.column(sheaf.field, gamma.basis.col(j))
            for m in sheaf.M:
                assert m * col == col

    # universality of the stabilized subspace: over F_2 at dimension <= 3,
    # every invariant subspace with trivial quotient action contains V_0
    from cordsheaf.correspondence import extend_by_constant
    universality_pool = [s for s in sheaves if s.field == F2 and 0 < s.N <= 3]
    universality_pool += [extend_by_constant(s, 1) for s in sheaves
                          if s.field == F2 and 0 < s.N <= 2]
    universality_pool += [extend_by_constant(s, 2) for s in sheaves
                          if s.field == F2 and 0 < s.N <= 1]
    universality_cases = 0
    for sheaf in universality_pool:
        V0 = stabilized_space(sheaf)
        for sub in _all_subspaces_f2(sheaf.N):
            universality_cases += 1
            if sub.dim == sheaf.N:
                continue
            invariant = all(sub.apply(m) == sub for m in sheaf.M)
            if not invariant:
                continue
            trivial_quotient = all(
                sub.contains(((m - Matrix.identity(F2, sheaf.N))
                              * Matrix.column(F2, [F2.one() if k == a else F2.zero()
                                                   for k in range(sheaf.N)])).col(0))
                for m in sheaf.M for a in range(sheaf.N))
            if trivial_quotient:
                assert sub.contains_subspace(V0), sheaf
    assert universality_cases >= 1000

    # dilation action group laws on candidates
    law_cases = 0
    by_braid = {}
    for cand, braid, _ in pool:
        by_braid.setdefault((braid, cand.field), []).append(cand)
    for (braid, field), cands in by_braid.items():
        units = list(field.elements(nonzero=True))
        r = cands[0].r
        for _ in range(300):
            cand = rng.choice(cands)
            d1 = DilationParam([rng.choice(units) for _ in range(r)])
            d2 = DilationParam([rng.choice(units) for _ in range(r)])
            lhs = apply_dilation(apply_dilation(cand, d1), d2)
            rhs = apply_dilation(cand, DilationParam([a * b for a, b in zip(d1.d, d2.d)]))
            assert lhs.R == rhs.R
            assert check_relations(lhs, braid).ok
            law_cases += 1
    assert law_cases >= 1000

    # once_stabilized is the identity on stable objects but not idempotent in
    # general; where a second application shrinks an object, some strand has
    # a nontrivial meridian whose stalk contains V_0 (see README, Findings)
    stable_cases, shrinking = 0, 0
    for sheaf in sheaves:
        first = once_stabilized(sheaf)
        if is_stable(sheaf):
            assert first == sheaf, sheaf
            stable_cases += 1
        if once_stabilized(first) != first:
            V0 = stabilized_space(sheaf)
            assert any(not m.is_identity() and w.contains_subspace(V0)
                       for m, w in zip(sheaf.M, sheaf.W)), \
                ("failure outside the documented class", sheaf)
            shrinking += 1
    assert stable_cases >= 1000 and shrinking > 0
    outcome("criterion 7 (structural invariants)", True,
            f"{stable_cases} stable objects fixed, {shrinking} of {len(sheaves)} "
            "objects shrink under a second application, all in the documented class")


def _all_subspaces_f2(n):
    key = n
    if key not in _SUBSPACE_CACHE:
        seen = set()
        out = []
        vectors = [v for v in itertools.product(F2.elements(), repeat=n)]
        for size in range(0, n + 1):
            for combo in itertools.combinations(vectors, size):
                sub = Subspace.from_vectors(F2, n, [list(v) for v in combo])
                if sub not in seen:
                    seen.add(sub)
                    out.append(sub)
        _SUBSPACE_CACHE[key] = out
    return _SUBSPACE_CACHE[key]


_SUBSPACE_CACHE = {}
