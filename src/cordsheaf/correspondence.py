"""Both directions of the augmentation-sheaf correspondence.

Sheaf to augmentation: pick one functional per strand vanishing on the stalk
subspace (a local trivialization) plus a right inverse; standard cords have
identity transport across the disk, so

    R[i][j]   = f_i (Id - M_j) finv_j,
    lambda_s  = f_b rho(longitude_s) finv_b   at the base strand b,
    mu_s      = 1 - f_b (Id - M_b) finv_b,

and split-off degenerate summands contribute lambda = alpha, mu = 1, zero
row and column.

Augmentation to sheaf: the columns of R span the subsheaf, meridians act by
the rank-one updates, and stalks are the kernels of the row functionals.
Zero-row strands of non-degenerate components force one extra dimension R_0
on which their meridians act unipotently, M_i(R_0) = R_0 + R_i.  The
canonical trivialization reads the row functionals back; on the zero-row
strands it is normalized by f_i(R_0) = -1 so that its right inverse -R_0
satisfies (Id - M_i) finv_i = R_i, which is what makes the round trip exact
entry by entry.  (The scale of any f_i is immaterial by dilation
equivalence.)
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .braid import BraidWord, MeridianWord, geometry
from .cordaug import (AugCandidate, check_relations, degenerate_components,
                      index_sets)
from .field import Scalar
from .linalg import Matrix, Subspace
from .reports import DiffReport
from .sheafmodel import (DegenerateSummand, SheafData, global_sections,
                         stabilized_space)


class NotAnAugmentationError(ValueError):
    def __init__(self, report):
        super().__init__(f"candidate fails the relation check: {report.failures[:3]}")
        self.report = report


class InvalidTrivializationError(ValueError):
    pass


class NoTransverseVectorError(RuntimeError):
    """No vector avoids every stalk subspace (field too small for this n)."""


class LocalTrivialization:
    """Per-strand functionals f_i (vanishing on W_i) with right inverses.

    Strands of degenerate components have no stalk drop and carry None.
    """

    __slots__ = ("f", "finv")

    def __init__(self, f: Sequence[Optional[Matrix]], finv: Sequence[Optional[Matrix]]):
        self.f = tuple(f)
        self.finv = tuple(finv)

    def __repr__(self) -> str:
        parts = [m.to_json() if m is not None else None for m in self.f]
        return f"LocalTrivialization(f={parts})"


def _check_trivialization(sheaf: SheafData, triv: LocalTrivialization) -> None:
    deg_strands = sheaf.deg_strands()
    for i in range(1, sheaf.braid.n + 1):
        f_i, finv_i = triv.f[i - 1], triv.finv[i - 1]
        if i in deg_strands:
            if f_i is not None or finv_i is not None:
                raise InvalidTrivializationError(
                    f"strand {i} is degenerate and admits no trivialization")
            continue
        if f_i is None or finv_i is None:
            raise InvalidTrivializationError(f"strand {i} needs a functional")
        if f_i.is_zero():
            raise InvalidTrivializationError(f"f[{i}] vanishes")
        for w in sheaf.W[i - 1].basis_columns():
            if not (f_i * Matrix.column(sheaf.field, w))[0, 0].is_zero():
                raise InvalidTrivializationError(f"f[{i}] does not kill W[{i}]")
        if not (f_i * finv_i)[0, 0].is_one():
            raise InvalidTrivializationError(f"finv[{i}] is not a right inverse")


def choose_trivialization(sheaf: SheafData) -> LocalTrivialization:
    """One functional per component, normalized at the base strand and
    transported to the other strands along the longitude segments.

    The per-strand functionals of one component are not independent: the
    segment transports tie their scales together (with one unit of the
    longitude eigenvalue absorbed at the marked base segment), and only
    coherent families induce augmentations.  The base functional is the
    stalk annihilator scaled so its first nonzero entry is 1; right inverses
    are the deterministic solver's.
    """
    field = sheaf.field
    geom = geometry(sheaf.braid)
    comps = sheaf.components
    deg_strands = sheaf.deg_strands()
    one = field.one()
    f: list[Optional[Matrix]] = [None] * sheaf.braid.n
    finv: list[Optional[Matrix]] = [None] * sheaf.braid.n

    def right_inverse(fi: Matrix) -> Matrix:
        sol = fi.solve(Matrix.column(field, [one]))
        if sol is None:
            raise InvalidTrivializationError("functional vanishes identically")
        return Matrix.column(field, sol)

    for s in range(1, comps.r + 1):
        b = comps.base_strand(s)
        if b in deg_strands:
            continue
        ann = sheaf.W[b - 1].annihilator()
        if ann.rows != 1:
            raise InvalidTrivializationError(
                f"stalk at strand {b} has codimension {ann.rows}, not 1")
        row = list(ann.row(0))
        lead = next(x for x in row if not x.is_zero())
        fb = Matrix.row_vector(field, [lead.inv() * x for x in row])
        f[b - 1] = fb
        finv[b - 1] = right_inverse(fb)
        lam = (fb * (sheaf.transport(geom.longitudes[s]) * finv[b - 1]))[0, 0]
        if lam.is_zero():
            raise InvalidTrivializationError(
                f"longitude of component {s} degenerates on the stalk quotient")
        i = b
        while geom.tau[i - 1] != b:
            nxt = geom.tau[i - 1]
            fi = f[i - 1] * sheaf.transport(geom.segments[i])
            if i == b:
                fi = fi.scaled(lam.inv())
            f[nxt - 1] = fi
            finv[nxt - 1] = right_inverse(fi)
            i = nxt
    return LocalTrivialization(f, finv)


def sheaf_to_aug(sheaf: SheafData, triv: LocalTrivialization) -> AugCandidate:
    """Read off the augmentation; degenerate summands give lambda = alpha."""
    _check_trivialization(sheaf, triv)
    field = sheaf.field
    comps = sheaf.components
    n = sheaf.braid.n
    geom = geometry(sheaf.braid)
    deg_strands = sheaf.deg_strands()
    eye = Matrix.identity(field, sheaf.N)
    zero = field.zero()
    one = field.one()

    displaced = {j: (eye - sheaf.M[j - 1]) * triv.finv[j - 1]
                 for j in range(1, n + 1) if j not in deg_strands}
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i in deg_strands or j in deg_strands:
                row.append(zero)
            else:
                row.append((triv.f[i - 1] * displaced[j])[0, 0])
        rows.append(row)
    R = Matrix(field, rows)

    deg_alpha = {d.component: d.alpha for d in sheaf.deg}
    lam, mu = [], []
    for s in range(1, comps.r + 1):
        if s in deg_alpha:
            lam.append(deg_alpha[s])
            mu.append(one)
            continue
        b = comps.base_strand(s)
        A = sheaf.transport(geom.longitudes[s])
        lam.append((triv.f[b - 1] * (A * triv.finv[b - 1]))[0, 0])
        mu.append(one - (triv.f[b - 1] * displaced[b])[0, 0])
    return AugCandidate(field, comps, R, lam, mu)


def pure_cord_trace(sheaf: SheafData, component: int,
                    loop: MeridianWord) -> tuple[Scalar, Scalar, Scalar]:
    """Trace-formula values (lambda_s, mu_s, value of the pure cord given as a
    based loop at the base strand); independent of any trivialization.

    lambda is tr of the longitude transport minus its restriction to the
    stalk; mu is 1 - tr(Id - M_b); the cord value is tr((Id - M_b) rho(loop)).
    """
    field = sheaf.field
    comps = sheaf.components
    b = comps.base_strand(component)
    geom = geometry(sheaf.braid)
    A = sheaf.transport(geom.longitudes[component])
    W_b = sheaf.W[b - 1]
    restricted = []
    for v in W_b.basis_columns():
        coords = W_b.coordinates((A * Matrix.column(field, v)).col(0))
        if coords is None:
            raise ValueError("longitude transport does not preserve the stalk")
        restricted.append(coords)
    tr_stalk = field.zero()
    for idx in range(W_b.dim):
        tr_stalk = tr_stalk + restricted[idx][idx]
    lam_val = A.trace() - tr_stalk

    eye = Matrix.identity(field, sheaf.N)
    mu_val = field.one() - (eye - sheaf.M[b - 1]).trace()
    cord_val = ((eye - sheaf.M[b - 1]) * sheaf.transport(loop)).trace()
    return lam_val, mu_val, cord_val


# -- augmentation to sheaf ----------------------------------------------------------


class _AugLayout:
    """Shared coordinates for the subsheaf, sheaf and trivialization of one
    candidate.

    The pivot columns of the RREF of R are the columns outside the span of
    the columns before them; they base the subsheaf space, and the RREF
    column of R_t holds its coordinates in that basis.  When non-degenerate
    zero-row strands exist, the ambient space is extended by R_0 at
    coordinate 0, ahead of the pivot coordinates.
    """

    __slots__ = ("cand", "pivots", "dim_sub", "coords", "deg_comps", "deg_strands",
                 "zero_rows", "extended", "N")

    def __init__(self, cand: AugCandidate):
        self.cand = cand
        n = cand.n
        red, pivots = cand.R.rref()
        self.pivots = [c + 1 for c in pivots]
        self.dim_sub = len(pivots)
        self.coords = {t: tuple(red[k, t - 1] for k in range(self.dim_sub))
                       for t in range(1, n + 1)}
        self.deg_comps = degenerate_components(cand)
        self.deg_strands = {i for i in range(1, n + 1)
                            if cand.components.component(i) in self.deg_comps}
        sets = index_sets(cand)
        self.zero_rows = sorted(set(sets.I_dprime) - self.deg_strands)
        self.extended = bool(self.zero_rows)
        self.N = self.dim_sub + (1 if self.extended else 0)

    def sub_index(self, k: int) -> int:
        """Ambient coordinate of the k-th pivot column (0-based k)."""
        return k + (1 if self.extended else 0)

    def embed_column(self, t: int) -> list[Scalar]:
        """Coordinates of column R_t inside the (possibly extended) space."""
        field = self.cand.field
        vec = [field.zero()] * self.N
        for k, c in enumerate(self.coords[t]):
            vec[self.sub_index(k)] = c
        return vec

    def functional(self, i: int) -> Matrix:
        """Row functional of strand i in the ambient coordinates (zero on R_0)."""
        field = self.cand.field
        row = [field.zero()] * self.N
        for k, j in enumerate(self.pivots):
            row[self.sub_index(k)] = self.cand.R[i - 1, j - 1]
        return Matrix.row_vector(field, row)

    def _sub_meridians(self) -> list[Matrix]:
        """rho(m_t) R_j = R_j - R[t][j] R_t in subspace coordinates."""
        cand, coords = self.cand, self.coords
        mats = []
        for t in range(1, cand.n + 1):
            cols = []
            for j in self.pivots:
                col = list(coords[j])
                factor = cand.R[t - 1, j - 1]
                if not factor.is_zero():
                    col = [a - factor * b for a, b in zip(col, coords[t])]
                cols.append(col)
            mats.append(Matrix(cand.field, list(zip(*cols)) if self.dim_sub else []))
        return mats

    def _degenerate_summands(self) -> list[DegenerateSummand]:
        return [DegenerateSummand(s, self.cand.lam[s - 1]) for s in self.deg_comps]

    def subsheaf(self, braid: BraidWord) -> SheafData:
        cand = self.cand
        field, n, d = cand.field, cand.n, self.dim_sub
        stalks = []
        for i in range(1, n + 1):
            if d == 0:
                stalks.append(Subspace.zero(field, 0))
                continue
            functional = Matrix(field, [[cand.R[i - 1, j - 1] for j in self.pivots]])
            stalks.append(functional.kernel())
        return SheafData(field, braid, d, self._sub_meridians(), stalks,
                         self._degenerate_summands())

    def sheaf(self, braid: BraidWord) -> SheafData:
        field, n, N = self.cand.field, self.cand.n, self.N
        sub_mats = self._sub_meridians()
        mats, stalks = [], []
        full = Subspace.full(field, N)
        for i in range(1, n + 1):
            if i in self.deg_strands:
                mats.append(Matrix.identity(field, N))
                stalks.append(full)
                continue
            sub_mat = sub_mats[i - 1]
            if self.extended:
                rows = [[field.zero()] * N for _ in range(N)]
                rows[0][0] = field.one()
                for a in range(self.dim_sub):
                    for b in range(self.dim_sub):
                        rows[a + 1][b + 1] = sub_mat[a, b]
                if i in self.zero_rows:
                    col = self.embed_column(i)
                    for a in range(1, N):
                        rows[a][0] = col[a]
                mat = Matrix(field, rows)
            else:
                mat = sub_mat
            mats.append(mat)
            if i in self.zero_rows:
                stalks.append(Subspace.from_vectors(
                    field, N,
                    [[field.one() if a == self.sub_index(k) else field.zero()
                      for a in range(N)] for k in range(self.dim_sub)],
                ))
            else:
                stalks.append(self.functional(i).kernel())
        return SheafData(field, braid, N, mats, stalks, self._degenerate_summands())

    def trivialization(self) -> LocalTrivialization:
        field = self.cand.field
        f, finv = [], []
        for i in range(1, self.cand.n + 1):
            if i in self.deg_strands:
                f.append(None)
                finv.append(None)
                continue
            if i in self.zero_rows:
                row = [field.zero()] * self.N
                row[0] = -field.one()
                col = [field.zero()] * self.N
                col[0] = -field.one()
                f.append(Matrix.row_vector(field, row))
                finv.append(Matrix.column(field, col))
                continue
            fi = self.functional(i)
            f.append(fi)
            last = None
            for k in range(self.dim_sub - 1, -1, -1):
                if not fi[0, self.sub_index(k)].is_zero():
                    last = k
                    break
            if last is None:
                raise AssertionError("nonzero row vanishing on all pivot columns")
            # finv = R_{j_last} / R[i][j_last]; pivot columns are basis vectors,
            # and (Id - M_j) finv_j = R_j falls out for every strand.
            value = fi[0, self.sub_index(last)]
            col = [field.zero()] * self.N
            col[self.sub_index(last)] = value.inv()
            finv.append(Matrix.column(field, col))
        return LocalTrivialization(f, finv)


def _certified_layout(cand: AugCandidate, braid: BraidWord) -> _AugLayout:
    """The layout of cand, after the relation certificate has passed."""
    report = check_relations(cand, braid)
    if not report.ok:
        raise NotAnAugmentationError(report)
    return _AugLayout(cand)


def aug_to_subsheaf(cand: AugCandidate, braid: BraidWord) -> SheafData:
    """The representation on the column span of R with stalks ker(row_i).

    Strands with zero rows keep the full space as stalk datum, matching the
    once-stabilized subobject of the associated sheaf.
    """
    return _certified_layout(cand, braid).subsheaf(braid)


def aug_to_sheaf(cand: AugCandidate, braid: BraidWord) -> SheafData:
    """The full sheaf: extend by R_0 when non-degenerate zero-row strands
    exist, with unipotent meridians there; degenerate components split off."""
    return _certified_layout(cand, braid).sheaf(braid)


def canonical_trivialization(cand: AugCandidate) -> LocalTrivialization:
    """Row functionals as trivializations, with right inverses supported on
    the last pivot column where the row is nonzero; zero-row strands use the
    R_0 functional normalized to f(R_0) = -1, finv = -R_0 (see module doc)."""
    return _AugLayout(cand).trivialization()


# -- round trips ----------------------------------------------------------------------


def diff_candidates(expected: AugCandidate, got: AugCandidate) -> DiffReport:
    report = DiffReport()
    n = expected.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if expected.entry(i, j) != got.entry(i, j):
                report.add(f"R[{i}][{j}]", expected.entry(i, j), got.entry(i, j))
    for s in range(1, expected.r + 1):
        if expected.lam[s - 1] != got.lam[s - 1]:
            report.add(f"lambda[{s}]", expected.lam[s - 1], got.lam[s - 1])
        if expected.mu[s - 1] != got.mu[s - 1]:
            report.add(f"mu[{s}]", expected.mu[s - 1], got.mu[s - 1])
    return report


def roundtrip_aug(cand: AugCandidate, braid: BraidWord) -> DiffReport:
    """Build the sheaf with its canonical trivialization and read the
    augmentation back; the diff is empty exactly when the round trip is."""
    lay = _certified_layout(cand, braid)
    recovered = sheaf_to_aug(lay.sheaf(braid), lay.trivialization())
    return diff_candidates(cand, recovered)


def _transverse_vector(sheaf: SheafData) -> list[Scalar]:
    """A deterministic vector outside every non-degenerate stalk subspace."""
    field, N = sheaf.field, sheaf.N
    walls = [sheaf.W[i - 1] for i in range(1, sheaf.braid.n + 1)
             if i not in sheaf.deg_strands()]
    zero, one = field.zero(), field.one()

    def outside_all(vec) -> bool:
        return all(not wall.contains(vec) for wall in walls)

    for a in range(N):
        vec = [one if k == a else zero for k in range(N)]
        if outside_all(vec):
            return vec
    for a in range(N):
        for b in range(a + 1, N):
            vec = [one if k in (a, b) else zero for k in range(N)]
            if outside_all(vec):
                return vec
    if field.is_prime_field:
        for tup in itertools.product(field.elements(), repeat=N):
            if outside_all(list(tup)):
                return list(tup)
        raise NoTransverseVectorError(
            f"every vector of F_{field.p}^{N} lies on one of {len(walls)} stalks")
    for tup in itertools.product([field.scalar(v) for v in range(-2, 3)], repeat=N):
        if outside_all(list(tup)):
            return list(tup)
    raise NoTransverseVectorError("no small transverse vector found")


def roundtrip_sheaf(sheaf: SheafData) -> DiffReport:
    """Verify the object is recovered from its own augmentation.

    Constructs the comparison map R_i -> v_i / f_i(v) for a vector v avoiding
    all stalks, and checks it is an isomorphism from the subsheaf of the
    induced augmentation onto the once-stabilized subobject, matching
    meridian actions, stalks, extension bookkeeping, and degenerate data.
    """
    return _roundtrip_sheaf(sheaf)[0]


def _roundtrip_sheaf(sheaf: SheafData) -> tuple[DiffReport, AugCandidate | None]:
    """roundtrip_sheaf's report, plus the induced augmentation it read
    (None when Gamma != 0 stopped it first)."""
    report = DiffReport()
    field = sheaf.field
    gamma = global_sections(sheaf)
    if gamma.dim != 0:
        report.add("Gamma", "0", gamma.dim)
        return report, None
    triv = choose_trivialization(sheaf)
    eps = sheaf_to_aug(sheaf, triv)

    expected_deg = [(d.component, d.alpha) for d in sheaf.deg]
    got_deg = [(s, eps.lam[s - 1]) for s in degenerate_components(eps)]
    if expected_deg != got_deg:
        report.add("deg", expected_deg, got_deg)

    try:
        lay = _certified_layout(eps, sheaf.braid)
    except NotAnAugmentationError as err:
        report.add("induced augmentation", "valid candidate", err.report.failures[:3])
        return report, eps
    sub = lay.subsheaf(sheaf.braid)
    V0 = stabilized_space(sheaf)
    if sub.N != V0.dim:
        report.add("dim V_0", sub.N, V0.dim)
        return report, eps
    if sub.N == 0:
        return report, eps

    try:
        v = _transverse_vector(sheaf)
    except NoTransverseVectorError as err:
        # Field too small for the comparison vector; not a failure of the
        # correspondence, so reported as a note.
        report.note(f"comparison map skipped: {err}")
        return report, eps
    eye = Matrix.identity(field, sheaf.N)
    cols = []
    for j in lay.pivots:
        fj_v = (triv.f[j - 1] * Matrix.column(field, v))[0, 0]
        vj = (eye - sheaf.M[j - 1]) * Matrix.column(field, v)
        cols.append([fj_v.inv() * x for x in vj.col(0)])
    Phi = Matrix(field, list(zip(*cols)))

    if Phi.rank() != sub.N:
        report.add("comparison rank", sub.N, Phi.rank())
        return report, eps
    if Phi.image() != V0:
        report.add("image", "V_0", "smaller space")
    for t in range(1, sheaf.braid.n + 1):
        if sheaf.M[t - 1] * Phi != Phi * sub.M[t - 1]:
            report.add(f"intertwine M[{t}]", "equal products", "mismatch")
    for i in range(1, sheaf.braid.n + 1):
        lhs = sub.W[i - 1].apply(Phi)
        rhs = sheaf.W[i - 1].intersect(V0)
        if lhs != rhs:
            report.add(f"stalk match W[{i}]", rhs.to_json(), lhs.to_json())

    outside = {i for i in range(1, sheaf.braid.n + 1)
               if sheaf.W[i - 1].contains_subspace(V0)}
    zero_rows = set(index_sets(eps).I_dprime)
    if outside != zero_rows:
        report.add("extension strands", sorted(zero_rows), sorted(outside))
    return report, eps


def extend_by_constant(sheaf: SheafData, extra: int) -> SheafData:
    """Direct-sum a trivial block inside every stalk (the local-system
    modifications that leave the induced augmentation unchanged)."""
    field, N = sheaf.field, sheaf.N
    M2 = []
    for mat in sheaf.M:
        rows = [[field.zero()] * (N + extra) for _ in range(N + extra)]
        for a in range(N):
            for b in range(N):
                rows[a][b] = mat[a, b]
        for a in range(N, N + extra):
            rows[a][a] = field.one()
        M2.append(Matrix(field, rows))
    W2 = []
    for sub in sheaf.W:
        vecs = [list(v) + [field.zero()] * extra for v in sub.basis_columns()]
        for a in range(extra):
            vecs.append([field.zero()] * N
                        + [field.one() if k == a else field.zero() for k in range(extra)])
        W2.append(Subspace.from_vectors(field, N + extra, vecs))
    return SheafData(field, sheaf.braid, N + extra, M2, W2, sheaf.deg)
