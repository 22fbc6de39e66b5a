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
from .cordaug import (AugCandidate, IndexSets, _degenerate_components, check_relations,
                      degenerate_components, index_sets)
from .field import MixedFieldError, Scalar
from .linalg import (Matrix, Subspace, _axpy, _dot, _hyperplane, _identity, _inv, _matvec,
                     _neg, _one, _right_inverse, _rref, _scale, _sub, _transpose, _zero)
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


def _column_values(col: Matrix) -> list:
    return [row[0] for row in col.values]


def _row_matrix(field, row) -> Matrix:
    return Matrix._from_values(field, [row])


def _column_matrix(field, col) -> Matrix:
    return Matrix._from_values(field, [(x,) for x in col], cols=1)


def _check_trivialization(sheaf: SheafData, triv: LocalTrivialization) -> tuple[list, list]:
    """Check triv on sheaf; its functionals and right inverses as rows of
    values, None at the degenerate strands."""
    field, N = sheaf.field, sheaf.N
    p = field.p
    deg_strands = sheaf.deg_strands()
    f, x = [], []
    for i in range(1, sheaf.braid.n + 1):
        f_i, finv_i = triv.f[i - 1], triv.finv[i - 1]
        if i in deg_strands:
            if f_i is not None or finv_i is not None:
                raise InvalidTrivializationError(
                    f"strand {i} is degenerate and admits no trivialization")
            f.append(None)
            x.append(None)
            continue
        if f_i is None or finv_i is None:
            raise InvalidTrivializationError(f"strand {i} needs a functional")
        if f_i.field != field or finv_i.field != field:
            raise MixedFieldError(f"trivialization at strand {i} is not over {field}")
        if (f_i.rows, f_i.cols, finv_i.rows, finv_i.cols) != (1, N, N, 1):
            raise InvalidTrivializationError(
                f"f[{i}] must be 1x{N} and finv[{i}] {N}x1")
        if f_i.is_zero():
            raise InvalidTrivializationError(f"f[{i}] vanishes")
        f_row, x_i = f_i.values[0], _column_values(finv_i)
        for w in sheaf.W[i - 1]._vectors:
            if _dot(p, f_row, w):
                raise InvalidTrivializationError(f"f[{i}] does not kill W[{i}]")
        if _dot(p, f_row, x_i) != 1:
            raise InvalidTrivializationError(f"finv[{i}] is not a right inverse")
        f.append(f_row)
        x.append(x_i)
    return f, x


def choose_trivialization(sheaf: SheafData) -> LocalTrivialization:
    """One functional per component, normalized at the base strand and
    transported to the other strands along the longitude segments.

    The per-strand functionals of one component are not independent: the
    segment transports tie their scales together (with one unit of the
    longitude eigenvalue absorbed at the marked base segment), and only
    coherent families induce augmentations.  The base functional is the
    stalk annihilator scaled so its first nonzero entry is 1; right inverses
    are e_a / f_a at the functional's first nonzero coordinate a, the
    deterministic solver's solution.

    Each functional is carried through its segment's letters as a row
    vector, f <- f M, at O(N^2) per letter; functionals and right inverses
    stay field values until the LocalTrivialization is built.
    """
    field = sheaf.field
    p = field.p
    geom = geometry(sheaf.braid)
    comps = geom.components
    deg_strands = sheaf.deg_strands()
    f: list = [None] * sheaf.braid.n
    finv: list = [None] * sheaf.braid.n

    def right_inverse(fi: list) -> list:
        sol = _right_inverse(p, fi)
        if sol is None:
            raise InvalidTrivializationError("functional vanishes identically")
        return sol

    for s in range(1, comps.r + 1):
        b = comps.base_strand(s)
        if b in deg_strands:
            continue
        ann = sheaf.W[b - 1].annihilator()
        if ann.rows != 1:
            raise InvalidTrivializationError(
                f"stalk at strand {b} has codimension {ann.rows}, not 1")
        fb = list(ann.values[0])  # reduced: its first nonzero entry is 1
        f[b - 1] = fb
        finv[b - 1] = right_inverse(fb)
        lam = _dot(p, fb, sheaf._transport_vector(geom.longitudes[s], finv[b - 1]))
        if not lam:
            raise InvalidTrivializationError(
                f"longitude of component {s} degenerates on the stalk quotient")
        i = b
        while geom.tau[i - 1] != b:
            nxt = geom.tau[i - 1]
            fi = sheaf._transport_row(geom.segments[i], f[i - 1])
            if i == b:
                fi = _scale(p, _inv(p, lam), fi)
            f[nxt - 1] = fi
            finv[nxt - 1] = right_inverse(fi)
            i = nxt
    return LocalTrivialization(
        [None if x is None else _row_matrix(field, x) for x in f],
        [None if x is None else _column_matrix(field, x) for x in finv])


def sheaf_to_aug(sheaf: SheafData, triv: LocalTrivialization) -> AugCandidate:
    """Read off the augmentation; degenerate summands give lambda = alpha."""
    field = sheaf.field
    p = field.p
    geom = geometry(sheaf.braid)
    comps = geom.components
    f, x = _check_trivialization(sheaf, triv)
    zero = _zero(p)

    # (Id - M_j) finv_j, None at the degenerate strands
    displaced = [None if x_j is None else _axpy(p, x_j, -1, _matvec(p, M_j.values, x_j))
                 for M_j, x_j in zip(sheaf.M, x)]
    R = Matrix._from_values(field, [[zero if f_i is None or d_j is None else _dot(p, f_i, d_j)
                                     for d_j in displaced] for f_i in f])

    deg_alpha = {d.component: d.alpha for d in sheaf.deg}
    lam, mu = [], []
    for s in range(1, comps.r + 1):
        if s in deg_alpha:
            lam.append(deg_alpha[s])
            mu.append(field.one())
            continue
        b = comps.base_strand(s)
        moved = sheaf._transport_vector(geom.longitudes[s], x[b - 1])
        lam.append(Scalar(field, _dot(p, f[b - 1], moved)))
        mu.append(Scalar(field, _sub(p, _one(p), _dot(p, f[b - 1], displaced[b - 1]))))
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


def _minus_outer(p: int | None, col: Sequence, row: Sequence) -> list:
    """The rows of Id - col row, for vectors of field values."""
    return [_axpy(p, e, -x, row) if x else e for e, x in zip(_identity(p, len(col)), col)]


class _AugLayout:
    """Shared coordinates for the subsheaf, sheaf and trivialization of one
    candidate, as field values.

    The pivot columns of the RREF of R are the columns outside the span of
    the columns before them; they base the subsheaf space, and the RREF
    column of R_t, ``coords[t - 1]``, holds its coordinates in that basis.
    When non-degenerate zero-row strands exist, the ambient space is
    extended by R_0 at coordinate 0, ahead of the pivot coordinates.  The
    index sets are the candidate's, as the relation certificate found them.

    Every meridian is a rank-one update, rho(m_t) = Id - R_t g_t, where g_t
    is strand t's functional of the canonical trivialization: row t of R on
    the pivot columns, or -1 on R_0 at a zero-row strand, so that
    M_t(R_0) = R_0 + R_t there.  The stalk at t is ker g_t.
    """

    __slots__ = ("cand", "p", "pivots", "dim_sub", "coords", "deg_comps", "deg_strands",
                 "zero_rows", "extended", "N")

    def __init__(self, cand: AugCandidate, sets: IndexSets):
        self.cand = cand
        n = cand.n
        self.p = cand.field.p
        red, pivots = _rref(self.p, cand.R.values, n)
        self.pivots = [c + 1 for c in pivots]
        self.dim_sub = len(pivots)
        self.coords = _transpose(red[:self.dim_sub], n)
        self.deg_comps = _degenerate_components(cand, sets)
        self.deg_strands = {i for s in self.deg_comps for i in cand.components.strands[s - 1]}
        self.zero_rows = sets.I_dprime - self.deg_strands
        self.extended = bool(self.zero_rows)
        self.N = self.dim_sub + (1 if self.extended else 0)

    def _row(self, t: int) -> list:
        """Row t of R on the pivot columns."""
        R_t = self.cand.R.values[t - 1]
        return [R_t[j - 1] for j in self.pivots]

    def functional(self, t: int) -> list:
        """g_t in the ambient coordinates."""
        p = self.p
        if t in self.zero_rows:
            return [_neg(p, _one(p))] + [_zero(p)] * self.dim_sub
        return [_zero(p)] + self._row(t) if self.extended else self._row(t)

    def _degenerate_summands(self) -> list[DegenerateSummand]:
        return [DegenerateSummand(s, self.cand.lam[s - 1]) for s in self.deg_comps]

    def subsheaf(self, braid: BraidWord) -> SheafData:
        field, n, d, p = self.cand.field, self.cand.n, self.dim_sub, self.p
        mats, stalks = [], []
        for t in range(1, n + 1):
            row = self._row(t)
            mats.append(Matrix._from_values(field, _minus_outer(p, self.coords[t - 1], row),
                                            cols=d))
            stalks.append(_row_matrix(field, row).kernel() if d else Subspace.zero(field, 0))
        return SheafData(field, braid, d, mats, stalks, self._degenerate_summands())

    def sheaf(self, braid: BraidWord) -> SheafData:
        """The sheaf, written straight from the coordinates: each meridian as
        the rank-one update Id - R_t g_t, and each stalk as ker g_t in closed
        form (linalg._hyperplane), already reduced."""
        field, n, N, p = self.cand.field, self.cand.n, self.N, self.p
        mats, stalks = [], []
        if self.deg_strands:
            eye, full = Matrix.identity(field, N), Subspace.full(field, N)
        for t in range(1, n + 1):
            if t in self.deg_strands:
                mats.append(eye)
                stalks.append(full)
                continue
            g = self.functional(t)
            col = list(self.coords[t - 1])
            if self.extended:
                col.insert(0, _zero(p))
            mats.append(Matrix._from_values(field, _minus_outer(p, col, g), cols=N))
            stalks.append(Subspace._from_echelon(field, N, *_hyperplane(p, g)))
        return SheafData(field, braid, N, mats, stalks, self._degenerate_summands())

    def trivialization(self) -> LocalTrivialization:
        """The functionals g_t with right inverses e_a / g_t[a] at the last
        coordinate a where g_t is nonzero: R_{j_a} / R[t][j_a] on a pivot
        column (a nonzero row is nonzero on some pivot column), -R_0 at a
        zero-row strand.  Pivot columns are basis vectors, so
        (Id - M_t) finv_t = R_t falls out for every strand."""
        field, p = self.cand.field, self.p
        f, finv = [], []
        for t in range(1, self.cand.n + 1):
            if t in self.deg_strands:
                f.append(None)
                finv.append(None)
                continue
            g = self.functional(t)
            last = max(a for a, v in enumerate(g) if v)
            col = [_zero(p)] * self.N
            col[last] = _inv(p, g[last])
            f.append(_row_matrix(field, g))
            finv.append(_column_matrix(field, col))
        return LocalTrivialization(f, finv)


def _certified_layout(cand: AugCandidate, braid: BraidWord) -> _AugLayout:
    """The layout of cand, after the relation certificate has passed, on
    the index sets the certificate computed."""
    report = check_relations(cand, braid)
    if not report.ok:
        raise NotAnAugmentationError(report)
    return _AugLayout(cand, report.sets)


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
    return _AugLayout(cand, index_sets(cand)).trivialization()


# -- round trips ----------------------------------------------------------------------


def diff_candidates(expected: AugCandidate, got: AugCandidate) -> DiffReport:
    report = DiffReport()
    n = expected.n
    same_field = expected.field == got.field
    want, have = expected.R.values, got.R.values
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if not same_field or want[i - 1][j - 1] != have[i - 1][j - 1]:
                report.add(f"R[{i}][{j}]", want[i - 1][j - 1], have[i - 1][j - 1])
    for s in range(1, expected.r + 1):
        if expected.lam[s - 1] != got.lam[s - 1]:
            report.add(f"lambda[{s}]", expected.lam[s - 1], got.lam[s - 1])
        if expected.mu[s - 1] != got.mu[s - 1]:
            report.add(f"mu[{s}]", expected.mu[s - 1], got.mu[s - 1])
    return report


def roundtrip_aug(cand: AugCandidate, braid: BraidWord) -> DiffReport:
    """Build the sheaf with its canonical trivialization and read the
    augmentation back; the diff is empty exactly when the round trip is."""
    return _roundtrip_layout(_certified_layout(cand, braid), braid)


def _roundtrip_layout(lay: _AugLayout, braid: BraidWord) -> DiffReport:
    """roundtrip_aug for the layout of a candidate known to pass the
    relation certificate."""
    recovered = sheaf_to_aug(lay.sheaf(braid), lay.trivialization())
    return diff_candidates(lay.cand, recovered)


def _transverse_vector(sheaf: SheafData) -> list:
    """A deterministic vector of values outside every non-degenerate stalk
    subspace."""
    field, N = sheaf.field, sheaf.N
    walls = [sheaf.W[i - 1] for i in range(1, sheaf.braid.n + 1)
             if i not in sheaf.deg_strands()]
    zero, one = _zero(field.p), _one(field.p)

    def outside_all(vec) -> bool:
        return all(wall._coordinates(vec) is None for wall in walls)

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
        for tup in itertools.product(range(field.p), repeat=N):
            if outside_all(list(tup)):
                return list(tup)
        raise NoTransverseVectorError(
            f"every vector of F_{field.p}^{N} lies on one of {len(walls)} stalks")
    for tup in itertools.product([field.scalar(v).value for v in range(-2, 3)], repeat=N):
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
    p = field.p
    cols = []
    for j in lay.pivots:
        fj_v = _dot(p, triv.f[j - 1].values[0], v)
        vj = _axpy(p, v, -1, _matvec(p, sheaf.M[j - 1].values, v))
        cols.append(_scale(p, _inv(p, fj_v), vj))
    Phi = Matrix._from_values(field, _transpose(cols, sheaf.N))

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
