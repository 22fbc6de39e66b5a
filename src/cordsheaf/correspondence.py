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
from .cordaug import (AugCandidate, _degenerate_components, check_relations,
                      degenerate_components, index_sets)
from .field import MixedFieldError, Scalar
from .linalg import (Matrix, Subspace, _axpy, _dot, _inv, _matvec, _one, _right_inverse,
                     _rref, _scale, _sub, _transpose, _zero)
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


def _check_trivialization(sheaf: SheafData, triv: LocalTrivialization) -> None:
    field, N = sheaf.field, sheaf.N
    p = field.p
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
        if f_i.field != field or finv_i.field != field:
            raise MixedFieldError(f"trivialization at strand {i} is not over {field}")
        if (f_i.rows, f_i.cols, finv_i.rows, finv_i.cols) != (1, N, N, 1):
            raise InvalidTrivializationError(
                f"f[{i}] must be 1x{N} and finv[{i}] {N}x1")
        if f_i.is_zero():
            raise InvalidTrivializationError(f"f[{i}] vanishes")
        f_row = f_i.values[0]
        for w in sheaf.W[i - 1]._vectors:
            if _dot(p, f_row, w):
                raise InvalidTrivializationError(f"f[{i}] does not kill W[{i}]")
        if _dot(p, f_row, _column_values(finv_i)) != 1:
            raise InvalidTrivializationError(f"finv[{i}] is not a right inverse")


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
    """
    field, N = sheaf.field, sheaf.N
    p = field.p
    geom = geometry(sheaf.braid)
    comps = sheaf.components
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
            T = sheaf.transport(geom.segments[i]).values
            fi = _matvec(p, _transpose(T, N), f[i - 1])
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
    _check_trivialization(sheaf, triv)
    field = sheaf.field
    p = field.p
    comps = sheaf.components
    n = sheaf.braid.n
    geom = geometry(sheaf.braid)
    deg_strands = sheaf.deg_strands()
    zero = _zero(p)
    f = [None if i in deg_strands else triv.f[i - 1].values[0] for i in range(1, n + 1)]
    x = [None if j in deg_strands else _column_values(triv.finv[j - 1])
         for j in range(1, n + 1)]

    # (Id - M_j) finv_j
    displaced = {j: _axpy(p, x[j - 1], -1, _matvec(p, sheaf.M[j - 1].values, x[j - 1]))
                 for j in range(1, n + 1) if j not in deg_strands}
    rows = []
    for i in range(1, n + 1):
        rows.append([zero if i in deg_strands or j in deg_strands
                     else _dot(p, f[i - 1], displaced[j]) for j in range(1, n + 1)])
    R = Matrix._from_values(field, rows)

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
        mu.append(Scalar(field, _sub(p, _one(p), _dot(p, f[b - 1], displaced[b]))))
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
    candidate, as field values.

    The pivot columns of the RREF of R are the columns outside the span of
    the columns before them; they base the subsheaf space, and the RREF
    column of R_t holds its coordinates in that basis.  When non-degenerate
    zero-row strands exist, the ambient space is extended by R_0 at
    coordinate 0, ahead of the pivot coordinates.
    """

    __slots__ = ("cand", "p", "pivots", "dim_sub", "coords", "deg_comps", "deg_strands",
                 "zero_rows", "extended", "N")

    def __init__(self, cand: AugCandidate):
        self.cand = cand
        n = cand.n
        self.p = cand.field.p
        red, pivots = _rref(self.p, cand.R.values, n)
        self.pivots = [c + 1 for c in pivots]
        self.dim_sub = len(pivots)
        self.coords = {t: tuple(red[k][t - 1] for k in range(self.dim_sub))
                       for t in range(1, n + 1)}
        sets = index_sets(cand)
        self.deg_comps = _degenerate_components(cand, sets)
        self.deg_strands = {i for i in range(1, n + 1)
                            if cand.components.component(i) in self.deg_comps}
        self.zero_rows = sorted(set(sets.I_dprime) - self.deg_strands)
        self.extended = bool(self.zero_rows)
        self.N = self.dim_sub + (1 if self.extended else 0)

    def sub_index(self, k: int) -> int:
        """Ambient coordinate of the k-th pivot column (0-based k)."""
        return k + (1 if self.extended else 0)

    def _unit(self, a: int) -> list:
        vec = [_zero(self.p)] * self.N
        vec[a] = _one(self.p)
        return vec

    def embed_column(self, t: int) -> list:
        """Coordinates of column R_t inside the (possibly extended) space."""
        vec = [_zero(self.p)] * self.N
        for k, c in enumerate(self.coords[t]):
            vec[self.sub_index(k)] = c
        return vec

    def functional(self, i: int) -> list:
        """Row functional of strand i in the ambient coordinates (zero on R_0)."""
        R = self.cand.R.values
        row = [_zero(self.p)] * self.N
        for k, j in enumerate(self.pivots):
            row[self.sub_index(k)] = R[i - 1][j - 1]
        return row

    def _sub_meridians(self) -> list[Matrix]:
        """rho(m_t) R_j = R_j - R[t][j] R_t in subspace coordinates."""
        cand, coords, p = self.cand, self.coords, self.p
        R = cand.R.values
        mats = []
        for t in range(1, cand.n + 1):
            cols = []
            for j in self.pivots:
                factor = R[t - 1][j - 1]
                cols.append(_axpy(p, coords[j], -factor, coords[t]) if factor else coords[j])
            mats.append(Matrix._from_values(cand.field, _transpose(cols, self.dim_sub),
                                            cols=self.dim_sub))
        return mats

    def _degenerate_summands(self) -> list[DegenerateSummand]:
        return [DegenerateSummand(s, self.cand.lam[s - 1]) for s in self.deg_comps]

    def subsheaf(self, braid: BraidWord) -> SheafData:
        cand = self.cand
        field, n, d = cand.field, cand.n, self.dim_sub
        R = cand.R.values
        stalks = []
        for i in range(1, n + 1):
            if d == 0:
                stalks.append(Subspace.zero(field, 0))
                continue
            functional = [R[i - 1][j - 1] for j in self.pivots]
            stalks.append(_row_matrix(field, functional).kernel())
        return SheafData(field, braid, d, self._sub_meridians(), stalks,
                         self._degenerate_summands())

    def sheaf(self, braid: BraidWord) -> SheafData:
        field, n, N = self.cand.field, self.cand.n, self.N
        zero = _zero(self.p)
        sub_mats = self._sub_meridians()
        mats, stalks = [], []
        if self.deg_strands:
            eye, full = Matrix.identity(field, N), Subspace.full(field, N)
        for i in range(1, n + 1):
            if i in self.deg_strands:
                mats.append(eye)
                stalks.append(full)
                continue
            if self.extended:
                # R_0 is fixed, except at zero-row strands: M_i(R_0) = R_0 + R_i
                col = self.embed_column(i) if i in self.zero_rows else [zero] * N
                rows = [self._unit(0)]
                rows += [(col[a + 1],) + row for a, row in enumerate(sub_mats[i - 1].values)]
                mats.append(Matrix._from_values(field, rows))
            else:
                mats.append(sub_mats[i - 1])
            # a zero-row strand's stalk is the span of the pivot columns
            f_i = self._unit(0) if i in self.zero_rows else self.functional(i)
            stalks.append(_row_matrix(field, f_i).kernel())
        return SheafData(field, braid, N, mats, stalks, self._degenerate_summands())

    def trivialization(self) -> LocalTrivialization:
        field, p = self.cand.field, self.p
        f, finv = [], []
        for i in range(1, self.cand.n + 1):
            if i in self.deg_strands:
                f.append(None)
                finv.append(None)
                continue
            if i in self.zero_rows:
                minus_r0 = _scale(p, -1, self._unit(0))
                f.append(_row_matrix(field, minus_r0))
                finv.append(_column_matrix(field, minus_r0))
                continue
            fi = self.functional(i)
            f.append(_row_matrix(field, fi))
            last = None
            for k in range(self.dim_sub - 1, -1, -1):
                if fi[self.sub_index(k)]:
                    last = k
                    break
            if last is None:
                raise AssertionError("nonzero row vanishing on all pivot columns")
            # finv = R_{j_last} / R[i][j_last]; pivot columns are basis vectors,
            # and (Id - M_j) finv_j = R_j falls out for every strand.
            col = [_zero(p)] * self.N
            col[self.sub_index(last)] = _inv(p, fi[self.sub_index(last)])
            finv.append(_column_matrix(field, col))
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
