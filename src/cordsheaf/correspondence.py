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

Both directions run on field values: _read_off, the one read-off, serves
sheaf_to_aug and the round trips of the bijection check alike.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .braid import BraidWord, MeridianWord, geometry
from .cordaug import (AugCandidate, IndexSets, _canonical_rows, _degenerate_components,
                      _orbit_key, check_relations, degenerate_components, index_sets)
from .field import MixedFieldError, Scalar
from .linalg import (Matrix, Subspace, _axpy, _dot, _hyperplane, _identity, _inv, _matmul,
                     _matvec, _neg, _null_vectors, _one, _right_inverse, _rref, _scale, _sub,
                     _transpose, _zero)
from .reports import DiffReport
from .sheafmodel import DegenerateSummand, SheafData, _stabilized, _transport_values


class NotAnAugmentationError(ValueError):
    def __init__(self, report):
        super().__init__(f"candidate fails the relation check: {report.failures[:3]}")
        self.report = report


class InvalidTrivializationError(ValueError):
    pass


class LocalTrivialization:
    """Per-strand functionals f_i (vanishing on W_i) with right inverses.

    Strands of degenerate components have no stalk drop and carry None.
    Functionals and right inverses are held as vectors of field values,
    which the read-off uses as they are: the constructor reads them once off
    the 1 x N and N x 1 matrices it is given, and ``f`` and ``finv`` build
    those matrices again when asked for.
    """

    __slots__ = ("field", "_f", "_finv")

    def __init__(self, f: Sequence[Optional[Matrix]], finv: Sequence[Optional[Matrix]]):
        fields = {m.field for m in (*f, *finv) if m is not None}
        if len(fields) > 1:
            raise MixedFieldError("trivialization matrices over different fields")
        for i, (f_i, x_i) in enumerate(zip(f, finv), 1):
            if (f_i is not None and f_i.rows != 1) or (x_i is not None and x_i.cols != 1):
                raise InvalidTrivializationError(f"f[{i}] must be a row and finv[{i}] a column")
        self.field = fields.pop() if fields else None
        self._f = tuple(None if m is None else m.values[0] for m in f)
        self._finv = tuple(None if m is None else [row[0] for row in m.values] for m in finv)

    @classmethod
    def _from_values(cls, field, f: Sequence, finv: Sequence) -> "LocalTrivialization":
        triv = object.__new__(cls)
        triv.field, triv._f, triv._finv = field, f, finv
        return triv

    @property
    def f(self) -> tuple[Optional[Matrix], ...]:
        return tuple(None if v is None else Matrix._from_values(self.field, [v], len(v))
                     for v in self._f)

    @property
    def finv(self) -> tuple[Optional[Matrix], ...]:
        return tuple(None if v is None else Matrix._from_values(self.field, [(a,) for a in v], 1)
                     for v in self._finv)

    def __repr__(self) -> str:
        parts = [m.to_json() if m is not None else None for m in self.f]
        return f"LocalTrivialization(f={parts})"


def _check_trivialization(p: int | None, N: int, W: Sequence, deg_strands, f: Sequence,
                          x: Sequence) -> None:
    """Check functionals f and right inverses x, vectors of values with None
    at the degenerate strands, against the stalks' basis vectors W."""
    for i in range(1, len(W) + 1):
        f_i, x_i = f[i - 1], x[i - 1]
        if i in deg_strands:
            if f_i is not None or x_i is not None:
                raise InvalidTrivializationError(
                    f"strand {i} is degenerate and admits no trivialization")
            continue
        if f_i is None or x_i is None:
            raise InvalidTrivializationError(f"strand {i} needs a functional")
        if (len(f_i), len(x_i)) != (N, N):
            raise InvalidTrivializationError(
                f"f[{i}] must be 1x{N} and finv[{i}] {N}x1")
        if not any(f_i):
            raise InvalidTrivializationError(f"f[{i}] vanishes")
        for w in W[i - 1]:
            if _dot(p, f_i, w):
                raise InvalidTrivializationError(f"f[{i}] does not kill W[{i}]")
        if _dot(p, f_i, x_i) != 1:
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
    solution elimination gives with free variables zero.

    Each functional is carried through its segment's letters as a row
    vector, f <- f M, at O(N^2) per letter, and stays a vector of field
    values.  A sheaf that admits no such family raises
    InvalidTrivializationError, naming the strand or component.
    """
    field = sheaf.field
    p = field.p
    geom = geometry(sheaf.braid)
    comps = geom.components
    deg_strands = sheaf.deg_strands()
    f: list = [None] * sheaf.braid.n
    finv: list = [None] * sheaf.braid.n

    def right_inverse(fi: list, strand: int) -> list:
        sol = _right_inverse(p, fi)
        if sol is None:
            raise InvalidTrivializationError(f"functional at strand {strand} vanishes")
        return sol

    for s in range(1, comps.r + 1):
        b = comps.base_strand(s)
        if b in deg_strands:
            continue
        W_b = sheaf.W[b - 1]
        if W_b.dim != sheaf.N - 1:
            raise InvalidTrivializationError(
                f"stalk at strand {b} has codimension {sheaf.N - W_b.dim}, not 1")
        fb = W_b._normal()  # its first nonzero entry is 1
        f[b - 1] = fb
        finv[b - 1] = right_inverse(fb, b)
        lam = _dot(p, fb, _transported(sheaf._transport_vector, geom.longitudes[s], finv[b - 1]))
        if not lam:
            raise InvalidTrivializationError(
                f"longitude of component {s} degenerates on the stalk quotient")
        i = b
        while geom.tau[i - 1] != b:
            nxt = geom.tau[i - 1]
            fi = _transported(sheaf._transport_row, geom.segments[i], f[i - 1])
            if i == b:
                fi = _scale(p, _inv(p, lam), fi)
            f[nxt - 1] = fi
            finv[nxt - 1] = right_inverse(fi, nxt)
            i = nxt
    return LocalTrivialization._from_values(field, f, finv)


def _transported(transport, *args) -> list:
    """transport(*args), a vector carried along a word of meridians; an
    inverse letter of a singular meridian raises InvalidTrivializationError."""
    try:
        return transport(*args)
    except ZeroDivisionError as err:
        raise InvalidTrivializationError(str(err)) from None


def sheaf_to_aug(sheaf: SheafData, triv: LocalTrivialization) -> AugCandidate:
    """Read off the augmentation; degenerate summands give lambda = alpha.
    A trivialization that does not fit, or a vanishing lambda or mu, raises
    InvalidTrivializationError naming the strand or component."""
    return _candidate(sheaf.field, sheaf.components, *_sheaf_read_off(sheaf, triv)[:3])


def _sheaf_read_off(sheaf: SheafData, triv: LocalTrivialization) -> tuple[tuple, list, list, list]:
    """_read_off on the values of sheaf and triv: the rows of R, lambda and
    mu of sheaf_to_aug's candidate, as values, and the d_j."""
    field, n = sheaf.field, sheaf.braid.n
    if triv.field is not None and triv.field != field:
        raise MixedFieldError(f"trivialization over {triv.field} used on a sheaf over {field}")
    return _read_off(field.p, geometry(sheaf.braid), sheaf.N, sheaf._values,
                     [w._vectors for w in sheaf.W], {d.component: d.alpha.value for d in sheaf.deg},
                     triv._f[:n], triv._finv[:n], sheaf._minv)


def _candidate(field, components, rows, lam, mu) -> AugCandidate:
    """The AugCandidate of R's rows and lambda and mu, as values."""
    return AugCandidate(field, components, Matrix._from_values(field, rows),
                        [Scalar(field, v) for v in lam], [Scalar(field, v) for v in mu])


def _read_off(p: int | None, geom, N: int, M: Sequence, W: Sequence, deg: dict,
              f: Sequence, x: Sequence, minv: dict) -> tuple[tuple, list, list, list]:
    """R's rows, lambda, mu and the d_j = (Id - M_j) x_j, read off as values
    from the meridians' rows M, the stalks' basis vectors W, the alpha of
    each degenerate component in deg, and the trivialization's f and x (None
    at the degenerate strands); minv caches inverse meridians (sheafmodel)."""
    comps = geom.components
    deg_strands = {i for i, s in enumerate(comps.labels, 1) if s in deg} if deg else ()
    _check_trivialization(p, N, W, deg_strands, f, x)
    zero, one = _zero(p), _one(p)
    displaced = [None if x_j is None else _axpy(p, x_j, -1, _matvec(p, M_j, x_j))
                 for M_j, x_j in zip(M, x)]
    rows = tuple([tuple([zero if f_i is None or d_j is None else _dot(p, f_i, d_j)
                         for d_j in displaced]) for f_i in f])
    lam, mu = [], []
    for s in range(1, comps.r + 1):
        if s in deg:
            lam.append(deg[s])
            mu.append(one)
            continue
        b = comps.base_strand(s)
        lam_s = _dot(p, f[b - 1], _transported(_transport_values, p, M, minv,
                                               geom.longitudes[s].letters, x[b - 1]))
        mu_s = _sub(p, one, rows[b - 1][b - 1])  # R[b][b] = f_b d_b
        if not lam_s or not mu_s:
            raise InvalidTrivializationError(f"{'mu' if lam_s else 'lambda'} of component {s} "
                                             f"vanishes at its base strand {b}")
        lam.append(lam_s)
        mu.append(mu_s)
    return rows, lam, mu, displaced


def pure_cord_trace(sheaf: SheafData, component: int,
                    loop: MeridianWord) -> tuple[Scalar, Scalar, Scalar]:
    """Trace-formula values (lambda_s, mu_s, value of the pure cord given as a
    based loop at the base strand); independent of any trivialization.

    lambda is tr of the longitude transport minus its restriction to the
    stalk; mu is 1 - tr(Id - M_b); the cord value is tr((Id - M_b) rho(loop)).
    """
    field = sheaf.field
    if not 1 <= component <= sheaf.components.r:
        raise ValueError(f"no component {component} among {sheaf.components.r}")
    b = sheaf.components.base_strand(component)
    A = sheaf.transport(geometry(sheaf.braid).longitudes[component])
    W_b = sheaf.W[b - 1]
    tr_stalk = field.zero()  # the trace of A on W_b: coordinate k of A w_k
    for k, w in enumerate(W_b._vectors):
        coords = W_b._coordinates(_matvec(field.p, A.values, w))
        if coords is None:
            raise ValueError("longitude transport does not preserve the stalk")
        tr_stalk = tr_stalk + Scalar(field, coords[k])
    displaced = Matrix.identity(field, sheaf.N) - sheaf.M[b - 1]
    return (A.trace() - tr_stalk, field.one() - displaced.trace(),
            (displaced * sheaf.transport(loop)).trace())


# -- augmentation to sheaf ----------------------------------------------------------


def _minus_outer(p: int | None, col: Sequence, row: Sequence, units: Sequence) -> list:
    """The rows of Id - col row, for vectors of field values, from the unit
    rows of the space."""
    return [_axpy(p, e, -x, row) if x else e for e, x in zip(units, col)]


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
    M_t(R_0) = R_0 + R_t there.  The stalk at t is ker g_t.  One builder
    writes both the sheaf and the subsheaf: the subsheaf is the sheaf
    without the R_0 coordinate, where a zero row is a zero functional, so
    its meridian is the identity and its stalk the full space, as on a
    degenerate strand.
    """

    __slots__ = ("cand", "p", "pivots", "dim_sub", "coords", "deg_comps", "deg_strands",
                 "zero_rows", "extended", "N", "_piv0")

    def __init__(self, cand: AugCandidate, sets: IndexSets):
        self.cand = cand
        n = cand.n
        self.p = cand.field.p
        red, pivots = _rref(self.p, cand.R.values, n)
        self.pivots = [c + 1 for c in pivots]
        self._piv0 = pivots
        self.dim_sub = len(pivots)
        self.coords = _transpose(red[:self.dim_sub], n)
        self.deg_comps = _degenerate_components(cand, sets)
        self.deg_strands = {i for s in self.deg_comps for i in cand.components.strands[s - 1]}
        self.zero_rows = sets.I_dprime - self.deg_strands
        self.extended = bool(self.zero_rows)
        self.N = self.dim_sub + (1 if self.extended else 0)

    def _row(self, t: int) -> list:
        """Row t of R on the pivot columns."""
        return list(map(self.cand.R.values[t - 1].__getitem__, self._piv0))

    def functional(self, t: int) -> list:
        """g_t in the ambient coordinates."""
        p = self.p
        if t in self.zero_rows:
            return [_neg(p, _one(p))] + [_zero(p)] * self.dim_sub
        return [_zero(p)] + self._row(t) if self.extended else self._row(t)

    def subsheaf(self, braid: BraidWord) -> SheafData:
        return self._sheaf(braid, self.values(extended=False))

    def sheaf(self, braid: BraidWord, values: tuple | None = None) -> SheafData:
        """The sheaf, from its values(self.extended) when given."""
        return self._sheaf(braid, values or self.values(self.extended))

    def values(self, extended: bool) -> tuple[int, list, list, list]:
        """(N, functionals g_t, meridian rows, stalk rows and pivots) of the
        sheaf on the pivot coordinates, with R_0 ahead of them when extended.
        A nonzero g gets the rank-one update Id - R_t g and the stalk ker g,
        in closed form (linalg._hyperplane); a zero g (a degenerate strand,
        or a zero row without R_0) gets the unit rows as both."""
        p = self.p
        N = self.dim_sub + extended
        units = _identity(p, N)
        lead = (_zero(p),) if extended else ()
        gs, mats, stalks = [], [], []
        for t in range(1, self.cand.n + 1):
            g = self.functional(t) if extended else self._row(t)
            gs.append(g)
            mats.append(_minus_outer(p, lead + self.coords[t - 1], g, units) if any(g) else units)
            stalks.append(_hyperplane(p, g, units) if any(g) else (units, range(N)))
        return N, gs, mats, stalks

    def _sheaf(self, braid: BraidWord, values: tuple) -> SheafData:
        field, (N, _, mats, stalks) = self.cand.field, values
        return SheafData(field, braid, N, [Matrix._from_values(field, m, cols=N) for m in mats],
                         [Subspace._from_echelon(field, N, *w) for w in stalks],
                         [DegenerateSummand(s, self.cand.lam[s - 1]) for s in self.deg_comps])

    def trivialization(self) -> LocalTrivialization:
        return LocalTrivialization._from_values(self.cand.field, *self._inverses(
            [self.functional(t) for t in range(1, self.cand.n + 1)]))

    def _inverses(self, gs: Sequence) -> tuple[list, list]:
        """The trivialization's functionals, gs at the non-degenerate
        strands, and their right inverses e_a / g_t[a] at the last
        coordinate a where g_t is nonzero: R_{j_a} / R[t][j_a] on a pivot
        column (a nonzero row is nonzero on some pivot column), -R_0 at a
        zero-row strand.  Pivot columns are basis vectors, so
        (Id - M_t) finv_t = R_t falls out for every strand."""
        p = self.p
        f, finv = [], []
        for t, g in enumerate(gs, 1):
            if t in self.deg_strands:
                f.append(None)
                finv.append(None)
                continue
            last = max(a for a, v in enumerate(g) if v)
            col = [_zero(p)] * self.N
            col[last] = _inv(p, g[last])
            f.append(g)
            finv.append(col)
        return f, finv


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
    lay = _certified_layout(cand, braid)
    return diff_candidates(cand, sheaf_to_aug(lay.sheaf(braid), lay.trivialization()))


def _roundtrip_values(lay: _AugLayout, geom, values: tuple) -> Optional[DiffReport]:
    """roundtrip_aug on field values, for the layout of a candidate known to
    pass the relation certificate and the values(lay.extended) of its sheaf:
    None when _read_off gives the candidate back, else the diff."""
    cand = lay.cand
    N, gs, mats, stalks = values
    rows, lam, mu, _ = _read_off(lay.p, geom, N, mats, [w for w, _ in stalks],
                                 {s: cand.lam[s - 1].value for s in lay.deg_comps},
                                 *lay._inverses(gs), {})
    if (rows == cand.R.values and lam == [x.value for x in cand.lam]
            and mu == [x.value for x in cand.mu]):
        return None
    return diff_candidates(cand, _candidate(cand.field, cand.components, rows, lam, mu))


def roundtrip_sheaf(sheaf: SheafData) -> DiffReport:
    """Verify the object is recovered from its own augmentation.

    The comparison map from the subsheaf of the induced augmentation onto
    V_0 is the one its read-off formula R[i][j] = f_i (Id - M_j) finv_j
    names: R_j -> (Id - M_j) finv_j at the pivot strands j.  It is checked
    to be an isomorphism onto the once-stabilized subobject, matching
    meridian actions, stalks, extension bookkeeping, and degenerate data, on
    every field.  The map is the vector-free form of R_j -> v_j / f_j(v) for
    a v off every stalk exactly when each non-degenerate meridian is the
    rank-one update M_j = Id - (Id - M_j) finv_j f_j, which every valid sheaf
    satisfies (M_j fixes ker f_j pointwise); strands where it fails are
    one more entry of the report.
    """
    return _roundtrip_sheaf(sheaf)[0]


def _roundtrip_sheaf(sheaf: SheafData, lay: _AugLayout | None = None, values: tuple | None = None
                     ) -> tuple[DiffReport, AugCandidate | None, tuple | None]:
    """roundtrip_sheaf's report, plus the induced augmentation it read
    (None when Gamma != 0 stopped it first) and, given lay, its _orbit_key.
    Every comparison runs on field values; a Subspace is built only for a
    stalk mismatch's entry.  lay is the layout sheaf was built from, of a
    certified candidate, and values its values(lay.extended): a read-back in
    lay.cand's orbit passes the certificate, which reduced dilations keep,
    and one equal to lay.cand takes its layout and values."""
    report = DiffReport()
    field, p, N, n = sheaf.field, sheaf.field.p, sheaf.N, sheaf.braid.n
    normals = [_null_vectors(p, w._vectors, w._pivots, N) for w in sheaf.W]
    # Gamma, the meet of the stalks, has dimension N minus the rank of their normals
    gamma = N - len(_rref(p, [v for rows in normals for v in rows], N)[1])
    if gamma:
        report.add("Gamma", "0", gamma)
        return report, None, None
    # f_j and d_j = (Id - M_j) finv_j as values, None at the degenerate strands
    triv = choose_trivialization(sheaf)
    rows, lam, mu, disp = _sheaf_read_off(sheaf, triv)
    key = eps_lay = None
    if lay is None:
        eps = _candidate(field, sheaf.components, rows, lam, mu)
    else:
        rep = lay.cand
        rep_key = _orbit_key(rep.R.values, [x.value for x in rep.lam], [x.value for x in rep.mu])
        key = _orbit_key(rows, lam, mu)
        if key == rep_key:  # rep's rows are canonical, so key is its orbit's
            eps, eps_lay = rep, lay
        else:
            key = _orbit_key(_canonical_rows(p, sheaf.components, rows)[1], lam, mu)
            eps = _candidate(field, sheaf.components, rows, lam, mu)
            if key == rep_key:
                eps_lay = _AugLayout(eps, index_sets(eps))
    units = _identity(p, N)
    bent = [t for t, (M_t, f_t, d_t) in enumerate(zip(sheaf._values, triv._f, disp), 1)
            if d_t is not None and M_t != tuple(map(tuple, _minus_outer(p, d_t, f_t, units)))]
    if bent:
        report.add("rank-one meridians", "M[j] = Id - d_j f_j", f"fails at strands {bent}")

    expected_deg = [(d.component, d.alpha) for d in sheaf.deg]
    deg = degenerate_components(eps) if eps_lay is None else eps_lay.deg_comps
    got_deg = [(s, eps.lam[s - 1]) for s in deg]
    if expected_deg != got_deg:
        report.add("deg", expected_deg, got_deg)

    if eps_lay is None:
        try:
            eps_lay = _certified_layout(eps, sheaf.braid)
        except NotAnAugmentationError as err:
            report.add("induced augmentation", "valid candidate", err.report.failures[:3])
            return report, eps, key
    reuse = eps_lay is lay and not lay.extended
    dim, _, sub_M, sub_W = values if reuse else eps_lay.values(extended=False)
    V0, V0_pivots = _stabilized(p, N, sheaf._values)
    if dim != len(V0_pivots):
        report.add("dim V_0", dim, len(V0_pivots))
        return report, eps, key
    if dim == 0:
        return report, eps, key

    # R = (f_i d_j), so the d_j at R's pivot columns are independent: Phi is
    # injective, and each d_j = (Id - M_j) finv_j lies in V_0, so with the
    # dimensions equal Phi's image is V_0
    Phi = _transpose([disp[j - 1] for j in eps_lay.pivots], N)
    for t in range(1, n + 1):
        if _matmul(p, sheaf._values[t - 1], Phi, dim) != _matmul(p, Phi, sub_M[t - 1], dim):
            report.add(f"intertwine M[{t}]", "equal products", "mismatch")
    V0_normals = _null_vectors(p, V0, V0_pivots, N)  # stacked with each stalk's
    for i in range(1, n + 1):
        meet = normals[i - 1] + V0_normals  # W_i meets V_0 in their kernel
        image = [_matvec(p, Phi, w) for w in sub_W[i - 1][0]]
        if (N - len(_rref(p, meet, N)[1]) != len(image)
                or any(_dot(p, row, v) for row in meet for v in image)):
            report.add(f"stalk match W[{i}]", sheaf.W[i - 1]._meet(tuple(V0_normals)).to_json(),
                       Subspace._from_values(field, N, image).to_json())

    outside = {i for i in range(1, n + 1)
               if all(sheaf.W[i - 1]._coordinates(v) is not None for v in V0)}
    zero_rows = eps_lay.zero_rows | eps_lay.deg_strands  # R's zero rows
    if outside != zero_rows:
        report.add("extension strands", sorted(zero_rows), sorted(outside))
    return report, eps, key


def extend_by_constant(sheaf: SheafData, extra: int) -> SheafData:
    """Direct-sum a trivial block inside every stalk (the local-system
    modifications that leave the induced augmentation unchanged)."""
    field, N = sheaf.field, sheaf.N
    pad, block = (_zero(field.p),) * extra, list(_identity(field.p, N + extra)[N:])
    M2 = [Matrix._from_values(field, [row + pad for row in mat.values] + block, cols=N + extra)
          for mat in sheaf.M]
    # the padded echelon rows and the new unit rows are together still reduced
    W2 = [Subspace._from_echelon(field, N + extra, [v + pad for v in sub._vectors] + block,
                                 sub._pivots + tuple(range(N, N + extra))) for sub in sheaf.W]
    return SheafData(field, sheaf.braid, N + extra, M2, W2, sheaf.deg)
