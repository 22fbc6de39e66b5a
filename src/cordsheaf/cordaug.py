"""Augmentation candidates for a braid closure and their relation checks.

A candidate packages the matrix R of values on standard cords together with
the per-component units lambda_s and mu_s.  Validity is decided by a finite
certificate: diagonal normalization, meridian and skein relations on broken
cords, longitude relations at the base strands, Wirtinger consistency of the
induced meridian operators, and the per-strand transport identities that tie
rows and columns of R together through the braid.  Meridians act on columns
of R by the rank-one updates

    rho(m_t) R_j = R_j - R[t][j] R_t,
    rho(m_t^-1) R_j = R_j + mu_t^-1 R[t][j] R_t,

so every broken-cord value is a finite matrix computation.  The updates run
on plain field values, the values a Matrix stores (residues in 0..p-1
reduced mod p, or exact Fractions over the rationals, which every function
here still supports), with mu^-1 computed once per strand and the vector
updates done by linalg's shared kernels.  One kernel, _carry, carries a
vector through a word, O(n) per letter.  Each update satisfies
E_t R = R (Id + c e_t R_{t.}) and E_t x = x + c x_t R_{.t}: so a row of
loop_matrix(w) @ R is that row of R carried forward through w by R's rows,
and a column of loop_matrix(w) @ X, which apply_loop forms, is that column
of X carried back by R's columns.

The meridian and skein families are consequences of the diagonal
normalization alone: they hold identically (a test pins this down), so no
path evaluates them, and the longitude families follow from the transport
identities, so only a failing certificate itemizes them.  The transport
and Wirtinger families are written once, as a generator of failures on
raw values: the fast path, passes_fast, stops at its first item, and the
full check itemizes every item alongside the other families.  passes_fast
takes the raw rows, mu^-1 and lambda rather than a candidate, so the
enumerator certifies rows of residues without building an AugCandidate.
Reduced dilations likewise have one canonicity test (_forest_dilation) and
one action (_dilation_factors, applied by _dilated_rows) on raw rows of R,
shared by the enumerator, the quotient, canonical_form and apply_dilation.
"""

from __future__ import annotations

from typing import Sequence

from .braid import BraidGeometry, BraidWord, ComponentMap, MeridianWord, geometry
from .field import (FieldSpec, MixedFieldError, Scalar, WireFormatError, check_field,
                    wire_get, wire_units)
from .linalg import Matrix, _axpy, _inv, _mul, _one, _scale, _sub, _transpose
from .reports import ValidationReport


class AugCandidate:
    """A point of the naive augmentation set for a given braid closure."""

    __slots__ = ("field", "components", "R", "lam", "mu")

    def __init__(self, field: FieldSpec, components: ComponentMap, R: Matrix,
                 lam: Sequence[Scalar], mu: Sequence[Scalar]):
        n, r = components.n, components.r
        if R.rows != n or R.cols != n:
            raise ValueError(f"R must be {n}x{n}")
        if len(lam) != r or len(mu) != r:
            raise ValueError(f"need {r} lambda and mu values")
        check_field(field, (R, *lam, *mu), "candidate part")
        for x in tuple(lam) + tuple(mu):
            if x.is_zero():
                raise ValueError("lambda and mu are units and cannot vanish")
        self.field = field
        self.components = components
        self.R = R
        self.lam = tuple(lam)
        self.mu = tuple(mu)

    @property
    def n(self) -> int:
        return self.components.n

    @property
    def r(self) -> int:
        return self.components.r

    def entry(self, i: int, j: int) -> Scalar:
        """R value on the standard cord from strand i to strand j (1-based)."""
        return self.R[i - 1, j - 1]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AugCandidate)
            and self.field == other.field
            and self.components == other.components
            and self.R == other.R
            and self.lam == other.lam
            and self.mu == other.mu
        )

    def __hash__(self) -> int:
        return hash((self.field, self.components.labels, self.R, self.lam, self.mu))

    def __repr__(self) -> str:
        return (f"AugCandidate(n={self.n}, r={self.r}, lam={list(self.lam)}, "
                f"mu={list(self.mu)}, R={self.R.to_json()})")

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "n": self.n,
            "r": self.r,
            "component_map": list(self.components.labels),
            "R": self.R.to_json(),
            "lambda": [str(x) for x in self.lam],
            "mu": [str(x) for x in self.mu],
        }

    @classmethod
    def from_json(cls, data: dict) -> "AugCandidate":
        field = FieldSpec.from_json(wire_get(data, "field", "$"), "$.field")
        n = wire_get(data, "n", "$", int)
        if n < 1:
            raise WireFormatError("$.n", f"strand count must be >= 1, got {n}")
        labels = wire_get(data, "component_map", "$", list)
        if len(labels) != n or any(type(s) is not int or not 0 < s <= n for s in labels):
            raise WireFormatError("$.component_map",
                                  f"expected {n} component labels in 1..{n}, got {labels}")
        components = ComponentMap(n, labels)
        R = Matrix.from_json(field, wire_get(data, "R", "$"), n, n, "$.R")
        lam, mu = (wire_units(field, wire_get(data, key, "$"), f"$.{key}", components.r)
                   for key in ("lambda", "mu"))
        return cls(field, components, R, lam, mu)


class IndexSets:
    """The strands whose row (I'') or column (J'') of R vanishes."""

    __slots__ = ("I_dprime", "J_dprime")

    def __init__(self, I_dprime, J_dprime):
        self.I_dprime = frozenset(I_dprime)
        self.J_dprime = frozenset(J_dprime)

    def __repr__(self) -> str:
        return f"IndexSets(I''={sorted(self.I_dprime)}, J''={sorted(self.J_dprime)})"


class DilationParam:
    """An r-tuple of units rescaling mixed cords by d_s/d_t; reduced iff d_1 = 1."""

    __slots__ = ("d",)

    def __init__(self, d: Sequence[Scalar]):
        for x in d:
            if x.is_zero():
                raise ValueError("dilation parameters are units")
        self.d = tuple(d)

    @property
    def reduced(self) -> bool:
        return self.d[0].is_one()

    def __repr__(self) -> str:
        return f"DilationParam({[str(x) for x in self.d]})"


# -- broken cords ----------------------------------------------------------------------


def _strand_minv(p: int | None, components: ComponentMap, mu: Sequence[Scalar]) -> list:
    """The raw mu^-1 of each strand, from the units mu of the components."""
    inv = [_inv(p, m.value) for m in mu]
    return [inv[s - 1] for s in components.labels]


def _kernel_inputs(cand: AugCandidate) -> tuple:
    """(p, raw rows of R, raw mu^-1 per strand)."""
    p = cand.field.p
    return p, cand.R.values, _strand_minv(p, cand.components, cand.mu)


def apply_loop(cand: AugCandidate, word: MeridianWord, X: Matrix) -> Matrix:
    """loop_matrix(word) @ X: each column of X carried back by R's columns."""
    if X.field != cand.field:
        raise MixedFieldError(f"cannot mix {cand.field} and {X.field}")
    if X.rows != cand.n:
        raise ValueError(f"X has {X.rows} rows, not the candidate's {cand.n}")
    word.check_strands(cand.n)
    p, R, minv = _kernel_inputs(cand)
    by, back = list(zip(*R)), word.letters[::-1]
    cols = [_carry(p, by, minv, back, col) for col in _transpose(X.values, X.cols)]
    return Matrix._from_values(cand.field, _transpose(cols, cand.n), cols=X.cols)


def loop_matrix(cand: AugCandidate, word: MeridianWord) -> Matrix:
    """Ordered product of meridian operators over the letters of the word."""
    return apply_loop(cand, word, Matrix.identity(cand.field, cand.n))


# -- index sets ------------------------------------------------------------------------


def index_sets(cand: AugCandidate) -> IndexSets:
    rows = cand.R.values
    return IndexSets((i for i, row in enumerate(rows, 1) if not any(row)),
                     (j for j, col in enumerate(zip(*rows), 1) if not any(col)))


def degenerate_components(cand: AugCandidate) -> list[int]:
    """Components whose strands all have zero row and zero column."""
    return _degenerate_components(cand, index_sets(cand))


def _degenerate_components(cand: AugCandidate, s: IndexSets) -> list[int]:
    """degenerate_components, given the candidate's index sets."""
    dead = s.I_dprime & s.J_dprime
    return [comp for comp, strands in enumerate(cand.components.strands, 1)
            if dead.issuperset(strands)]


def _one_sided_components(cand: AugCandidate, sets: IndexSets,
                          zero: frozenset[int]) -> list[int]:
    """Non-degenerate components whose strands all lie in zero, one of the
    candidate's index sets."""
    deg = _degenerate_components(cand, sets)
    return [comp for comp, strands in enumerate(cand.components.strands, 1)
            if comp not in deg and zero.issuperset(strands)]


def zero_row_components(cand: AugCandidate) -> list[int]:
    """Non-degenerate components whose strands all have zero row.

    Being non-degenerate, each such component has a nonzero column at some
    strand.
    """
    sets = index_sets(cand)
    return _one_sided_components(cand, sets, sets.I_dprime)


def zero_column_components(cand: AugCandidate) -> list[int]:
    """Non-degenerate components whose strands all have zero column (so some
    strand has a nonzero row); the mirror of zero_row_components."""
    sets = index_sets(cand)
    return _one_sided_components(cand, sets, sets.J_dprime)


# -- the relation certificate ----------------------------------------------------------


class Certificate(ValidationReport):
    """check_relations's report, with the index sets of the candidate it
    certified, for the caller that builds on them."""

    __slots__ = ("sets",)


def check_relations(cand: AugCandidate, braid: BraidWord,
                    full: bool = True) -> Certificate:
    """Verify the finite relation certificate; failures are itemized, not raised.

    The meridian and skein families are not evaluated: once the diagonal
    normalization holds, which is checked first and stops the certificate
    when it fails, they are identities of the rank-one update,
    R[i][j] - R[i][t] R[t][j] + R[i][t] R[t][j] = R[i][j] and
    (1 - R[i][i]) R[i][j] = mu_i R[i][j].  So both values of ``full``, kept
    for the callers that pass it, itemize the same failures.  A longitude
    is its cycle's segments in a row, reduced, and m_t m_t^-1 carries to
    the identity under the normalization; so the transport identities imply
    the longitude relations, which only a failing report itemizes.

    One pass over the candidate's raw values serves the whole certificate:
    the kernel inputs feed the transport, Wirtinger and longitude families,
    and the index sets, kept on the report, name the degenerate components.
    """
    report = Certificate()
    geom = geometry(braid)
    if geom.components != cand.components:
        raise ValueError("candidate component map does not match the braid")
    n = cand.n
    inputs = p, rows, minv = _kernel_inputs(cand)
    report.sets = sets = index_sets(cand)
    mu = [cand.mu[s - 1].value for s in cand.components.labels]

    # (a) diagonal normalization
    one = _one(p)
    for i in range(1, n + 1):
        want = _sub(p, one, mu[i - 1])
        if rows[i - 1][i - 1] != want:
            report.fail("normalization", f"R[{i}][{i}]", want, rows[i - 1][i - 1])
    if not report.ok:
        return report  # everything below assumes the normalization

    # (e)-(f) transport identities and Wirtinger consistency
    for describe in _transport_failures(geom, [x.value for x in cand.lam], inputs):
        report.fail(*describe())

    for s in _degenerate_components(cand, sets):
        report.note(
            f"component {s} is degenerate (zero rows and columns); its meridian "
            f"unit is 1 by the normalization, and lambda_{s} parametrizes the split-off "
            "rank-1 summand"
        )
    if report.ok:
        return report  # the transport identities imply the longitude ones

    # (c) longitude relations at the base strands, both sides: row b and
    # column b of loop_matrix(l_s) @ R, one carry each
    cols = list(zip(*rows))
    for s in range(1, cand.r + 1):
        b = cand.components.base_strand(s)
        lam = cand.lam[s - 1].value
        letters = geom.longitudes[s].letters
        row = _carry(p, rows, minv, letters, rows[b - 1])
        for j, (want, got) in enumerate(zip(_scale(p, lam, rows[b - 1]), row), 1):
            if want != got:
                report.fail("longitude-left", f"(l_{s}; {b},{j})", want, got)
        col = _carry(p, cols, minv, reversed(letters), cols[b - 1])
        for i, (want, got) in enumerate(zip(_scale(p, lam, cols[b - 1]), col), 1):
            if want != got:
                report.fail("longitude-right", f"({i},{b}; l_{s})", want, got)
    return report


def _transport_failures(geom: BraidGeometry, lam: Sequence, inputs: tuple):
    """Yield one item per broken transport or Wirtinger identity, transport
    first, strand by strand.

    An item is a function returning (family, location, want, got).  It reads
    the generator's current state, so it is called before the generator
    resumes; the fast path, which stops at the first item, never calls it and
    so never pays for formatting a report.  Everything is raw field values:
    lam holds the raw lambda of each component, and inputs are the
    _kernel_inputs of R and mu, so no candidate object need exist.

    Each strand's longitude segment carries row i to row tau(i) and column
    tau(i) to column i, with the lambda unit appearing exactly on the marked
    (base-strand) segment.  Neither identity forms the segment's product:
    both read one vector of loop_matrix(segment) @ R through _carry, the row
    carried forward by R's rows and the column back by R's columns, O(n) per
    letter.  Wirtinger consistency compares each meridian with its transport
    on the column span, carrying every row of R; strands whose transported
    meridian is the generator itself hold trivially and are skipped.
    """
    p, rows, minv = inputs
    cols = None  # R's columns, built at the first column identity reached
    comps = geom.components
    n, tau = comps.n, geom.tau
    for i, s in enumerate(comps.labels, 1):
        marked = (i == comps.base[s - 1])
        letters = geom.segments[i].letters
        ti = tau[i - 1]
        lam_s = lam[s - 1]
        row = _carry(p, rows, minv, letters, rows[i - 1])
        for j, (want, got) in enumerate(zip(rows[ti - 1], row), 1):
            if (_mul(p, lam_s, want) if marked else want) != got:
                yield lambda: ("transport-row", f"strand {i} -> {ti}, col {j}", want,
                               _mul(p, _inv(p, lam_s), got) if marked else got)
        cols = cols or list(zip(*rows))
        col = _carry(p, cols, minv, reversed(letters), cols[ti - 1])
        want_col = _scale(p, lam_s, cols[i - 1]) if marked else cols[i - 1]
        for k, (want, got) in enumerate(zip(want_col, col), 1):
            if want != got:
                yield lambda: ("transport-col", f"strand {i} -> {ti}, row {k}", want, got)
    for q in range(1, n + 1):
        word = geom.transported[q - 1].letters
        if word != ((q, 1),):
            lhs = [_carry(p, rows, minv, ((q, 1),), row) for row in rows]
            rhs = [_carry(p, rows, minv, word, row) for row in rows]
            if any(tuple(a) != tuple(b) for a, b in zip(lhs, rhs)):
                yield lambda: ("wirtinger", f"m_{q}", [[str(x) for x in row] for row in lhs],
                               [[str(x) for x in row] for row in rhs])


def _carry(p: int | None, by, minv: list, letters, vec):
    """The raw vector vec carried through letters, in order, by the rank-one
    factors that by holds.

    Each update E_t = Id + c R_{.t} e_t^T (c = -1 for m_t, mu_t^-1 for
    m_t^-1) satisfies E_t R = R (Id + c e_t R_{t.}), so loop_matrix(w) @ R
    is R times those factors in w's order.  So with by the rows of R, row i
    of R carried through w is row i of loop_matrix(w) @ R; with by the
    columns of R, column j of R carried through w reversed is its column j.
    """
    for t, e in letters:
        if x := vec[t - 1]:
            vec = _axpy(p, vec, (-1 if e == 1 else minv[t - 1]) * x, by[t - 1])
    return vec


def passes_fast(geom: BraidGeometry, lam: Sequence, inputs: tuple) -> bool:
    """Early-exit version of the certificate for the enumeration inner loop,
    on raw values: lam is the raw lambda of each component and inputs are
    the _kernel_inputs of R and mu.

    Stops at the first failure of the transport and Wirtinger families that
    check_relations also itemizes, so a tuple rejected at a strand's row
    identity costs one row carried through that strand's segment; skips the
    identically-true meridian/skein families, assumes the diagonal was built
    from mu, and drops the full-longitude family (which chains from the
    per-segment transport identities).  A test pins the two modes to the
    same candidate set.
    """
    return next(_transport_failures(geom, lam, inputs), None) is None


# -- dilations ---------------------------------------------------------------------------


def apply_dilation(cand: AugCandidate, d: DilationParam) -> AugCandidate:
    """Rescale mixed cords by d_s/d_t; lambda and mu are untouched."""
    if len(d.d) != cand.r:
        raise ValueError("dilation parameter has the wrong number of components")
    check_field(cand.field, d.d, "dilation parameter")
    factors = _dilation_factors(cand.field.p, cand.components, [x.value for x in d.d])
    return _with_rows(cand, _dilated_rows(cand.field.p, factors, cand.R.values))


def _with_rows(cand: AugCandidate, rows) -> AugCandidate:
    """cand with R replaced by rows of canonical values."""
    return AugCandidate(cand.field, cand.components, Matrix._from_values(cand.field, rows),
                        cand.lam, cand.mu)


def _dilation_factors(p: int | None, components: ComponentMap, d: Sequence) -> list:
    """The dilation by raw units d, per row i of R: (j, d_s / d_t) for each
    column j whose factor is not 1, s and t the components of strands i, j."""
    scale = [d[s - 1] for s in components.labels]
    inv = [_inv(p, x) for x in scale]
    return [[(j, f) for j, f in enumerate(_scale(p, di, inv)) if f != 1] for di in scale]


def _dilated_rows(p: int | None, factors: list, rows) -> tuple:
    """The raw rows of R rescaled by a _dilation_factors table."""
    out = []
    for row, moves in zip(rows, factors):
        if moves:
            row = list(row)
            for j, f in moves:
                row[j] = _mul(p, f, row[j])
            row = tuple(row)
        out.append(row)
    return tuple(out)


def _forest_dilation(p: int | None, components: ComponentMap, rows) -> list:
    """The raw d of canonical_form, from the raw rows of R.

    The edges are the nonzero entries x of R, in row-major order, whose row
    and column strands lie on different components c and c', numbered from
    0; growing the forest reads nothing else, the diagonal included.
    """
    labels = [s - 1 for s in components.labels]
    edges = [(ci, cj, x) for ci, row in zip(labels, rows)
             for cj, x in zip(labels, row) if x and ci != cj]
    one = _one(p)
    d: list = [None] * components.r
    for s in range(components.r):
        if d[s] is not None:
            continue
        d[s] = one
        grew = True
        while grew:
            grew = False
            for ci, cj, x in edges:
                known_i, known_j = d[ci] is not None, d[cj] is not None
                if known_i == known_j:
                    continue
                # rescaled entry (d_ci / d_cj) x becomes 1
                if known_i:
                    d[cj] = _mul(p, d[ci], x)
                else:
                    d[ci] = _mul(p, d[cj], _inv(p, x))
                grew = True
                break
    return d


def _canonical_rows(p: int | None, components: ComponentMap, rows) -> tuple[list, tuple]:
    """canonical_form's raw d and the raw rows of R in its representative,
    from the raw rows of R, which are returned as they are when d is all ones.
    """
    d = _forest_dilation(p, components, rows)
    if all(x == 1 for x in d):
        return d, rows
    return d, _dilated_rows(p, _dilation_factors(p, components, d), rows)


def _orbit_key(rows, lam: Sequence, mu: Sequence) -> tuple:
    """A reduced-dilation orbit's key: its canonical R's raw rows, raw lambda and mu."""
    return rows, tuple(lam), tuple(mu)


def canonical_form(cand: AugCandidate) -> tuple[AugCandidate, DilationParam]:
    """Orbit representative under reduced dilations, plus the witnessing d.

    Components are pinned by growing a spanning forest of the graph whose
    edges are the nonzero mixed entries of R: starting from component 1
    (d_1 = 1), repeatedly take the first row-major nonzero entry joining a
    pinned component to an unpinned one and rescale that entry to 1, which
    pins the new component; exhausted clusters anchor their smallest member
    at d = 1.  The zero pattern of R is a dilation invariant, so the chosen
    edges and the resulting representative are constant on orbits, and the
    map is idempotent because every anchor entry of a representative is 1.
    So a candidate is its own representative exactly when d is all ones.
    """
    d, rows = _canonical_rows(cand.field.p, cand.components, cand.R.values)
    return _with_rows(cand, rows), DilationParam([Scalar(cand.field, x) for x in d])
