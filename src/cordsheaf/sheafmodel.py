"""Combinatorial model of simple microlocal-rank-1 sheaves along a braid closure.

An object is a link-group representation given by one invertible matrix per
disk meridian, a codimension-1 stalk subspace per strand fixed pointwise by
its meridian and transported into each other by the longitude segments, and
a list of split-off degenerate summands (rank-1 monodromies on components
the object leaves unlinked).  Strands of degenerate components carry the
identity matrix and the full ambient space as their stalk datum.

Predicates: stable means no global sections and the whole space is generated
by the meridian displacements; reduced additionally excludes constant
subsheaves, constant quotients, and split-off extended-by-zero constant
summands.  Objects carrying degenerate summands are neither (they are not
plain sheaves in degree zero), which is exactly the bookkeeping the
property-transport table expects.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional, Sequence

from .braid import BraidWord, BudgetExceededError, MeridianWord, geometry
from .field import FieldSpec, Scalar, WireFormatError, check_field, wire_get, wire_unit
from .linalg import (Matrix, Subspace, _axpy, _dot, _identity, _inverse, _matmul, _matvec, _mul,
                     _rref, _sub, _transpose, _zero)
from .reports import ValidationReport

# the largest N * n of sheaf data on the wire: validating a dense document
# takes about n N^3 steps, 0.3 s for N = 128 on one strand (2-core Xeon host)
MAX_SHEAF_SIZE = 128


def check_size(N: int, n: int) -> None:
    """Refuse sheaf data of dimension N on n strands above MAX_SHEAF_SIZE."""
    if N * n > MAX_SHEAF_SIZE:
        raise BudgetExceededError(N * n, MAX_SHEAF_SIZE, "stalk coordinates (N times strands)",
                                  "sheaf data")


class DegenerateSummand:
    """A component unlinked by the object, carrying a rank-1 monodromy."""

    __slots__ = ("component", "alpha")

    def __init__(self, component: int, alpha: Scalar):
        if alpha.is_zero():
            raise ValueError("degenerate monodromy must be a unit")
        self.component = component
        self.alpha = alpha

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, DegenerateSummand)
                and (self.component, self.alpha) == (other.component, other.alpha))

    def __hash__(self) -> int:
        return hash((self.component, self.alpha))

    def __repr__(self) -> str:
        return f"DegenerateSummand(component={self.component}, alpha={self.alpha})"

    def to_json(self) -> dict:
        return {"component": self.component, "alpha": str(self.alpha)}


class SheafData:
    """Meridian matrices, stalk subspaces, and degenerate summands."""

    __slots__ = ("field", "braid", "N", "M", "W", "deg", "_values", "_minv")

    def __init__(self, field: FieldSpec, braid: BraidWord, N: int,
                 M: Sequence[Matrix], W: Sequence[Subspace],
                 deg: Sequence[DegenerateSummand] = ()):
        self.field = field
        self.braid = braid
        self.N = N
        self.M = tuple(M)
        self.W = tuple(W)
        self.deg = tuple(sorted(deg, key=lambda d: d.component)) if deg else ()
        self._minv: dict[int, list] = {}  # strand -> rows of its inverse meridian
        if len(self.M) != braid.n or len(self.W) != braid.n:
            raise ValueError("need one meridian matrix and one stalk subspace per strand")
        for mat in self.M:
            if (mat.rows, mat.cols) != (N, N):
                raise ValueError("meridian matrix of the wrong shape")
        for sub in self.W:
            if sub.ambient_dim != N:
                raise ValueError("stalk subspace in the wrong ambient space")
        check_field(field, self.M + self.W + tuple(d.alpha for d in self.deg), "sheaf part")
        self._values = tuple([m.values for m in self.M])  # for transports and the read-off

    @property
    def components(self):
        return geometry(self.braid).components

    def deg_strands(self) -> frozenset[int]:
        if not self.deg:
            return frozenset()
        comps, deg = self.components, {d.component for d in self.deg}
        return frozenset(i for i in range(1, self.braid.n + 1) if comps.component(i) in deg)

    def transport(self, word: MeridianWord) -> Matrix:
        """rho(word): ordered product of meridian matrices over the letters."""
        word.check_strands(self.braid.n)
        p, N = self.field.p, self.N
        mats = [_meridian_rows(p, self._values, self._minv, s, e) for s, e in word.letters]
        out = mats[0] if mats else _identity(p, N)
        for mat in mats[1:]:
            out = _matmul(p, out, mat, N)
        return Matrix._from_values(self.field, out, cols=N)

    def _transport_vector(self, word: MeridianWord, vec) -> list:
        """rho(word) applied to a vector of field values."""
        return _transport_values(self.field.p, self._values, self._minv, word.letters, vec)

    def _transport_row(self, word: MeridianWord, row) -> list:
        """A row vector of field values times rho(word), letter by letter."""
        p = self.field.p
        for s, e in word.letters:
            row = [_dot(p, row, col)
                   for col in zip(*_meridian_rows(p, self._values, self._minv, s, e))]
        return list(row)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SheafData)
                and (self.field, self.braid, self.N) == (other.field, other.braid, other.N)
                and self.M == other.M and self.W == other.W and self.deg == other.deg)

    def __repr__(self) -> str:
        return (f"SheafData(braid={self.braid!r}, N={self.N}, "
                f"deg={[(d.component, str(d.alpha)) for d in self.deg]})")

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "braid": self.braid.to_json(),
            "N": self.N,
            "M": [m.to_json() for m in self.M],
            "W": [w.to_json() for w in self.W],
            "deg": [d.to_json() for d in self.deg],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SheafData":
        field = FieldSpec.from_json(wire_get(data, "field", "$"), "$.field")
        braid = BraidWord.from_json(wire_get(data, "braid", "$"), "$.braid")
        N = wire_get(data, "N", "$", int)
        if N < 0:
            raise WireFormatError("$.N", f"dimension must be >= 0, got {N}")
        check_size(N, braid.n)
        M, W = (wire_get(data, key, "$", list) for key in ("M", "W"))
        for key, items in (("M", M), ("W", W)):
            if len(items) != braid.n:
                raise WireFormatError(f"$.{key}", f"expected {braid.n} entries, one per "
                                      f"strand, got {len(items)}")
        M = [Matrix.from_json(field, m, N, N, f"$.M[{k}]") for k, m in enumerate(M)]
        W = [Subspace.from_json(field, N, w, f"$.W[{k}]") for k, w in enumerate(W)]
        deg = []
        for k, d in enumerate(wire_get(data, "deg", "$", list)):
            at = f"$.deg[{k}]"
            deg.append(DegenerateSummand(wire_get(d, "component", at, int),
                                         wire_unit(field, wire_get(d, "alpha", at), f"{at}.alpha")))
        return cls(field, braid, N, M, W, deg)


def _meridian_rows(p: int | None, M: Sequence, minv: dict, strand: int, exponent: int):
    """The rows of M_strand ** exponent (exponent +-1) for the meridians'
    rows of values M.  Each inverse is computed once into minv, and a
    singular meridian raises ZeroDivisionError naming it."""
    if exponent == 1:
        return M[strand - 1]
    if strand not in minv:
        try:
            minv[strand] = _inverse(p, M[strand - 1])
        except ZeroDivisionError:
            raise ZeroDivisionError(f"meridian M[{strand}] is singular") from None
    return minv[strand]


def _transport_values(p: int | None, M: Sequence, minv: dict, letters, vec) -> list:
    """rho(word) applied to a vector of values, letter by letter, for the
    meridians' rows of values M (see _meridian_rows)."""
    for s, e in reversed(letters):
        vec = _matvec(p, _meridian_rows(p, M, minv, s, e), vec)
    return list(vec)


def validate(sheaf: SheafData) -> ValidationReport:
    """Check the four defining invariants plus the degenerate-strand shape.

    Stalk compatibility is checked by containment: with the meridians known
    to be invertible, the segment transport A maps W_tau(i) onto W_i exactly
    when the dimensions agree and A carries each basis vector of W_tau(i)
    into W_i.  The vectors are carried letter by letter and their
    coordinates read off W_i's pivots; only a failing strand builds A and
    the image A(W_tau(i)) for its report.  Invertibility is decided on the
    meridians' values: where the stalk is a hyperplane that the meridian
    fixes pointwise, as g(M x) (``_fixing_det``), elsewhere by elimination.
    The braid's components and the degenerate strands are looked up once.
    """
    report = ValidationReport()
    geom = geometry(sheaf.braid)
    n, N, p = sheaf.braid.n, sheaf.N, sheaf.field.p
    comps = geom.components
    deg_strands = sheaf.deg_strands()

    seen = set()
    for d in sheaf.deg:
        if not (1 <= d.component <= comps.r) or d.component in seen:
            report.fail("degenerate", f"component {d.component}", "a distinct component", d.component)
        seen.add(d.component)

    full = Subspace.full(sheaf.field, N) if deg_strands else None
    moved = {}  # strand -> _first_moved of its meridian, where already known
    for i in range(1, n + 1):
        M_i, W_i = sheaf.M[i - 1], sheaf.W[i - 1]
        if i not in deg_strands and len(W_i._pivots) == N - 1:
            moved[i] = _first_moved(p, M_i, W_i)
        fixed = i in moved and moved[i] is None
        if not (_fixing_det(p, M_i, W_i) if fixed else M_i.is_invertible()):
            report.fail("invertibility", f"M[{i}]", "invertible", "singular")
            return report
        if i in deg_strands:
            if W_i != full:
                report.fail("simpleness", f"W[{i}]", "full space on a degenerate strand", W_i.dim)
            if not M_i.is_identity():
                report.fail("degenerate", f"M[{i}]", "identity on a degenerate strand", M_i.to_json())
        elif W_i.dim != N - 1:
            report.fail("simpleness", f"W[{i}]", N - 1, W_i.dim)

    # representation of the link group; a strand whose transported meridian
    # is its own generator compares M_q with itself
    for q in range(1, n + 1):
        word = geom.transported[q - 1]
        if word.letters == ((q, 1),):
            continue
        rhs = sheaf.transport(word)
        if sheaf.M[q - 1] != rhs:
            report.fail("wirtinger", f"m_{q}", rhs.to_json(), sheaf.M[q - 1].to_json())

    # meridians act trivially on their own stalk
    for i in range(1, n + 1):
        hit = moved[i] if i in moved else _first_moved(p, sheaf.M[i - 1], sheaf.W[i - 1])
        if hit:
            w, got = hit
            report.fail("meridian-triviality", f"M[{i}] on W[{i}]",
                        list(map(str, w)), [[str(x)] for x in got])

    # longitude segments carry stalk subspaces into each other (by
    # containment; an empty segment carries W_tau(i) to itself)
    tau = geom.tau
    for i in range(1, n + 1):
        seg, src, dst = geom.segments[i], sheaf.W[tau[i - 1] - 1], sheaf.W[i - 1]
        if not seg.letters:
            carried = src == dst
        else:
            carried = src.dim == dst.dim and all(
                dst._coordinates(sheaf._transport_vector(seg, v)) is not None
                for v in src._vectors)
        if not carried:
            report.fail("compatibility", f"segment of strand {i}",
                        dst.to_json(), src.apply(sheaf.transport(seg)).to_json())
    return report


def _first_moved(p: int | None, M: Matrix, W: Subspace):
    """(w, M w) for the first basis vector w of W that M moves, or None; M w
    is the column of M at w's pivot plus those at w's entries past it."""
    cols = _transpose(M.values, M.cols)
    for q, w in zip(W._pivots, W._vectors):
        got = cols[q]
        for c in range(q + 1, len(w)):
            if w[c]:
                got = _axpy(p, got, w[c], cols[c])
        if tuple(got) != w:
            return w, got
    return None


def _fixing_det(p: int | None, M: Matrix, W: Subspace):
    """det M for an M that fixes the hyperplane W = ker g pointwise: with
    g(x) = 1, M = Id + (M x - x) g, so det M = 1 + g(M x - x) = g(M x).  Take
    x = e_m at W's non-pivot m and g_m = 1, g_k = -W[k][m] at k < m: g(M e_m)
    is M[m][m] - sum of W[k][m] M[k][m] (W's rows past m vanish at m)."""
    piv = W._pivots
    m = len(piv) * (len(piv) + 1) // 2 - sum(piv)
    col = [row[m] for row in M.values]
    return _sub(p, col[m], _dot(p, [w[m] for w in W._vectors], col))


def global_sections(sheaf: SheafData) -> Subspace:
    """Intersection of all stalk subspaces, the kernel of their annihilators;
    fixed by every meridian."""
    return Matrix._from_values(sheaf.field, [
        row for sub in sheaf.W for row in sub.annihilator().values], cols=sheaf.N).kernel()


def stabilized_space(sheaf: SheafData) -> Subspace:
    """V_0: the span of the meridian displacements e_j - M_t e_j."""
    return Subspace._from_echelon(sheaf.field, sheaf.N,
                                  *_stabilized(sheaf.field.p, sheaf.N, sheaf._values))


def _stabilized(p: int | None, N: int, M: Sequence) -> tuple[list, list]:
    """V_0's reduced basis rows and their pivots, from the meridians' rows
    of values M."""
    units = _identity(p, N)
    red, pivots = _rref(p, [col for rows in M for col in _transpose(
        [_axpy(p, e, -1, row) for e, row in zip(units, rows)], N)], N)
    return red[:len(pivots)], pivots


def once_stabilized(sheaf: SheafData) -> SheafData:
    """The subobject on V_0, with stalks W_i ∩ V_0, in V_0 coordinates.

    The result is a sheaf on the sublink where its stalks still drop rank;
    strands whose stalk became the whole of V_0 are where the micro-support
    shrank, so the codimension-1 invariant is not re-imposed here.
    """
    V0 = stabilized_space(sheaf)
    field, d, p = sheaf.field, V0.dim, sheaf.field.p
    new_M = []
    for mat in sheaf.M:
        cols = [V0._coordinates(_matvec(p, mat.values, v)) for v in V0._vectors]
        if None in cols:
            raise ValueError("V_0 is not invariant; invalid sheaf data")
        new_M.append(Matrix._from_values(field, _transpose(cols, d), cols=d))
    normals = V0.annihilator().values  # V_0's, stacked with each stalk's
    new_W = [Subspace._from_values(field, d, map(V0._coordinates, sub._meet(normals)._vectors))
             for sub in sheaf.W]
    return SheafData(field, sheaf.braid, d, new_M, new_W, sheaf.deg)


def is_stable(sheaf: SheafData) -> bool:
    """No global sections and V_0 is everything; false if summands split off."""
    return (not sheaf.deg and global_sections(sheaf).dim == 0
            and stabilized_space(sheaf).dim == sheaf.N)


def _constant_quotient_exists(sheaf: SheafData) -> bool:
    """Is there a surjection onto a constant sheaf: a functional vanishing
    on V_0 and on no stalk?  In a basis of ann(V_0), psi vanishes on a stalk
    inside a hyperplane, so _grid's points for the degree-n product of
    linear forms, one per stalk, decide."""
    ann, p = stabilized_space(sheaf).annihilator().values, sheaf.field.p
    for coeffs in _grid(p, len(ann), len(sheaf.W))[1]:
        psi = [_zero(p)] * sheaf.N
        for c, row in zip(coeffs, ann):
            psi = _axpy(p, psi, c, row)
        if all(any(_dot(p, psi, w) for w in sub._vectors) for sub in sheaf.W):
            return True
    return False


def _split_constant_summand_exists(sheaf: SheafData) -> bool:
    """Is there a direct summand equal to a rank-1 constant sheaf extended by
    zero over a nonempty sublink?

    Such a summand is spanned by a fixed vector lying in the stalks away from
    the sublink and outside them on it; the complement is forced to be the
    common stalk subspace over the sublink, so existence is a finite check
    over sublinks, complete over every field.
    """
    field, N = sheaf.field, sheaf.N
    eye = Matrix.identity(field, N)
    displacements = [row for mat in sheaf.M for row in (eye - mat).values]
    fixed = Matrix._from_values(field, displacements, cols=N).kernel()
    if fixed.dim == 0:
        return False
    comps = sheaf.components
    for size in range(1, comps.r + 1):
        for sublink in itertools.combinations(range(1, comps.r + 1), size):
            strands = [i for i in range(1, comps.n + 1) if comps.component(i) in sublink]
            others = [i for i in range(1, comps.n + 1) if comps.component(i) not in sublink]
            walls = {sheaf.W[i - 1] for i in strands}
            if len(walls) != 1:
                continue
            complement = next(iter(walls))
            if any(complement.apply(mat) != complement for mat in sheaf.M):
                continue
            inside = Matrix._from_values(field, displacements + [
                row for i in others for row in sheaf.W[i - 1].annihilator().values],
                cols=N).kernel()
            # need a fixed vector in every off-sublink stalk but outside the wall
            if not complement.contains_subspace(inside):
                return True
    return False


def is_reduced(sheaf: SheafData) -> bool:
    """No constant subsheaf, no constant quotient, no split constant-on-a-
    sublink summand; objects with degenerate summands are not reduced."""
    return not (sheaf.deg or global_sections(sheaf).dim or _constant_quotient_exists(sheaf)
                or _split_constant_summand_exists(sheaf))


# -- isomorphism search ---------------------------------------------------------------


def _intertwiner_space(F: SheafData, G: SheafData) -> list[tuple]:
    """Basis of {P : M_i^G P = P M_i^F and P(W_i^F) <= W_i^G}, each P as
    its entries row by row."""
    N, p = F.N, F.field.p
    rows = []  # linear conditions on P, flattened row by row
    for MF, MG, WF, WG in zip(F.M, G.M, F.W, G.W):
        for a, b in itertools.product(range(N), repeat=2):
            # (MG P - P MF)[a][b] = 0
            row = [_zero(p)] * (N * N)
            for k in range(N):
                row[k * N + b] = MG.values[a][k]
            for k in range(N):
                row[a * N + k] = _sub(p, row[a * N + k], MF.values[k][b])
            rows.append(row)
        # phi(P w) = 0 for each w of W^F and phi vanishing on W^G
        ann = WG.annihilator().values
        rows += [[_mul(p, x, y) for x in phi for y in w] for w in WF._vectors for phi in ann]
    return list(Matrix._from_values(F.field, rows).kernel()._vectors)


_TRIALS = 20000


def _grid(p: int | None, k: int, d: int) -> tuple[int, Iterator[tuple]]:
    """(count, points in lexicographic order) of the coefficient vectors that
    decide if a polynomial f of degree <= d in k variables vanishes: F_p^k
    when p <= d, else, over QQ as over F_p, the points of {0..d}^k with
    coordinate sum <= d.  f's first nonzero point in F_p^k is one of them
    (grid Schwartz-Zippel lemma; induct on k: if x_1 = a there, f is
    divisible by x_1 (x_1 - 1) ... (x_1 - a + 1), so f(a, ...) has degree
    <= d - a)."""
    if p is not None and p <= d:
        return p ** k, itertools.product(range(p), repeat=k)
    # stars and bars: the gaps of each c_1 < ... < c_k below d + k
    bars = itertools.combinations(range(d + k), k)
    return math.comb(d + k, k), (tuple(b - a - 1 for a, b in zip((-1, *c), c)) for c in bars)


def _moved_ranks(sheaf: SheafData) -> list[int]:
    """rank(Id - M_i) for each strand i."""
    one = Matrix.identity(sheaf.field, sheaf.N)
    return [(one - m).rank() for m in sheaf.M]


def isomorphic(F: SheafData, G: SheafData) -> Optional[Matrix]:
    """The first invertible intertwiner matching meridians, stalks, and
    degenerate data, or None, which is a proof.

    Over a basis B_i of the intertwiner space, det(sum x_i B_i) has degree
    <= N, so _grid's points decide, and the first hit is the first in
    F_p^k.  BudgetExceededError if _TRIALS points find none and more remain.
    An invertible P is enough: P(W_i^F) <= W_i^G is built into the space,
    and the stalk dimensions agree.  Where they, or the ranks of Id - M_i
    per strand, differ, no trial is needed.
    """
    if ((F.field, F.braid, F.N, F.deg) != (G.field, G.braid, G.N, G.deg)
            or [w.dim for w in F.W] != [w.dim for w in G.W]
            or _moved_ranks(F) != _moved_ranks(G)):
        return None
    basis = _intertwiner_space(F, G)
    field, N, p = F.field, F.N, F.field.p
    size, points = _grid(p, len(basis), N)
    for coeffs in itertools.islice(points, _TRIALS):
        flat = [_zero(p)] * (N * N)
        for c, v in zip(coeffs, basis):
            if c:
                flat = _axpy(p, flat, c, v)
        P = Matrix._from_values(field, [flat[a * N:(a + 1) * N] for a in range(N)])
        if P.is_invertible():
            return P
    if size > _TRIALS:
        raise BudgetExceededError(size, _TRIALS, "trials", "isomorphism search")
    return None
