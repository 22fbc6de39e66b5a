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
import random
from typing import Optional, Sequence

from .braid import BraidWord, MeridianWord, geometry
from .field import FieldSpec, Scalar, WireFormatError, wire_get, wire_unit
from .linalg import Matrix, Subspace, _dot, _identity, _matmul, _matvec
from .reports import ValidationReport


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

    __slots__ = ("field", "braid", "N", "M", "W", "deg", "_minv")

    def __init__(self, field: FieldSpec, braid: BraidWord, N: int,
                 M: Sequence[Matrix], W: Sequence[Subspace],
                 deg: Sequence[DegenerateSummand] = ()):
        self.field = field
        self.braid = braid
        self.N = N
        self.M = tuple(M)
        self.W = tuple(W)
        self.deg = tuple(sorted(deg, key=lambda d: d.component))
        self._minv: dict[tuple[int, int], Matrix] = {}
        if len(self.M) != braid.n or len(self.W) != braid.n:
            raise ValueError("need one meridian matrix and one stalk subspace per strand")
        for mat in self.M:
            if (mat.rows, mat.cols) != (N, N):
                raise ValueError("meridian matrix of the wrong shape")
        for sub in self.W:
            if sub.ambient_dim != N:
                raise ValueError("stalk subspace in the wrong ambient space")

    @property
    def components(self):
        return geometry(self.braid).components

    def deg_components(self) -> frozenset[int]:
        return frozenset(d.component for d in self.deg)

    def deg_strands(self) -> frozenset[int]:
        if not self.deg:
            return frozenset()
        comps, deg = self.components, self.deg_components()
        return frozenset(i for i in range(1, self.braid.n + 1) if comps.component(i) in deg)

    def meridian_matrix(self, strand: int, exponent: int = 1) -> Matrix:
        if exponent == 1:
            return self.M[strand - 1]
        key = (strand, exponent)
        if key not in self._minv:
            self._minv[key] = self.M[strand - 1].inverse()
        return self._minv[key]

    def transport(self, word: MeridianWord) -> Matrix:
        """rho(word): ordered product of meridian matrices over the letters."""
        p, N = self.field.p, self.N
        mats = [self.meridian_matrix(s, e).values for s, e in word.letters]
        out = mats[0] if mats else _identity(p, N)
        for mat in mats[1:]:
            out = _matmul(p, out, mat, N)
        return Matrix._from_values(self.field, out, cols=N)

    def _transport_vector(self, word: MeridianWord, vec) -> list:
        """rho(word) applied to a vector of field values."""
        for s, e in reversed(word.letters):
            vec = _matvec(self.field.p, self.meridian_matrix(s, e).values, vec)
        return list(vec)

    def _transport_row(self, word: MeridianWord, row) -> list:
        """A row vector of field values times rho(word), letter by letter."""
        p = self.field.p
        for s, e in word.letters:
            row = [_dot(p, row, col) for col in zip(*self.meridian_matrix(s, e).values)]
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


def validate(sheaf: SheafData) -> ValidationReport:
    """Check the four defining invariants plus the degenerate-strand shape.

    Stalk compatibility is checked by containment: with the meridians known
    to be invertible, the segment transport A maps W_tau(i) onto W_i exactly
    when the dimensions agree and A carries each basis vector of W_tau(i)
    into W_i.  The vectors are carried letter by letter and their
    coordinates read off W_i's pivots; only a failing strand builds A and
    the image A(W_tau(i)) for its report.  Invertibility is decided on the
    meridians' values (Matrix.is_invertible builds no Scalar), and the
    braid's components and the degenerate strands are looked up once.
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
    for i in range(1, n + 1):
        M_i, W_i = sheaf.M[i - 1], sheaf.W[i - 1]
        if not M_i.is_invertible():
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
        lhs = sheaf.M[q - 1]
        rhs = sheaf.transport(word)
        if lhs != rhs:
            report.fail("wirtinger", f"m_{q}", rhs.to_json(), lhs.to_json())

    # meridians act trivially on their own stalk
    for i in range(1, n + 1):
        M_i = sheaf.M[i - 1]
        for w in sheaf.W[i - 1]._vectors:
            got = _matvec(p, M_i.values, w)
            if tuple(got) != w:
                report.fail("meridian-triviality", f"M[{i}] on W[{i}]",
                            list(map(str, w)), [[str(x)] for x in got])
                break

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
        if carried:
            continue
        report.fail("compatibility", f"segment of strand {i}",
                    dst.to_json(), src.apply(sheaf.transport(seg)).to_json())
    return report


def global_sections(sheaf: SheafData) -> Subspace:
    """Intersection of all stalk subspaces; fixed by every meridian."""
    out = Subspace.full(sheaf.field, sheaf.N)
    for sub in sheaf.W:
        out = out.intersect(sub)
    return out


def stabilized_space(sheaf: SheafData) -> Subspace:
    """V_0: the sum of the meridian displacement images im(Id - M_t)."""
    eye = Matrix.identity(sheaf.field, sheaf.N)
    out = Subspace.zero(sheaf.field, sheaf.N)
    for mat in sheaf.M:
        out = out.sum((eye - mat).image())
    return out


def once_stabilized(sheaf: SheafData) -> SheafData:
    """The subobject on V_0, with stalks W_i ∩ V_0, in V_0 coordinates.

    The result is a sheaf on the sublink where its stalks still drop rank;
    strands whose stalk became the whole of V_0 are where the micro-support
    shrank, so the codimension-1 invariant is not re-imposed here.
    """
    V0 = stabilized_space(sheaf)
    d = V0.dim
    P = V0.basis  # N x d
    new_M = []
    for mat in sheaf.M:
        cols = []
        for j in range(d):
            coords = V0.coordinates((mat * P).col(j))
            if coords is None:
                raise ValueError("V_0 is not invariant; invalid sheaf data")
            cols.append(coords)
        new_M.append(Matrix(sheaf.field, list(zip(*cols)) if cols else []))
    new_W = []
    for sub in sheaf.W:
        inter = sub.intersect(V0)
        vecs = [V0.coordinates(v) for v in inter.basis_columns()]
        new_W.append(Subspace.from_vectors(sheaf.field, d, vecs))
    return SheafData(sheaf.field, sheaf.braid, d, new_M, new_W, sheaf.deg)


def is_stable(sheaf: SheafData) -> bool:
    """No global sections and V_0 is everything; false if summands split off."""
    if sheaf.deg:
        return False
    return global_sections(sheaf).dim == 0 and stabilized_space(sheaf).dim == sheaf.N


def _constant_quotient_exists(sheaf: SheafData) -> bool:
    """Is there a surjection onto a constant sheaf (trivial quotient rep that
    stays surjective on every stalk)?"""
    V0 = stabilized_space(sheaf)
    if V0.dim == sheaf.N:
        return False
    ann = V0.annihilator()  # rows spanning functionals vanishing on V_0
    if sheaf.field.is_prime_field:
        coeff_space = itertools.product(sheaf.field.elements(), repeat=ann.rows)
        for coeffs in coeff_space:
            if all(c.is_zero() for c in coeffs):
                continue
            psi = [sheaf.field.zero()] * sheaf.N
            for c, row in zip(coeffs, ann.entries):
                psi = [a + c * b for a, b in zip(psi, row)]
            if all(_functional_nonzero_on(psi, sub, sheaf.field) for sub in sheaf.W):
                return True
        return False
    # Over an infinite field a generic functional in ann(V_0) works iff no
    # stalk is trapped inside V_0.
    return all(not V0.contains_subspace(sub) for sub in sheaf.W)


def _functional_nonzero_on(psi: Sequence[Scalar], sub: Subspace, field: FieldSpec) -> bool:
    row = Matrix.row_vector(field, psi)
    return not all((row * Matrix.column(field, v))[0, 0].is_zero()
                   for v in sub.basis_columns())


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
    stacked_rows = []
    for mat in sheaf.M:
        stacked_rows.extend((eye - mat).values)
    fixed = (Matrix._from_values(field, stacked_rows).kernel() if stacked_rows
             else Subspace.full(field, N))
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
            inside = fixed
            for i in others:
                inside = inside.intersect(sheaf.W[i - 1])
            # need a fixed vector in every off-sublink stalk but outside the wall
            if not complement.contains_subspace(inside):
                return True
    return False


def is_reduced(sheaf: SheafData) -> bool:
    """No constant subsheaf, no constant quotient, no split constant-on-a-
    sublink summand; objects with degenerate summands are not reduced."""
    if sheaf.deg:
        return False
    if global_sections(sheaf).dim != 0:
        return False
    if _constant_quotient_exists(sheaf):
        return False
    return not _split_constant_summand_exists(sheaf)


# -- isomorphism search ---------------------------------------------------------------


def _intertwiner_space(F: SheafData, G: SheafData) -> list[Matrix]:
    """Basis of {P : M_i^G P = P M_i^F and P(W_i^F) <= W_i^G}."""
    field, N = F.field, F.N
    n2 = N * N
    rows = []
    for idx in range(F.braid.n):
        MF, MG = F.M[idx], G.M[idx]
        for a in range(N):
            for b in range(N):
                row = [field.zero()] * n2
                for k in range(N):
                    row[k * N + b] = row[k * N + b] + MG[a, k]
                    row[a * N + k] = row[a * N + k] - MF[k, b]
                rows.append(row)
        ann = G.W[idx].annihilator()
        for w in F.W[idx].basis_columns():
            for phi in ann.entries:
                row = [field.zero()] * n2
                for a in range(N):
                    if phi[a].is_zero():
                        continue
                    for b in range(N):
                        row[a * N + b] = row[a * N + b] + phi[a] * w[b]
                rows.append(row)
    if not rows:
        return [Matrix.identity(field, N)] if N else []
    kern = Matrix(field, rows).kernel()
    out = []
    for v in kern.basis_columns():
        out.append(Matrix(field, [list(v[a * N:(a + 1) * N]) for a in range(N)]))
    return out


def isomorphic(F: SheafData, G: SheafData, samples: int = 800,
               seed: int = 0) -> Optional[Matrix]:
    """An invertible intertwiner matching meridians, stalks, and degenerate
    data, or None.

    Over a finite field the intertwiner space is enumerated exhaustively (up
    to a size cap), so a None answer is a proof; over the rationals random
    combinations are tried, which finds an isomorphism whenever one exists
    with overwhelming probability (invertibility is generic in the space).
    """
    if (F.field, F.braid, F.N) != (G.field, G.braid, G.N):
        return None
    if [(d.component, d.alpha) for d in F.deg] != [(d.component, d.alpha) for d in G.deg]:
        return None
    if [w.dim for w in F.W] != [w.dim for w in G.W]:
        return None
    if F.N == 0:
        return Matrix(F.field, [])
    basis = _intertwiner_space(F, G)
    if not basis:
        return None
    field = F.field
    k = len(basis)
    if field.is_prime_field and field.p ** k <= 20000:
        for coeffs in itertools.product(field.elements(), repeat=k):
            P = Matrix.zeros(field, F.N, F.N)
            for c, B in zip(coeffs, basis):
                if not c.is_zero():
                    P = P + B.scaled(c)
            if P.is_invertible() and _stalks_match(F, G, P):
                return P
        return None
    rng = random.Random(seed)
    pool = ([field.scalar(v) for v in range(-3, 4)] if not field.is_prime_field
            else list(field.elements()))
    for B in basis:
        if B.is_invertible() and _stalks_match(F, G, B):
            return B
    for _ in range(samples):
        P = Matrix.zeros(field, F.N, F.N)
        for B in basis:
            P = P + B.scaled(rng.choice(pool))
        if P.is_invertible() and _stalks_match(F, G, P):
            return P
    return None


def _stalks_match(F: SheafData, G: SheafData, P: Matrix) -> bool:
    # P(W_i^F) <= W_i^G is built into the solution space; with P invertible
    # and equal dimensions the images coincide, so this is a cheap recheck.
    return all(F.W[i].apply(P) == G.W[i] for i in range(F.braid.n))
