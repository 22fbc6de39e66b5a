"""A test-side reference for the relation certificate.

Every identity is evaluated from full products: each segment, meridian and
longitude operator is applied to the whole of R by the reference's own
product kernel, loop_product, one rank-one update of every row per letter,
and failures are itemized in Scalars.  The package's apply_loop and its
certificate both read products through cordaug._carry, a column or row at
a time; the reference never calls _carry, and shares nothing with the
enumerator's raw tuples.  It evaluates the longitude families on every
candidate, where check_relations does so only when a transport or
Wirtinger item failed.
"""

from cordsheaf.braid import BraidWord, MeridianWord, geometry
from cordsheaf.field import FieldSpec
from cordsheaf.linalg import Matrix, _axpy, _inv

F2, F3, F5, F7 = (FieldSpec.prime(p) for p in (2, 3, 5, 7))
UNKNOT = BraidWord(1, [])
UNLINK2 = BraidWord(2, [])
UNLINK3 = BraidWord(3, [])
HOPF = BraidWord(2, [1, 1])
TREFOIL = BraidWord(2, [1, 1, 1])

# every braid and field the suite enumerates (the 3-unlink over F5 only as a
# budget refusal), T(3,3), whose zero-row orbits all lack a sheaf, four
# 4-strand links over F2, whose rows hold three off-diagonal entries, and two
# links whose lone strands (their own component, crossing nothing) the
# enumerator zeroes away from a pure unlink: a trefoil beside a third strand,
# and two strands whose crossings cancel
SCANNED = [(UNKNOT, F2), (UNKNOT, F3), (UNKNOT, F5), (UNKNOT, F7),
           (UNLINK2, F2), (UNLINK2, F3), (UNLINK2, F5), (UNLINK2, F7),
           (BraidWord(2, [1]), F2), (BraidWord(2, [1]), F3),
           (BraidWord(2, [-1]), F2), (BraidWord(2, [-1]), F3),
           (HOPF, F2), (HOPF, F3), (HOPF, F5),
           (TREFOIL, F2), (TREFOIL, F3), (TREFOIL, F5), (TREFOIL, F7),
           (BraidWord(2, [1, 1, 1, 1]), F3), (BraidWord(2, [1, 1, 1, 1]), F5),
           (UNLINK3, F2), (UNLINK3, F3),
           (BraidWord(3, [1, 1]), F2), (BraidWord(3, [1, 1]), F3),
           (BraidWord(3, [-2, 1, 1, 2]), F2), (BraidWord(3, [-2, 1, 1, 2]), F3),
           (BraidWord(3, [1, 1, 2]), F2), (BraidWord(3, [1, 1, 2]), F3),
           (BraidWord(3, [1, 2]), F3), (BraidWord(3, [1, -2, 1, -2]), F3),
           (BraidWord(3, [1, 2, 1, 2, 1, 2]), F3),
           (BraidWord(4, []), F2), (BraidWord(4, [1, 1, 3, 3]), F2),
           (BraidWord(4, [1, 2, 3]), F2), (BraidWord(4, [1, -2, 3]), F2),
           (BraidWord(3, [1, 1, 1]), F3), (BraidWord(2, [1, -1]), F3)]


def loop_product(cand, word, X):
    """loop_matrix(cand, word) @ X: the update of a letter m_t^e adds
    c R[i][t] times row t to each row i, with c = -1 for e = 1 and
    c = mu_t^-1 for e = -1, and the word's last letter acts first."""
    p, R, comps = cand.field.p, cand.R.values, cand.components
    rows = list(X.values)
    for t, e in reversed(word.letters):
        row_t = rows[t - 1]
        coeff = -1 if e == 1 else _inv(p, cand.mu[comps.component(t) - 1].value)
        for i, R_i in enumerate(R):
            if c := R_i[t - 1]:
                rows[i] = _axpy(p, rows[i], coeff * c, row_t)
    return Matrix._from_values(cand.field, rows, cols=X.cols)


def failures(cand, braid):
    """Yield check_relations's failures as (family, location, want, got), in
    its order, from full products; it stops after a broken normalization,
    and it evaluates the longitude families on every candidate, where
    check_relations skips them once every transport and Wirtinger identity
    holds.  Rows and columns of the stored values are compared whole first,
    and itemized in Scalars only when they differ.  Each distinct word's
    product is formed once per candidate."""
    geom = geometry(braid)
    comps, n, R = cand.components, cand.n, cand.R
    one = cand.field.one()
    products = {}

    def applied(word):
        """loop_matrix(cand, word) @ R."""
        if word not in products:
            products[word] = loop_product(cand, word, R)
        return products[word]

    units = [one - mu for mu in cand.mu]
    diag = [units[s - 1] for s in comps.labels]
    if any(R.values[i][i] != want.value for i, want in enumerate(diag)):
        for i, want in enumerate(diag, 1):
            if R[i - 1, i - 1] != want:
                yield "normalization", f"R[{i}][{i}]", want, R[i - 1, i - 1]
        return
    for i in range(1, n + 1):
        s = comps.component(i)
        lam = cand.lam[s - 1] if i == comps.base_strand(s) else one
        ti = geom.tau[i - 1]
        seg = applied(geom.segments[i])
        lam_R = R.scaled(lam)
        if seg.values[i - 1] != lam_R.values[ti - 1]:
            for j in range(1, n + 1):
                if seg[i - 1, j - 1] != lam_R[ti - 1, j - 1]:
                    yield ("transport-row", f"strand {i} -> {ti}, col {j}", R[ti - 1, j - 1],
                           seg[i - 1, j - 1] / lam)
        if _col(seg, ti) != _col(lam_R, i):
            for k in range(1, n + 1):
                if seg[k - 1, ti - 1] != lam_R[k - 1, i - 1]:
                    yield ("transport-col", f"strand {i} -> {ti}, row {k}", lam_R[k - 1, i - 1],
                           seg[k - 1, ti - 1])
    for q in range(1, n + 1):
        word = geom.transported[q - 1]
        if word == MeridianWord.generator(q):
            continue  # the identity m_q = m_q
        lhs, rhs = applied(MeridianWord.generator(q)), applied(word)
        if lhs != rhs:
            yield ("wirtinger", f"m_{q}", [[str(x) for x in lhs.row(a)] for a in range(n)],
                   [[str(x) for x in rhs.row(a)] for a in range(n)])
    for s in range(1, cand.r + 1):
        b, lam = comps.base_strand(s), cand.lam[s - 1]
        ell = applied(geom.longitudes[s])
        lam_R = R.scaled(lam)
        if ell.values[b - 1] != lam_R.values[b - 1]:
            for j in range(1, n + 1):
                if ell[b - 1, j - 1] != lam_R[b - 1, j - 1]:
                    yield ("longitude-left", f"(l_{s}; {b},{j})", lam_R[b - 1, j - 1],
                           ell[b - 1, j - 1])
        if _col(ell, b) != _col(lam_R, b):
            for i in range(1, n + 1):
                if ell[i - 1, b - 1] != lam_R[i - 1, b - 1]:
                    yield ("longitude-right", f"({i},{b}; l_{s})", lam_R[i - 1, b - 1],
                           ell[i - 1, b - 1])


def _col(mat, j):
    """The stored values of column j (from 1) of a Matrix."""
    return [row[j - 1] for row in mat.values]


def items(cand, braid, families):
    """The reference's failures in the given families, as report entries."""
    return [{"family": f, "location": loc, "expected": str(want), "got": str(got)}
            for f, loc, want, got in failures(cand, braid) if f in families]


def verdict(cand, braid):
    """check_relations(cand, braid).ok, stopping at the first broken identity."""
    return next(failures(cand, braid), None) is None
