"""Semilinear Frobenius modules: Newton slopes, fixed points, admissibility.

An isocrystal here is a finite free module over Q_{p^m} together with an
invertible matrix A encoding the sigma-semilinear operator v -> A*sigma(v).
Slopes are read off the Newton polygon of a characteristic polynomial: of A
itself when every entry of A lies in Q_p (sigma fixes A, so phi^m = A^m
sigma^m), certified for every lift of A within O(p^N) whose entries stay in
Q_p; otherwise of the sigma^m-linearization A*sigma(A)*...*sigma^(m-1)(A),
certified for every lift in Q_{p^m}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ledger import _frac_str
from .padic import (
    AtLeast,
    FieldDescriptor,
    PadicMatrix,
    PrecisionError,
    charpoly,
    certified_rank,
    embed_element,
    field_embedding,
    is_exact,
    kernel_basis,
    make_field_cached,
    smith_form,
    _hessenberg_charpoly,
    _valuation,
    _zp_rows,
)


@dataclass
class Isocrystal:
    field: FieldDescriptor
    dim: int
    frob_matrix: PadicMatrix

    def __post_init__(self):
        if self.frob_matrix.nrows != self.dim or self.frob_matrix.ncols != self.dim:
            raise ValueError("frobenius matrix shape mismatch")

    def apply(self, vec):
        """phi(v) = A * sigma(v) for a column vector (list of elements)."""
        col = PadicMatrix(self.field, [[x] for x in vec]).map_frobenius()
        return [row[0] for row in (self.frob_matrix * col).rows]


@dataclass
class FilteredIsocrystal:
    base: Isocrystal
    filtration: PadicMatrix  # columns span Fil inside K^dim, K an extension field

    def __post_init__(self):
        rank, _ = certified_rank(self.filtration)
        if rank != self.filtration.ncols:
            raise ValueError("filtration spanning matrix not of full certified rank")


def linearize(iso: Isocrystal) -> PadicMatrix:
    """B = A * sigma(A) * ... * sigma^{m-1}(A); the matrix of phi^m."""
    A = iso.frob_matrix
    B = A
    for k in range(1, iso.field.m):
        B = B * A.map_frobenius(k)
    return B


def newton_slopes(iso: Isocrystal):
    """Multiset of Newton slopes as a sorted list of Fractions.

    When every entry of A lies in Q_p, sigma fixes A, phi^m = A^m sigma^m
    and the slopes are the polygon slopes of charpoly(A) (Dieudonne-Manin);
    the answer then holds for every lift of A within O(p^N) whose entries
    stay in Q_p.  Otherwise they are 1/m times the polygon slopes of the
    charpoly of the linearization, and hold for every lift in Q_{p^m}.
    Their sum equals the valuation of det(A).

    On Z_p input the polygon is read straight off the integers of
    ``_hessenberg_charpoly``, as ``charpoly`` would wrap them: v(c) for a
    nonzero c, AtLeast(N) for 0.
    """
    A = iso.frob_matrix
    zp = _zp_rows(A)
    if zp is None:
        # sigma moves A when some entry has a w-part (a zero stores none)
        moved = any(any(e.coeffs[1:]) for row in A.rows for e in row)
        m, B = (iso.field.m, linearize(iso)) if moved else (1, A)
        return _hull_slopes([c.valuation() for c in charpoly(B)], m)
    (ints, N), p = zp, A.field.p
    return _hull_slopes([_valuation(p, (c,)) if c else AtLeast(N)
                         for c in _hessenberg_charpoly(ints, p, N)], 1)


def _hull_slopes(vals, m):
    """Slopes, ascending, of the lower hull of the exact points (i, vals[i]),
    each divided by m.  PrecisionError unless vals[0] is exact and every
    ``AtLeast`` bound lies on or above the hull, the test made by integer
    cross-multiplication: the hull's value at x between (x1, y1) and
    (x2, y2) exceeds the bound when y1(x2 - x) + y2(x - x1) > bound(x2 - x1).
    The hull drops collinear points, so its segments taken right to left
    already have ascending slopes."""
    pts = []
    unknown = []
    for i, v in enumerate(vals):
        if is_exact(v):
            pts.append((i, v))
        else:
            unknown.append((i, v.n))
    if not pts or pts[0][0] != 0:
        raise PrecisionError("Newton polygon unresolved: constant term indistinguishable from zero")
    hull = _lower_hull(pts)
    for x, bound in unknown:
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x <= x2:
                above = y1 * (x2 - x) + y2 * (x - x1) > bound * (x2 - x1)
                break
        else:
            above = hull[-1][1] > bound
        if above:
            raise PrecisionError("precision insufficient to resolve the Newton polygon")
    slopes = []
    for k in range(len(hull) - 1, 0, -1):
        (i1, v1), (i2, v2) = hull[k - 1], hull[k]
        slopes.extend([Fraction(v1 - v2, (i2 - i1) * m)] * (i2 - i1))
    return slopes


def _lower_hull(pts):
    hull = []
    for pt in pts:
        while len(hull) >= 2 and _turns_up(hull[-2], hull[-1], pt):
            hull.pop()
        hull.append(pt)
    return hull


def _turns_up(a, b, c):
    # drop b if it lies on or above segment a-c
    return (b[1] - a[1]) * (c[0] - a[0]) >= (c[1] - a[1]) * (b[0] - a[0])


def slopes_to_json(slopes):
    """Slopes as exact ``"num/den"`` strings, the package's one rational form."""
    return [_frac_str(s) for s in slopes]


def phi_fixed_points(iso: Isocrystal, twist=0):
    """Q_p-basis of { v : A*sigma(v) = p^twist * v }.

    Returns a list of vectors over the isocrystal's field.  A non-integral
    twist has no solutions and yields the empty list.
    """
    tw = Fraction(twist)
    if tw.denominator != 1:
        return []
    tw = tw.numerator
    f = iso.field
    n, m = iso.dim, f.m
    N = iso.frob_matrix.precision
    gen = f.generator(N)
    powers = [gen ** k for k in range(m)]
    # column j*m + k is g^k e_j; its image under v -> A*sigma(v) - p^twist*v
    # is a column of the big Q_p-linear matrix
    zero = f.zero(N)
    V = PadicMatrix(f, [[powers[k] if i == j else zero for j in range(n) for k in range(m)]
                        for i in range(n)])
    img = (iso.frob_matrix * V.map_frobenius()).rows
    scale = f.p ** tw if tw >= 0 else f.from_int(f.p ** (-tw)).inverse()
    for j in range(n):
        for k in range(m):
            img[j][j * m + k] = img[j][j * m + k] - powers[k] * scale
    # row j*m + t holds the coefficients of w^t in row j of the images
    Nc = min(x.abs_precision for row in img for x in row)
    base = make_field_cached(f.p, 1, Nc)
    big = PadicMatrix(base, [[base.from_coeffs([x.coeffs[t]], Nc, x.shift) for x in row]
                             for row in img for t in range(m)])
    out = []
    for vec in kernel_basis(big):
        grouped = []
        for j in range(n):
            coeffs = vec[j * m : (j + 1) * m]
            acc = f.zero(N)
            for k, c in enumerate(coeffs):
                lifted = f.from_coeffs([c.coeffs[0]], c.abs_precision, c.shift)
                acc = acc + lifted * powers[k]
            grouped.append(acc)
        out.append(grouped)
    return out


@dataclass
class AdmissibilityReport:
    sub_reports: list
    full_t_H: int
    full_t_N: Fraction
    admissible: bool

    def to_json(self):
        return {
            "sub_objects": [
                {
                    "dim": d,
                    "t_H": tH,
                    "t_N": _frac_str(tN),
                    "ok": ok,
                }
                for d, tH, tN, ok in self.sub_reports
            ],
            "full": {
                "t_H": self.full_t_H,
                "t_N": _frac_str(self.full_t_N),
            },
            "admissible": self.admissible,
        }


def weak_admissibility_sample(fi: FilteredIsocrystal, sub_objects):
    """Check t_H(N) <= t_N(N) on the supplied phi-stable subspaces.

    Each sub-object is a spanning matrix over the base field.  t_N is the
    slope sum of the restricted operator, t_H the dimension of the
    intersection with the filtration.  Equality must hold on the full
    object for the verdict to be 'admissible'.
    """
    iso = fi.base
    reports = []
    ok_all = True
    for S in sub_objects:
        rest = restrict_frobenius(iso, S)
        t_N = sum(newton_slopes(rest), Fraction(0))
        t_H = intersection_dim(S, fi.filtration)
        ok = t_H <= t_N
        ok_all = ok_all and ok
        reports.append((S.ncols, t_H, t_N, ok))
    full_t_N = sum(newton_slopes(iso), Fraction(0))
    full_t_H = fi.filtration.ncols
    admissible = ok_all and Fraction(full_t_H) == full_t_N
    return AdmissibilityReport(reports, full_t_H, full_t_N, admissible)


def restrict_frobenius(iso: Isocrystal, S: PadicMatrix) -> Isocrystal:
    """Isocrystal structure on the span of the columns of S; errors if not phi-stable."""
    X = solve_columns(S, iso.frob_matrix * S.map_frobenius())  # images as columns
    if X is None:
        raise ValueError("subspace is not phi-stable at precision")
    return Isocrystal(iso.field, S.ncols, X)


def solve_columns(S: PadicMatrix, B: PadicMatrix):
    """Solve S*X = B for X when S has full column rank; None if inconsistent."""
    sf = smith_form(S)
    d = S.ncols
    if sf.rank < d:
        raise PrecisionError("spanning matrix rank indeterminate")
    f = S.field
    LB = sf.L * B
    # top d rows give D * Rinv * X; bottom rows must vanish
    for i in range(d, S.nrows):
        for e in LB.rows[i]:
            if not e.is_zero_at_precision():
                return None
    Dinv_top = sf.pivot_inverses(f, d, S.precision)
    return sf.R * (Dinv_top * PadicMatrix(f, LB.rows[:d]))


def stacked_ranks(A: PadicMatrix, B: PadicMatrix):
    """The certified ranks of A, B and [A | B], over their common field."""
    A, B = _common_field(A, B)
    joint = PadicMatrix(A.field, [a + b for a, b in zip(A.rows, B.rows)])
    return certified_rank(A)[0], certified_rank(B)[0], certified_rank(joint)[0]


def intersection_dim(A: PadicMatrix, B: PadicMatrix) -> int:
    """dim(colspan A  intersect  colspan B), certified at precision."""
    ra, rb, rj = stacked_ranks(A, B)
    return ra + rb - rj


def _common_field(A, B):
    if A.field == B.field:
        return A, B
    if B.field.m % A.field.m == 0:
        big, small, swap = B.field, A, False
    elif A.field.m % B.field.m == 0:
        big, small, swap = A.field, B, True
    else:
        raise ValueError("incomparable fields")
    gen = field_embedding(small.field, big)
    emb = PadicMatrix(big, [[embed_element(e, big, gen) for e in row] for row in small.rows])
    return (A, emb) if swap else (emb, B)
