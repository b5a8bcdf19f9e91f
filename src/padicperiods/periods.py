"""Rank-(n-1) period matrices, the two filtrations they carry, hyperplane
membership in the rational-hyperplane complement, and the two-sided group
action with its transformation laws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .padic import (
    FieldDescriptor,
    PadicMatrix,
    PrecisionError,
    SmithForm,
    _int_divisors,
    embed_element,
    field_embedding,
    kernel_basis,
    make_field_cached,
    matrix_to_json,
    rank_below,
    smith_form,
)
from .models import LubinTateModel, iota_matrix
from .semilinear import stacked_ranks


class RankCertificationError(ValueError):
    """Matrix rejected: certified rank differs from n-1.

    ``kind`` is "full_rank" when all elementary divisors are exact (the
    determinant is provably nonzero at precision) and "rank_deficient" when
    fewer than n-1 divisors could be certified (the rank may be below n-1,
    or the precision may be insufficient to tell).
    """

    def __init__(self, kind, divisors):
        self.kind = kind
        self.divisors = divisors
        super().__init__(f"rank certification failed ({kind}): divisors {divisors}")


@dataclass
class ProjectivePoint:
    """A hyperplane in K^n: spanning basis (columns) plus normal covector."""

    basis: PadicMatrix  # n x (n-1), columns span the hyperplane
    normal: list  # length-n covector, normal . basis ~ 0

    @property
    def dim(self):
        return self.basis.ncols

    def to_json(self):
        return {
            "basis": matrix_to_json(self.basis),
            "normal": [[str(c) for c in e.coeffs] for e in self.normal],
        }


@dataclass
class PeriodMatrix:
    """A certified rank-(n-1) matrix with its one Smith form L*X*R = D."""

    X: PadicMatrix
    smith: SmithForm

    @property
    def n(self):
        return self.X.nrows

    @property
    def divisors(self):
        return self.smith.divisors

    @property
    def field(self):
        return self.X.field

    @property
    def precision(self):
        return self.X.precision


def from_matrix(X: PadicMatrix) -> PeriodMatrix:
    """Certify rank n-1 (det indistinguishable from zero) or reject."""
    n = X.nrows
    if X.ncols != n:
        raise ValueError("matrix must be square")
    sf = smith_form(X)
    if not sf.pivots_invertible:  # transforms too coarse to certify the point
        raise PrecisionError("inverse has no significant digits")
    rank = rank_below(sf.divisors, X.precision)
    if rank == n:
        raise RankCertificationError("full_rank", sf.divisors)
    if rank < n - 1:
        raise RankCertificationError("rank_deficient", sf.divisors)
    return PeriodMatrix(X, sf)


def fil_G(pm: PeriodMatrix) -> ProjectivePoint:
    """Column space of X with its left-kernel covector."""
    sf = pm.smith
    basis = PadicMatrix(pm.field, [row[: pm.n - 1] for row in sf.Linv.rows])
    return ProjectivePoint(basis, list(sf.L.rows[pm.n - 1]))


def fil_H(pm: PeriodMatrix) -> ProjectivePoint:
    """Row space of X with the right-kernel covector: fil_G of X^T."""
    return fil_G(correspond(pm))


def correspond(pm: PeriodMatrix) -> PeriodMatrix:
    """The tower correspondence at the matrix level: transpose (an involution).

    L*X*R = D gives R^T*X^T*L^T = D, so the Smith form of X^T is read off
    the stored one: fil_G of the image is fil_H of ``pm`` and vice versa.
    """
    sf = pm.smith
    swap = {"L": "R", "Linv": "Rinv", "R": "L", "Rinv": "Linv"}
    sf_t = SmithForm(sf.divisors, sf.pivots,
                     lambda name: getattr(sf, swap[name]).transpose(), sf.inverses)
    return PeriodMatrix(pm.X.transpose(), sf_t)


@dataclass
class OmegaVerdict:
    status: str  # "in_Omega" | "not_in_Omega" | "indeterminate"
    witness: list | None = None  # rational vector in the hyperplane, if any

    @property
    def in_omega(self):
        return self.status == "in_Omega"

    def to_json(self):
        d = {"status": self.status}
        if self.witness is not None:
            d["witness"] = [str(x) for x in self.witness]
        return d


def omega_membership(point: ProjectivePoint) -> OmegaVerdict:
    """Does the hyperplane avoid every nonzero rational vector?

    The normal covector coordinates are expanded over a Q_p-basis of K; the
    hyperplane misses all rational vectors iff that n x m rational matrix
    has full row rank n.  A certified deficiency yields a rational witness
    vector lying in the hyperplane at the working precision.
    """
    normal = point.normal
    n = len(normal)
    p = normal[0].field.p
    N = min(e.abs_precision for e in normal)
    if N < 1:
        return OmegaVerdict("indeterminate")
    # the n x m coordinate matrix over Q_p at the common precision N
    base = make_field_cached(p, 1, N)
    coords = [[((c,), e.shift) for c in e.coeffs] for e in normal]
    if rank_below(_int_divisors(base, coords, N), N) == n:
        return OmegaVerdict("in_Omega")
    # rank-deficient: L's last row is a left-kernel vector of M, integral and
    # primitive, since L is built from swaps and integral row operations
    # (``smith_form``), so det L = +-1
    M = PadicMatrix(base, [[base.from_coeffs([c], N, e.shift) for c in e.coeffs]
                           for e in normal])
    return OmegaVerdict("not_in_Omega", list(smith_form(M).L.rows[n - 1]))


def act(g, d, pm: PeriodMatrix, model: LubinTateModel, embedding_gen=None) -> PeriodMatrix:
    """(g, d) . X = g^T * X * iota(d)^{-1}.

    ``g`` is an n x n rational matrix (over Q_p, unit determinant up to
    p-powers), ``d`` an order element in Pi-power coordinates over the
    model's coefficient field W(F_{p^n}).  The period field must contain
    Q_{p^n} (n | m).

    iota(d)^{-1} is inverted over W(F_{p^n}) and its n^2 entries are then
    embedded in K.  The embedding is an isometric ring map, so the Smith
    pivots, the precision caps and every entry agree with inverting the
    embedded iota(d) over K; where d has shifted coefficients, the entries
    may keep digits that the embedding of iota(d) would have dropped.
    """
    K = pm.field
    if K.m % model.field.m != 0:
        raise ValueError("period field must contain the coefficient field (n | m)")
    gK = _embed_rational(g, K, pm.precision)
    if embedding_gen is None:
        embedding_gen = field_embedding(model.field, K)
    try:
        iota_inv = iota_matrix(model, d).inverse()
    except ZeroDivisionError:
        raise ValueError("order element is not invertible at precision")
    iota_inv = PadicMatrix(
        K, [[embed_element(e, K, embedding_gen) for e in row] for row in iota_inv.rows]
    )
    Y = gK.transpose() * pm.X * iota_inv
    return from_matrix(Y)


def _embed_rational(g, K, precision):
    if isinstance(g, PadicMatrix):
        if g.field == K:
            return g
        if g.field.m != 1:
            raise ValueError("g must be rational")
        rows = [
            [K.from_coeffs([e.coeffs[0]], min(e.abs_precision, precision), e.shift) for e in row]
            for row in g.rows
        ]
        return PadicMatrix(K, rows)
    return PadicMatrix.from_ints(K, g, precision)


def subspaces_equal(A: ProjectivePoint, B: ProjectivePoint) -> bool:
    """Same hyperplane at precision: stacking the bases does not raise rank."""
    ra, rb, rj = stacked_ranks(A.basis, B.basis)
    return ra == rb == rj == A.dim


def translate_point(point: ProjectivePoint, M: PadicMatrix) -> ProjectivePoint:
    """The image hyperplane {M v : v in the hyperplane}."""
    basis = M * point.basis
    sf = smith_form(basis)
    if not sf.pivots_invertible:
        raise PrecisionError("inverse has no significant digits")
    return ProjectivePoint(basis, list(sf.L.rows[-1]))


def random_point(n, field: FieldDescriptor, seed, max_tries=200) -> PeriodMatrix:
    """Deterministic seeded sampler for certified points with fil_G in Omega."""
    if field.m < n:
        raise ValueError(
            f"field too small: need [K:Q_p] >= {n}, got {field.m}"
        )
    rng = random.Random(seed)
    N = field.precision
    for _ in range(max_tries):
        normal = [_random_unit_vectorish(field, rng) for _ in range(n)]
        point = ProjectivePoint(PadicMatrix.identity(field, n), normal)  # basis unused here
        verdict = omega_membership(point)
        if not verdict.in_omega:
            continue
        B = PadicMatrix(field, kernel_basis(PadicMatrix(field, [normal]))).transpose()
        C = PadicMatrix.from_ints(
            field, [[rng.randrange(field.p ** N) for _ in range(n)] for _ in range(n - 1)]
        )
        X = B * C  # divisors at least C's: from_matrix rejects a C of rank < n - 1
        try:
            pm = from_matrix(X)
        except (RankCertificationError, PrecisionError):
            continue
        if omega_membership(fil_G(pm)).in_omega:
            return pm
    raise PrecisionError("sampling budget exhausted")


def _random_unit_vectorish(field, rng):
    N = field.precision
    coeffs = [rng.randrange(field.p ** N) for _ in range(field.m)]
    return field.from_coeffs(coeffs, N)
