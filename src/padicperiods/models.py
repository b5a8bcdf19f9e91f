"""Explicit integral models: the height-n module, its special n^2 companion,
the quaternion-order action, and the block isogeny between them.

Basis conventions.  The height-n model has basis labels Pi^j (x) 1 for
j = 0..n-1; the normalized coordinates are obtained by multiplying grade j
by Pi^{-j}, which identifies every graded piece with the base field.  In
those coordinates the Verschiebung-style operator V is the cyclic matrix
with subdiagonal ones and a single p in the wrap position, and the actual
Frobenius is p * V^{-1}, the matrix with superdiagonal p's and a 1 in the
bottom-left corner.

The special model has basis e_{a,b} indexed by (a, b) in (Z/n)^2, flattened
as a*n + b; the grading index of e_{a,b} is a + b mod n.  It is n blocks of
the height-n cycle, so V, p V^{-1} and the order action are built once for
``copies`` blocks, and the height-n model is the one-block case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .padic import (
    FieldDescriptor,
    PadicElement,
    PadicMatrix,
    make_field_cached,
    matrix_to_json,
)
from .semilinear import Isocrystal


@dataclass
class _CyclicModel:
    """Shared body of both models: n, the coefficient field and V, p V^{-1}."""

    n: int
    field: FieldDescriptor  # W(F_{p^n})-approximant, used for the order action
    V_matrix: PadicMatrix  # sigma^{-1}-semilinear, normalized coordinates
    frobenius_matrix: PadicMatrix  # p * V^{-1}, sigma-semilinear

    def isocrystal(self, field=None):
        """Slope-carrying operator as an isocrystal (entries are rational)."""
        V = self.V_matrix
        if field is not None:
            V = PadicMatrix.from_ints(
                field, [[_int_entry(e) for e in row] for row in V.rows]
            )
        return Isocrystal(V.field, V.nrows, V)

    def to_json(self):
        return {
            "n": self.n,
            "basis_labels": self.basis_labels,
            "V_matrix": matrix_to_json(self.V_matrix),
            "phi_matrix": matrix_to_json(self.frobenius_matrix),
        }


@dataclass
class LubinTateModel(_CyclicModel):
    """Rank-n module with V(Pi^j (x) a) = Pi^{j+1} (x) sigma^{-1}(a), Pi^n = p."""

    @property
    def basis_labels(self):
        return [f"Pi^{j}" for j in range(self.n)]


@dataclass
class SpecialModel(_CyclicModel):
    """Rank-n^2 module with V(e_{a,b}) = p^{[b = n-1]} e_{a,b+1}."""

    def index(self, a, b):
        return (a % self.n) * self.n + (b % self.n)

    @property
    def basis_labels(self):
        n = self.n
        return [f"e_{a},{b}" for a in range(n) for b in range(n)]

    def grading(self, flat_index):
        a, b = divmod(flat_index, self.n)
        return (a + b) % self.n

    def graded_piece_indices(self, i):
        return [k for k in range(self.n * self.n) if self.grading(k) == i]

    def unit_root_operator(self, field=None):
        """V^{-1} Pi restricted to the grade-0 piece: the identity matrix,
        acting sigma-semilinearly (a unit-root isocrystal of rank n)."""
        f = self.V_matrix.field if field is None else field
        return Isocrystal(f, self.n, PadicMatrix.identity(f, self.n))

    def to_json(self):
        return {
            **super().to_json(),
            "grading": [self.grading(k) for k in range(self.n * self.n)],
        }


@dataclass
class DeltaIsogeny:
    n: int
    matrix: PadicMatrix  # maps (height-n model)^n -> special model
    height: int

    def to_json(self):
        return {"n": self.n, "height": self.height, "matrix": matrix_to_json(self.matrix)}


def _int_entry(e: PadicElement) -> int:
    if e.shift != 0 or any(e.coeffs[1:]):
        raise ValueError("entry is not a plain integer")
    return e.coeffs[0]


def _cyclic(n, copies, precision, base_p, frobenius=False):
    """V on ``copies`` blocks of size n, e_{a,b} -> p^{[b = n-1]} e_{a,b+1},
    or with ``frobenius`` its p V^{-1}, e_{a,b+1} -> p^{[b != n-1]} e_{a,b}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    size = copies * n
    rows = [[0] * size for _ in range(size)]
    for a in range(copies):
        for b in range(n):
            src, dst = a * n + b, a * n + (b + 1) % n
            if frobenius:
                rows[src][dst] = 1 if b == n - 1 else base_p
            else:
                rows[dst][src] = base_p if b == n - 1 else 1
    return PadicMatrix.from_ints(make_field_cached(base_p, 1, precision), rows, precision)


def build_DH(n, precision=32, base_p=2):
    """The rank-n model over W(F_{p^n}); V has slope 1/n with multiplicity n."""
    V = _cyclic(n, 1, precision, base_p)
    phi = phi_matrix(n, precision, base_p)
    return LubinTateModel(n, make_field_cached(base_p, n, precision), V, phi)


def phi_matrix(n, precision=32, base_p=2):
    """The Frobenius matrix: superdiagonal p's, bottom-left 1; [p] for n = 1."""
    if n == 1:
        return _cyclic(1, 1, precision, base_p)  # V = [p]
    return _cyclic(n, 1, precision, base_p, frobenius=True)


def build_DG(n, precision=32, base_p=2):
    """The rank-n^2 special model: the height-n cycle on each of n blocks."""
    V = _cyclic(n, n, precision, base_p)
    phi = _cyclic(n, n, precision, base_p, frobenius=True)
    return SpecialModel(n, make_field_cached(base_p, n, precision), V, phi)


def _orbit(x, m):
    """[x, sigma(x), ..., sigma^(m-1)(x)]: sigma^k(x) is entry k % m."""
    orbit = [x]
    for _ in range(m - 1):
        orbit.append(orbit[-1].frobenius())
    return orbit


def _elements(f, d):
    """The coefficients of d as elements of f (ints are lifted)."""
    return [c if isinstance(c, PadicElement) else f.from_int(c) for c in d]


def _order_action(f, n, copies, coeffs):
    """Matrix of d = sum_i a_i Pi^i on ``copies`` blocks of size n, where
    e_{a,b} -> sigma^{-(a+b+i)}(a_i) p^{(b+i)//n} e_{a,b+i}."""
    size = copies * n
    rows = [[f.zero() for _ in range(size)] for _ in range(size)]
    p = f.p
    for i, x in enumerate(coeffs):
        if x.is_zero_at_precision():
            continue
        orbit = _orbit(x, f.m)
        for a in range(copies):
            for b in range(n):
                src, dst = a * n + b, a * n + (b + i) % n
                carry = (b + i) // n
                term = orbit[-(a + b + i) % f.m]
                if carry:
                    term = term * (p ** carry)
                rows[dst][src] = rows[dst][src] + term
    return PadicMatrix(f, rows)


def iota_matrix(model: LubinTateModel, d):
    """Matrix of left multiplication by d = sum_i a_i Pi^i on the rank-n model.

    ``d`` is a list of n coefficients, each an element of the model's
    coefficient field W(F_{p^n}) (or an int).  Uses a Pi^m = Pi^m sigma^{-m}(a)
    and Pi^n = p.
    """
    coeffs = _elements(model.field, d)
    if len(coeffs) != model.n:
        raise ValueError(f"expected {model.n} coefficients")
    if all(c.is_zero_at_precision() for c in coeffs):
        raise ZeroDivisionError("d = 0")
    return _order_action(model.field, model.n, 1, coeffs)


def dg_iota_matrix(model: SpecialModel, d):
    """Matrix of iota(d) on the special model, d = sum_i a_i Pi^i as above.

    iota(a) for a in W(F_{p^n}) acts on grade i by sigma^{-i}(a);
    iota(Pi) sends e_{a,b} to p^{[b = n-1]} e_{a,b+1}.
    """
    return _order_action(model.field, model.n, model.n, _elements(model.field, d))


def od_multiply(model: LubinTateModel, d1, d2):
    """Product of two order elements in Pi-power coordinates."""
    n = model.n
    f = model.field
    a, b = _elements(f, d1), _elements(f, d2)
    orbits = [_orbit(y, f.m) for y in b]
    out = [f.zero() for _ in range(n)]
    p = f.p
    for i in range(n):
        for j in range(n):
            k = (i + j) % n
            carry = (i + j) // n
            # Pi^i b = sigma^i(b) Pi^i under the rule a Pi = Pi sigma^{-1}(a)
            term = a[i] * orbits[j][i % f.m]
            if carry:
                term = term * (p ** carry)
            out[k] = out[k] + term
    return out


def delta_matrix(n, precision=32, base_p=2) -> DeltaIsogeny:
    """Block isogeny from n copies of the rank-n model to the special model.

    Copy k, basis vector j, maps to p^{floor((j+k)/n)} e_{n-k, j+k mod n};
    the component index keeps the grading equal to j so the map intertwines
    the diagonal order action with iota.
    """
    rational = make_field_cached(base_p, 1, precision)
    nn = n * n
    rows = [[0] * nn for _ in range(nn)]
    for k in range(n):
        for j in range(n):
            src = k * n + j  # copy k, basis j
            a = (-k) % n
            b = (j + k) % n
            dst = a * n + b
            rows[dst][src] = base_p ** ((j + k) // n)
    M = PadicMatrix.from_ints(rational, rows, precision)
    return DeltaIsogeny(n, M, n * (n - 1) // 2)
