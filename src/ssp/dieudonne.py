"""Dieudonné modules over truncated Witt rings.

A module is a free W_n(F_{p^s})-module of rank h with F acting as
(matrix A) o sigma on coordinates and V as (matrix B) o sigma^{-1},
an optional polarization Gram matrix E, and an optional action of
sqrt(alpha) from an imaginary quadratic order.  The axioms FV = VF = p,
the polarization compatibility e(Fx, y) = e(x, Vy)^sigma and the action
compatibilities are all checked at the truncation level.

Newton polygons come from the linear matrix of F^s via the p-adic
Newton polygon of its characteristic polynomial (Berkowitz, division
free), abscissae divided by s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import linalg
from .errors import (
    FormulaInconsistencyError,
    InsufficientPrecisionError,
    ValidationError,
    spec_field,
    spec_matrix,
    spec_value,
)
from .witt import INF, MAX_TRUNCATION, WittRing, canonical_lie_action, hensel_sqrt, witt_ring

DEFAULT_TRUNCATION_SLACK = 2  # polygon default n = 2*height + 2


# ---------------------------------------------------------------------------
# polygons


@dataclass(frozen=True)
class NewtonPolygon:
    """Sorted (slope, multiplicity) pairs; multiplicities sum to the height."""

    slopes: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        prev = None
        for lam, mult in self.slopes:
            if mult < 1:
                raise ValidationError("multiplicities must be positive")
            if prev is not None and lam <= prev:
                raise ValidationError("slopes must be strictly increasing after merging")
            prev = lam

    @staticmethod
    def from_pairs(pairs) -> "NewtonPolygon":
        merged: dict[Fraction, int] = {}
        for lam, mult in pairs:
            lam = Fraction(lam)
            merged[lam] = merged.get(lam, 0) + mult
        return NewtonPolygon(tuple(sorted(merged.items())))

    @property
    def height(self) -> int:
        return sum(m for _, m in self.slopes)

    @property
    def total_slope(self) -> Fraction:
        return sum((lam * m for lam, m in self.slopes), Fraction(0))


@dataclass(frozen=True)
class HodgePolygon:
    """Sorted (weight, multiplicity) pairs; PEL usage only has weights 0, 1."""

    weights: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = None
        for w, mult in self.weights:
            if mult < 0:
                raise ValidationError("multiplicities must be non-negative")
            if prev is not None and w <= prev:
                raise ValidationError("weights must be strictly increasing")
            prev = w

    @property
    def height(self) -> int:
        return sum(m for _, m in self.weights)

    @property
    def total_weight(self) -> int:
        return sum(w * m for w, m in self.weights)


# ---------------------------------------------------------------------------
# modules


@dataclass(frozen=True)
class DieudonneModule:
    """The matrices of F, V, the polarization E and the action J over
    `ring`; everything else is derived from them.  The rank is the size
    of F.  The module is frozen, so the matrices below are computed on
    first use and kept on the instance for as long as it lives: the
    build, reduce_pairing and the well-definedness oracle share them.
    F, V, E and J must be square of one size, and J must come with its
    alpha."""

    ring: WittRing
    f_matrix: tuple[tuple, ...]
    v_matrix: tuple[tuple, ...]
    polarization: Optional[tuple[tuple, ...]] = None
    ok_action: Optional[tuple[tuple, ...]] = None
    alpha: Optional[int] = None

    def __post_init__(self):
        h = self.rank
        named = {"F": self.f_matrix, "V": self.v_matrix, "E": self.polarization, "action": self.ok_action}
        for name, M in named.items():
            if M is not None and (len(M) != h or any(len(row) != h for row in M)):
                raise ValidationError(f"{name} matrix is not {h} x {h}")
        if self.ok_action is not None and self.alpha is None:
            raise ValidationError("module with an action must record alpha")

    @property
    def rank(self) -> int:
        return len(self.f_matrix)

    def sigma_mat(self, M):
        return linalg.mat_map(self.ring.sigma, M)

    def sigma_inv_mat(self, M):
        return linalg.mat_map(self.ring.sigma_inv, M)

    @cached_property
    def quotient_projection(self):
        """M/VM over the residue field: (quot, P).

        quot lists, in order, the basis vectors of M that span M/VM: the
        rows that are not pivots of the reduced echelon columns of V mod
        p.  Row a of P sends a vector of M mod p to its coordinate a in
        that basis: e_a on the quot indices, and minus the echelon columns
        on the pivots, since each column is 1 at its own pivot and 0 at
        every other pivot."""
        vbar = linalg.mat_map(self.ring.reduce, self.v_matrix)
        cols, pivots = linalg.rref(linalg.transpose(vbar))
        quot = tuple(i for i in range(self.rank) if i not in pivots)
        ctx = self.ring.residue
        P = [[ctx.zero()] * self.rank for _ in quot]
        for row, i in zip(P, quot):
            row[i] = ctx.one()
            for r, col in zip(pivots, cols):
                if not col[i].is_zero():
                    row[r] = -col[i]
        return quot, linalg.freeze(P)

    @cached_property
    def induced_quotient_action(self):
        """Matrix of the ok_action on M/VM, in the basis of quotient_projection."""
        if self.ok_action is None:
            raise ValidationError("module carries no imaginary-quadratic action")
        quot, P = self.quotient_projection
        jbar = linalg.mat_map(self.ring.reduce, self.ok_action)
        return linalg.mat_mul(P, linalg.freeze([[row[i] for i in quot] for row in jbar]))

    @cached_property
    def ef_matrix(self):
        """E F, so that e(x, F y) = x^T (E F) sigma(y); needs a polarization."""
        return linalg.mat_mul(self.polarization, self.f_matrix)


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, passed, detail in self.checks if not passed]


def _first_mismatch(A, B) -> str:
    for i, (ra, rb) in enumerate(zip(A, B)):
        for j, (a, b) in enumerate(zip(ra, rb)):
            if a != b:
                return f"first violation at coordinate ({i},{j})"
    return ""


def _equal(name: str, A, B) -> tuple[str, bool, str]:
    """The check A == B; where they first differ is found only on failure."""
    ok = A == B
    return name, ok, "" if ok else _first_mismatch(A, B)


def check_axioms(m: DieudonneModule) -> AxiomReport:
    """Verify the semilinear module axioms at the truncation level."""
    ring, h = m.ring, m.rank
    checks = []
    p_id = linalg.scalar_matrix(h, ring.el(ring.p), ring.zero())
    fv = linalg.mat_mul(m.f_matrix, m.sigma_mat(m.v_matrix))
    checks.append(_equal("fv-equals-p", fv, p_id))
    vf = linalg.mat_mul(m.v_matrix, m.sigma_inv_mat(m.f_matrix))
    checks.append(_equal("vf-equals-p", vf, p_id))

    if m.polarization is not None:
        E = m.polarization
        checks.append(_equal("polarization-alternating", linalg.transpose(E), linalg.mat_neg(E)))
        d = linalg.det(E, ring.one())
        unimod = d.val() == 0
        checks.append(("polarization-unimodular", unimod, f"det valuation {d.val()}"))
        lhs = linalg.mat_mul(linalg.transpose(m.f_matrix), E)
        rhs = m.sigma_mat(linalg.mat_mul(E, m.v_matrix))
        checks.append(_equal("polarization-compatible", lhs, rhs))

    if m.ok_action is not None:
        J = m.ok_action
        target = linalg.scalar_matrix(h, ring.el(m.alpha), ring.zero())
        checks.append(_equal("action-squares-to-alpha", linalg.mat_mul(J, J), target))
        lhs = linalg.mat_mul(J, m.f_matrix)
        rhs = linalg.mat_mul(m.f_matrix, m.sigma_mat(J))
        checks.append(_equal("action-commutes-with-f", lhs, rhs))
        lhs = linalg.mat_mul(J, m.v_matrix)
        rhs = linalg.mat_mul(m.v_matrix, m.sigma_inv_mat(J))
        checks.append(_equal("action-commutes-with-v", lhs, rhs))
        if m.polarization is not None:
            lhs = linalg.mat_mul(linalg.transpose(J), m.polarization)
            rhs = linalg.mat_neg(linalg.mat_mul(m.polarization, J))
            checks.append(_equal("action-skew-adjoint", lhs, rhs))

    return AxiomReport(tuple(checks))


# ---------------------------------------------------------------------------
# explicit superspecial models


def build_a_half(ring: WittRing) -> DieudonneModule:
    """The rank-2 slope-1/2 module over W_n(F_{p^2}):
    F = [[0,1],[-p,0]] o sigma, V = [[0,-1],[p,0]] o sigma^{-1},
    polarization Gram [[0,1],[-1,0]].  Satisfies F + V = 0.
    """
    if ring.s != 2:
        raise ValidationError("the slope-1/2 model lives over W_n(F_{p^2})")
    one, zero, p = ring.one(), ring.zero(), ring.el(ring.p)
    F = ((zero, one), (-p, zero))
    V = ((zero, -one), (p, zero))
    E = ((zero, one), (-one, zero))
    return DieudonneModule(ring=ring, f_matrix=F, v_matrix=V, polarization=E)


def _block_diag(blocks, zero):
    n = sum(len(b) for b in blocks)
    out = [[zero] * n for _ in range(n)]
    off = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                out[off + i][off + j] = b[i][j]
        off += k
    return linalg.freeze(out)


def build_superspecial_unitary(p: int, n: int, alpha: int, r: int, s: int) -> DieudonneModule:
    """g = r + s copies of the slope-1/2 module with product polarization
    and sqrt(alpha) = u acting by diag(u, sigma u) on the first r blocks
    and by diag(sigma u, u) on the last s.

    M/VM is spanned by the second basis vector of each block, and
    sigma(u) = -u (hensel_sqrt checks it), so the induced action on M/VM
    is canonical_lie_action(alpha, r, s) = diag(-sqrt(alpha) I_r,
    +sqrt(alpha) I_s) mod p; that is checked.  The quotient basis is
    thus the graded basis, minus block first, which reduce_pairing reads.
    """
    g = r + s
    if r < 0 or s < 0 or g < 2 or g % 2 != 0:
        raise ValidationError("r, s must be non-negative with r + s even and >= 2")
    ring = witt_ring(p, 2, n)
    base = build_a_half(ring)
    zero = ring.zero()
    F = _block_diag([base.f_matrix] * g, zero)
    V = _block_diag([base.v_matrix] * g, zero)
    E = _block_diag([base.polarization] * g, zero)
    u = hensel_sqrt(ring, alpha)
    su = ring.sigma(u)
    J = _block_diag([((u, zero), (zero, su))] * r + [((su, zero), (zero, u))] * s, zero)
    m = DieudonneModule(ring=ring, f_matrix=F, v_matrix=V, polarization=E, ok_action=J, alpha=alpha)
    if m.induced_quotient_action != canonical_lie_action(ring.residue, alpha, r, s):
        raise FormulaInconsistencyError(
            "the model does not induce diag(-sqrt(a) I_r, sqrt(a) I_s) on M/VM"
        )
    return m


def action_eigen_indices(m: DieudonneModule) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Indices of basis vectors on which ok_action acts by +u / -u.

    Only meaningful when the action matrix is diagonal in the standard
    basis (true for the built models); raises otherwise."""
    if m.ok_action is None or m.alpha is None:
        raise ValidationError("module carries no imaginary-quadratic action")
    u = hensel_sqrt(m.ring, m.alpha)
    plus, minus = [], []
    for i in range(m.rank):
        col = tuple(m.ok_action[r][i] for r in range(m.rank))
        if col == tuple(u if r == i else m.ring.zero() for r in range(m.rank)):
            plus.append(i)
        elif col == tuple(-u if r == i else m.ring.zero() for r in range(m.rank)):
            minus.append(i)
        else:
            raise ValidationError("ok_action is not diagonal with +/- sqrt(alpha) entries")
    return tuple(minus), tuple(plus)


def graded_quotient_dims(m: DieudonneModule) -> tuple[int, int]:
    """(dim M_-/V M_+, dim M_+/V M_-) over the residue field."""
    minus, plus = action_eigen_indices(m)
    vbar = linalg.mat_map(m.ring.reduce, m.v_matrix)

    def qdim(rows, cols):
        sub = [[vbar[i][j] for j in cols] for i in rows]
        return len(rows) - linalg.rank(sub)

    return qdim(minus, plus), qdim(plus, minus)


# ---------------------------------------------------------------------------
# Newton / Hodge polygons


def _linear_frobenius_matrix(m: DieudonneModule):
    """Matrix of F^s, which is W-linear: A sigma(A) ... sigma^{s-1}(A)."""
    A = m.f_matrix
    out = A
    twisted = A
    for _ in range(1, m.ring.s):
        twisted = m.sigma_mat(twisted)
        out = linalg.mat_mul(out, twisted)
    return out


def _lower_hull(points):
    """Lower convex hull of integer points sorted by abscissa."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            x3, y3 = pt
            if (x2 - x1) * (y3 - y1) <= (y2 - y1) * (x3 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon(m: DieudonneModule) -> NewtonPolygon:
    """Slopes of the module, each in [0,1] when pM is contained in FM.

    Raises InsufficientPrecisionError when a needed coefficient
    valuation is censored by the truncation level.
    """
    ring, h = m.ring, m.rank
    B = _linear_frobenius_matrix(m)
    coeffs = linalg.charpoly(B, ring.one())  # highest degree first
    # point (i, v(c_i)) where c_i multiplies T^i
    vals = [c.val() for c in coeffs]
    by_degree = list(reversed(vals))  # index i = degree
    if by_degree[0] == INF:
        raise InsufficientPrecisionError(
            "constant coefficient of the characteristic polynomial is censored; "
            "raise the truncation level"
        )
    points = [(i, v) for i, v in enumerate(by_degree) if v != INF]
    hull = _lower_hull(points)
    pairs = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        root_val = Fraction(y1 - y2, x2 - x1)
        pairs.append((root_val / ring.s, x2 - x1))
    np = NewtonPolygon.from_pairs(pairs)
    if np.height != h:
        raise FormulaInconsistencyError(f"Newton polygon height {np.height} differs from rank {h}")
    return np


def hodge_polygon(m: DieudonneModule) -> HodgePolygon:
    """Weights 0 and 1 with multiplicities (h - d, d), d = dim M/FM."""
    fbar = linalg.mat_map(m.ring.reduce, m.f_matrix)
    d = m.rank - linalg.rank(fbar)
    weights = []
    if m.rank - d > 0:
        weights.append((0, m.rank - d))
    if d > 0:
        weights.append((1, d))
    return HodgePolygon(tuple(weights))


def is_isoclinic(np: NewtonPolygon) -> bool:
    return len(np.slopes) == 1


@dataclass(frozen=True)
class EndpointReport:
    t_newton: Fraction
    t_hodge: Fraction
    endpoints_equal: bool
    newton_at_or_above: bool


def endpoint_admissibility(np: NewtonPolygon, hp: HodgePolygon) -> EndpointReport:
    """Compare rightmost endpoints: sum slope*mult vs sum weight*mult."""
    if np.height != hp.height:
        raise ValidationError(
            f"polygon heights differ: {np.height} vs {hp.height}"
        )
    t_n = np.total_slope
    t_h = Fraction(hp.total_weight)
    return EndpointReport(
        t_newton=t_n,
        t_hodge=t_h,
        endpoints_equal=t_n == t_h,
        newton_at_or_above=t_n >= t_h,
    )


# ---------------------------------------------------------------------------
# determinant condition


def determinant_condition(r: int, s: int, alpha: int, matrix) -> bool:
    """True iff det(X1*I + X2*L) = (X1 - u X2)^r (X1 + u X2)^s exactly,
    as fully expanded polynomials over F_{p^2}, with u = sqrt(alpha).

    L must be square of size r + s with entries in one ring W_1(F_{p^2}).
    Both sides are homogeneous of degree r + s, so they agree iff they
    agree at X1 = T, X2 = -1: iff the characteristic polynomial
    det(T*I - L) is (T + u)^r (T - u)^s, coefficient by coefficient.
    """
    g = r + s
    if len(matrix) != g or any(len(row) != g for row in matrix):
        raise ValidationError(f"matrix must be {g} x {g}")
    ring = matrix[0][0].ring
    u = hensel_sqrt(ring, alpha)
    zero = ring.zero()
    rhs = [ring.one()]  # highest degree first, as charpoly
    for root in [-u] * r + [u] * s:
        # times (T - root)
        rhs = [a - root * b for a, b in zip(rhs + [zero], [zero] + rhs)]
    return linalg.charpoly(matrix, ring.one()) == rhs


# ---------------------------------------------------------------------------
# JSON interchange (CLI surface)


def newton_polygon_with_retry(data: dict) -> tuple[NewtonPolygon, DieudonneModule]:
    """Newton polygon of a JSON module spec, and the module built at the
    truncation that gave it (its ring.n is the level used), doubling the
    truncation on censored valuations (default start 2*height + 2, cap
    64, so a spec of rank 32 or more without "n" starts at the cap).

    Each field is read once: the matrices into integer entries, which
    are mapped into the ring of each level.  The ring refuses an n, p or
    s it cannot have, before any matrix is read, and the module a matrix
    of the wrong size."""
    rank = spec_field(data, "rank")
    n = spec_field(data, "n") if "n" in data else min(2 * rank + DEFAULT_TRUNCATION_SLACK, MAX_TRUNCATION)
    p, s = spec_field(data, "p"), spec_field(data, "s")
    ring = witt_ring(p, s, n)
    F = spec_matrix(spec_value(data, "F"), "F", s)
    if len(F) != rank:
        raise ValidationError(f"F matrix is not {rank} x {rank}")
    V = spec_matrix(spec_value(data, "V"), "V", s)
    E, J = (spec_matrix(data[key], key, s) if key in data else None for key in ("E", "action"))
    alpha = spec_field(data, "alpha") if "alpha" in data else None
    while True:
        mats = (None if M is None else linalg.mat_map(ring.el, M) for M in (F, V, E, J))
        m = DieudonneModule(ring, *mats, alpha)
        try:
            return newton_polygon(m), m
        except InsufficientPrecisionError:
            if ring.n >= MAX_TRUNCATION:
                raise
            ring = witt_ring(p, s, min(2 * ring.n, MAX_TRUNCATION))
