"""The eigensystem-counting pipeline and equivariant-function spaces.

The headline bound on the number of distinct mod-p Hecke eigensystems:

    N <= ceil( C_g * #GSp_{2g}(Z/N) * prod_{i=1}^{g} (p^i + (-1)^i) )
         * (p-regular class count) * (irreducible dimension bound)

kept as an exact rational until the single final ceiling.  The first
factor bounds the superspecial point count via the Siegel embedding
(it is an upper bound, not claimed sharp, and is labeled as such in
all output); the second bounds the total dimension of irreducibles.
What does not depend on p, C_g and #GSp_{2g}(Z/N) with their product
and the degree of the bound in p, is one cached record, `_level_part`,
checked once when it is formed; the checks that involve p run on
every row.

Double-coset spaces are input data here (fixtures), never computed
from global arithmetic: honest class-set enumeration is out of scope.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .errors import (
    FormulaInconsistencyError,
    ValidationError,
    spec_field,
    spec_int,
    spec_list,
    spec_matrix,
    spec_value,
)
from .exact import mass_constant, mass_constant_bernoulli_abs
from .gf import is_nonresidue, is_prime
from .groups import factorize, irrep_dim_bound, order_gsp_mod, p_regular_classes
from .witt import MAX_TRUNCATION, WittElem, WittRing, witt_ring

SUPERSPECIAL_BOUND_NOTE = "upper bound via Siegel embedding"


@functools.cache
def _squarefree(n: int) -> bool:
    """No prime divides n twice.  Cached, so a sweep factors its alpha
    once and not once per prime."""
    return all(e == 1 for e in factorize(n).values())


@dataclass(frozen=True)
class SignatureParams:
    """Validated parameters (p, alpha, r, s, N) for the pipeline.

    Hard requirements: p an odd prime not dividing alpha, alpha a
    negative squarefree non-residue mod p (p inert), r and s at most
    witt.MAX_TRUNCATION, as for a group's sizes, and g = r + s even and
    at least 2.  Soft conditions are read off .warnings: rs = 0 is
    allowed (the counting formulas cover it), N < 3 drops level
    rigidity, and p | N loses the prime-to-p level interpretation while
    the bound still evaluates."""

    p: int
    alpha: int
    r: int
    s: int
    N: int

    def __post_init__(self):
        p, alpha, r, s, N = self.p, self.alpha, self.r, self.s, self.N
        if not is_prime(p) or p == 2:
            raise ValidationError(f"p = {p} must be an odd prime")
        if r < 0 or s < 0:
            raise ValidationError("r and s must be non-negative")
        if max(r, s) > MAX_TRUNCATION:
            raise ValidationError(f"r and s must be <= {MAX_TRUNCATION}, got r = {r}, s = {s}")
        g = r + s
        if g < 2 or g % 2 != 0:
            raise ValidationError(f"g = r + s = {g} must be even and >= 2")
        if N < 1:
            raise ValidationError("N must be >= 1")
        if alpha >= 0:
            raise ValidationError("alpha must be negative (imaginary quadratic)")
        if alpha % p == 0:
            raise ValidationError(f"p = {p} divides alpha = {alpha}")
        if not _squarefree(-alpha):
            raise ValidationError(f"alpha = {alpha} must be squarefree")
        if not is_nonresidue(alpha, p):
            raise ValidationError(f"alpha is a QR mod p: p splits or ramifies in Q(sqrt({alpha}))")

    @property
    def warnings(self) -> tuple[str, ...]:
        warns = []
        if self.r * self.s == 0:
            warns.append("rs = 0: degenerate signature, counting formulas still apply")
        if self.N < 3:
            warns.append("N < 3: level structure is not rigid")
        if self.N % self.p == 0:
            warns.append("p divides N: level is not prime to p; bound evaluated formally")
        return tuple(warns)

    @property
    def g(self) -> int:
        return self.r + self.s


class CountReport(NamedTuple):
    """Every intermediate quantity of the eigensystem bound.  A named
    tuple, not a frozen dataclass: a sweep makes one per evaluated prime,
    and the dataclass's __init__ took about three times as long."""

    c_g: Fraction
    gsp_order: int
    mass_product: int
    superspecial_bound_exact: Fraction
    superspecial_bound_ceiling: int
    class_count: int
    dim_bound: int
    irr_sum_bound: int
    final_bound: int
    asymptotic_exponent: int


def mass_factor_product(p: int, g: int) -> int:
    """prod_{i=1}^{g} (p^i + (-1)^i), each p^i one product from the last."""
    out, power, sign = 1, 1, 1
    for _ in range(g):
        power *= p
        sign = -sign
        out *= power + sign
    return out


def asymptotic_exponent_symbolic(g: int, r: int, s: int) -> int:
    """Degree in p of the bound, as the sum of per-factor degrees.

    The sum must reproduce g^2 + g + 1 - rs (and g^2 + g + 1 on the
    rs = 0 branch); a mismatch is a formula regression and raises."""
    if r + s != g or r < 0 or s < 0:
        raise ValidationError("need r + s = g with r, s >= 0")
    deg_mass = g * (g + 1) // 2
    deg_dim_bound = (r * (r - 1) + s * (s - 1)) // 2
    if r * s != 0:
        deg_classes = (g - 2) + 3
    else:
        deg_classes = (g - 1) + 2
    total = deg_mass + deg_dim_bound + deg_classes
    closed = g * g + g + 1 - r * s
    if total != closed:
        raise FormulaInconsistencyError(
            f"factor degrees sum to {total}, closed form gives {closed}"
        )
    return total


@functools.cache
def _level_part(g: int, r: int, s: int, N: int) -> tuple[Fraction, int, Fraction, int]:
    """(C_g, #GSp_{2g}(Z/N), C_g * #GSp_{2g}(Z/N), the degree of the bound
    in p): the part of the bound that does not depend on p, once C_g's
    zeta form has matched its Bernoulli form and the degree sum of
    `asymptotic_exponent_symbolic` its closed form.  Cached, so a sweep
    forms and checks it once per (g, r, s, N)."""
    c_g = mass_constant(g)
    if c_g != mass_constant_bernoulli_abs(g):
        raise FormulaInconsistencyError("zeta and Bernoulli forms of C_g disagree")
    gsp = order_gsp_mod(g, N)
    return c_g, gsp, c_g * gsp, asymptotic_exponent_symbolic(g, r, s)


def eigensystem_bound(params: SignatureParams) -> CountReport:
    """Assemble the full bound, each factor formed once.

    What does not depend on p is one `_level_part` lookup, checked when
    it is formed.  On every row the superspecial bound must reassemble
    from the lookup's stored product; the irreducible-sum factor, class
    count times dimension bound, has no second route to check it."""
    g = params.g
    c_g, gsp, level, degree = _level_part(g, params.r, params.s, params.N)
    mass = mass_factor_product(params.p, g)
    # integers first, so one Fraction product; it must reassemble below
    # as the looked-up C_g * #GSp_{2g}(Z/N) times the same mass product
    ss_exact = c_g * (gsp * mass)
    ss_ceiling = math.ceil(ss_exact)
    classes = p_regular_classes(params.r, params.s, params.p)
    dim_b = irrep_dim_bound(params.r, params.s, params.p)
    irr_sum = classes * dim_b
    if ss_exact != level * mass:
        raise FormulaInconsistencyError("superspecial bound fails to reassemble")
    return CountReport(
        c_g=c_g,
        gsp_order=gsp,
        mass_product=mass,
        superspecial_bound_exact=ss_exact,
        superspecial_bound_ceiling=ss_ceiling,
        class_count=classes,
        dim_bound=dim_b,
        irr_sum_bound=irr_sum,
        final_bound=ss_ceiling * irr_sum,
        asymptotic_exponent=degree,
    )


# ---------------------------------------------------------------------------
# equivariant function spaces on finite coset fixtures


@dataclass(frozen=True)
class CosetSpace:
    """A finite right G-set given by generator permutations.

    generators[i][x] is x . g_i.  The name list is parallel and only
    used in messages."""

    points: int
    generators: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.points < 1:
            raise ValidationError("a coset space needs at least one point")
        for i, perm in enumerate(self.generators):
            if len(perm) != self.points or sorted(perm) != list(range(self.points)):
                raise ValidationError(f"generator {self._name(i)} is not a permutation")
        if self.names and len(self.names) != len(self.generators):
            raise ValidationError("generator name list has the wrong length")

    def _name(self, i: int) -> str:
        return self.names[i] if self.names else f"#{i}"


@dataclass(frozen=True)
class GroupRepresentation:
    """Matrix generators over F_{p^s} = `ctx` = W_1(F_{p^s}), parallel to
    a CosetSpace's."""

    ctx: WittRing
    dim: int
    generators: tuple[tuple[tuple[WittElem, ...], ...], ...]

    def __post_init__(self):
        if self.dim < 0:
            raise ValidationError(f"representation field 'dim' must be >= 0, got {self.dim}")
        for i, M in enumerate(self.generators):
            if len(M) != self.dim or any(len(row) != self.dim for row in M):
                raise ValidationError(f"representation matrix #{i} is not {self.dim} x {self.dim}")
            if not linalg.is_invertible(M):
                raise ValidationError(f"representation matrix #{i} is singular")


def regular_coset_space(table, elements) -> tuple[CosetSpace, GroupRepresentation]:
    """A group of coded matrices over `table`'s field acting on itself by
    right translation, x . g = xg, one generator per element (in sorted
    order), with its natural representation rho(g) = g.  Each generator's
    permutation is one `table.right_mul(g)` map over the elements."""
    elements = sorted(elements)
    index = {e: i for i, e in enumerate(elements)}
    space = CosetSpace(
        points=len(elements),
        generators=tuple(tuple(map(index.__getitem__, map(table.right_mul(g), elements))) for g in elements),
    )
    rho = GroupRepresentation(
        ctx=table.ctx, dim=len(elements[0]), generators=tuple(table.mat_decode(g) for g in elements)
    )
    return space, rho


def equivariant_dimension(space: CosetSpace, rho: GroupRepresentation) -> int:
    """dim { f : space -> F^d with f(x . g) = rho(g)^{-1} f(x) }.

    The condition reads f(z) = rho(g) f(z . g), so the walk steps against
    each permutation and inverts no matrix.  One walk per orbit:
    f(y) = S_y f(rep), with S_rep = I and S_z = rho(g) S_y along the
    spanning-tree edge from y to the z with z . g = y.  Every other edge
    asks (S_z - rho(g) S_y) f(rep) = 0, so the orbit adds d minus the
    rank of those rows; an edge whose two matrices are equal asks
    nothing.  Those rows are -rho(g) (S_y - rho(g)^{-1} S_z), the forward
    edge's constraint times an invertible matrix, so each edge asks what
    a forward walk asks of it and the dimension is the same.

    The walk keeps the transposes T_y = S_y^T, so an edge is the right
    product T_z = T_y rho(g)^T by one matrix per generator, and an edge's
    constraint rows are the rows of (T_z - T_y rho(g)^T)^T.  Each
    generator gets one `linalg.right_mul` map, which multiplies each
    distinct row of the T_y once: the maps hold at most
    #generators x #distinct rows products, and only for this call.  With
    no generators every point is its own orbit and asks nothing, so the
    dimension is points * d and no matrix is built."""
    if len(space.generators) != len(rho.generators):
        raise ValidationError(
            "inconsistent action data: "
            f"{len(space.generators)} permutations vs {len(rho.generators)} matrices"
        )
    if not space.generators:
        return space.points * rho.dim
    one, zero = rho.ctx.one(), rho.ctx.zero()
    d = rho.dim
    steps = [linalg.right_mul(linalg.transpose(M)) for M in rho.generators]
    # backs[i][y] is the z with z . g_i = y: a permutation's argsort is its inverse
    backs = [sorted(range(space.points), key=perm.__getitem__) for perm in space.generators]
    T = {}
    total = 0
    for start in range(space.points):
        if start in T:
            continue
        T[start] = linalg.scalar_matrix(d, one, zero)
        queue = [start]
        constraints = []
        while queue:
            y = queue.pop()
            Ty = T[y]
            for back, step in zip(backs, steps):
                z = back[y]
                image = step(Ty)
                if z not in T:
                    T[z] = image
                    queue.append(z)
                elif T[z] != image:
                    constraints.extend(
                        row for row in linalg.transpose(linalg.mat_sub(T[z], image))
                        if any(not x.is_zero() for x in row)
                    )
        total += d - linalg.rank(constraints)
    return total


# ---------------------------------------------------------------------------
# JSON interchange for fixtures


def coset_space_from_dict(data: dict) -> CosetSpace:
    spec = "coset-space spec"
    points = spec_field(data, "points", spec)
    perms, names = [], []
    for i, g in enumerate(spec_list(spec_value(data, "generators", spec), "generators", spec)):
        at = f"generators[{i}]"
        perm = spec_list(spec_value(g, "perm", spec, at), f"{at}.perm", spec)
        perms.append(tuple(spec_int(x, f"{at}.perm[{k}]", spec) for k, x in enumerate(perm)))
        names.append(str(g.get("name", f"#{i}")))
    return CosetSpace(points=points, generators=tuple(perms), names=tuple(names))


def representation_from_dict(data: dict) -> GroupRepresentation:
    spec = "representation spec"
    dim = spec_field(data, "dim", spec)
    fld = spec_value(data, "field", spec)
    gens = spec_list(spec_value(data, "generators", spec), "generators", spec)
    p = spec_field(fld, "p", spec, "field")
    ctx = witt_ring(p, spec_field(fld, "s", spec, "field") if "s" in fld else 1, 1)
    mats = tuple(
        linalg.mat_map(ctx.el, spec_matrix(M, f"generators[{i}]", ctx.s, spec)) for i, M in enumerate(gens)
    )
    return GroupRepresentation(ctx=ctx, dim=dim, generators=mats)
