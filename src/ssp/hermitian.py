"""The mod-p Hermitian quotient M/VM of a polarized Dieudonné module.

When F + V = 0, the polarization induces the pairing
<x_bar, y_bar> = e(x, F y) mod p on M/VM.  It is linear in the first
slot, sigma-semilinear in the second, sigma-alternating
(<x,y> = <y,x>^sigma), perfect, and skew-Hermitian for the imaginary
quadratic action.  Its automorphism group (block-diagonal for the
+/- sqrt(alpha) grading, similitude factor in F_p^x) is determined
here by exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import linalg
from .dieudonne import DieudonneModule, check_axioms
from .errors import EnumBudget, ValidationError
from .ftables import block_similitude_order, block_similitudes, metered_table
from .witt import WittElem, WittRing, canonical_lie_action, hensel_sqrt


@dataclass(frozen=True)
class HermitianQuotient:
    """A sigma-alternating perfect pairing on F_{p^2}^dim, F_{p^2} = `ctx`
    = W_1(F_{p^2}), dim being the size of the Gram matrix.

    gram[i][j] = <e_i, e_j>; the pairing of vectors is
    x^T . gram . sigma(y).  When the space is graded, the first
    grading[0] basis vectors span the -sqrt(alpha) eigenspace and the
    rest the +sqrt(alpha) eigenspace, and gram is block diagonal.
    """

    ctx: WittRing
    gram: tuple[tuple[WittElem, ...], ...]
    grading: Optional[tuple[int, int]] = None

    @property
    def dim(self) -> int:
        return len(self.gram)

    def __post_init__(self):
        if any(len(r) != self.dim for r in self.gram):
            raise ValidationError("Gram matrix has wrong dimensions")
        if self.gram != linalg.transpose(linalg.mat_map(self.ctx.sigma, self.gram)):
            raise ValidationError("pairing is not sigma-alternating")
        if not linalg.is_invertible(self.gram):
            raise ValidationError("degenerate pairing (polarization bug)")
        if self.grading is not None:
            r, s = self.grading
            if r + s != self.dim or r < 0 or s < 0:
                raise ValidationError("grading does not match the dimension")
            for i in range(r):
                for j in range(r, self.dim):
                    if not (self.gram[i][j].is_zero() and self.gram[j][i].is_zero()):
                        raise ValidationError("Gram is not block diagonal for the grading")

    def blocks(self):
        r, s = self.grading if self.grading is not None else (self.dim, 0)
        minus = tuple(tuple(self.gram[i][j] for j in range(r)) for i in range(r))
        plus = tuple(tuple(self.gram[i][j] for j in range(r, self.dim)) for i in range(r, self.dim))
        return minus, plus


def reduce_pairing(m: DieudonneModule) -> HermitianQuotient:
    """The induced pairing on M/VM for a module with F = -V: the Gram is
    reduce(E F) restricted to the basis of m.quotient_projection, in its
    order (the basis is not reordered).

    When an imaginary quadratic action is present, that basis must be
    the graded one: the induced action must be canonical_lie_action(alpha,
    r, g - r), r being its number of leading -sqrt(alpha) entries, or a
    ValidationError is raised (the superspecial models are built so).
    For that diagonal action, with sigma(u) = -u and p odd, the pairing
    is skew-Hermitian (J^T G = -G sigma(J)) exactly when G is block
    diagonal for the grading; HermitianQuotient checks that, and that
    the pairing is sigma-alternating and perfect.
    """
    if m.polarization is None:
        raise ValidationError("polarization required")
    rep = check_axioms(m)
    if not rep.ok:
        raise ValidationError(f"module fails axioms: {rep.failures()}")
    if m.ring.s not in (1, 2):
        raise ValidationError("F = -V only makes sense when sigma is an involution")
    if m.f_matrix != linalg.mat_neg(m.v_matrix):
        raise ValidationError("F + V != 0 on this module")

    ctx = m.ring.residue
    quot, _ = m.quotient_projection
    pairing_full = linalg.mat_map(m.ring.reduce, m.ef_matrix)
    gram = linalg.freeze([[pairing_full[i][j] for j in quot] for i in quot])

    grading = None
    if m.ok_action is not None:
        jq = m.induced_quotient_action
        g = len(quot)
        minus_ubar = -hensel_sqrt(ctx, m.alpha)
        r = next((i for i in range(g) if jq[i][i] != minus_ubar), g)
        if jq != canonical_lie_action(ctx, m.alpha, r, g - r):
            raise ValidationError("the action on the quotient basis is not diag(-sqrt(alpha) I_r, sqrt(alpha) I_s)")
        grading = (r, g - r)

    return HermitianQuotient(ctx=ctx, gram=gram, grading=grading)


def pairing_well_defined(m: DieudonneModule, h: HermitianQuotient, trials: int, seed: int) -> int:
    """Oracle: recompute the pairing of h from random coset representatives
    x + Fa, y + Vb and count disagreements with h.gram (0 for a correct
    pairing).  h must live on M/VM in the basis of m.quotient_projection;
    an h of another dimension is refused.

    Each trial draws positions i and j in that basis, then the entries of
    a and of b, in that order; all trials are drawn first.  The
    representatives are then three products over the trials stacked as
    columns: X = e_quot[i] + F sigma(a), Y = e_quot[j] + V sigma^{-1}(b)
    and (E F) sigma(Y), since e(x, F y) = x^T (E F) sigma(y); E F is
    m.ef_matrix, which reduce_pairing has already formed.  Each trial's
    value is a `dot` of two columns, reduced mod p, and is compared with
    h.gram[i][j]."""
    import random

    if m.polarization is None:
        raise ValidationError("polarization required")
    quot, _ = m.quotient_projection
    if h.dim != len(quot):
        raise ValidationError(f"pairing of dimension {h.dim} on a quotient of dimension {len(quot)}")
    if trials < 1:
        return 0
    rng = random.Random(seed)
    ring = m.ring
    one = ring.one()
    x_pos, y_pos, a, b = [], [], [], []
    for _ in range(trials):
        x_pos.append(rng.randrange(len(quot)))
        y_pos.append(rng.randrange(len(quot)))
        a.append(tuple(ring.el(rng.randrange(ring.pn)) for _ in range(m.rank)))
        b.append(tuple(ring.el(rng.randrange(ring.pn)) for _ in range(m.rank)))

    def representatives(M, twist, vectors, positions):
        """The columns e_quot[k] + M twist(v), one per trial's (v, k), as lists."""
        cols = [list(c) for c in zip(*linalg.mat_mul(M, linalg.mat_map(twist, linalg.transpose(vectors))))]
        for col, k in zip(cols, positions):
            col[quot[k]] = col[quot[k]] + one
        return cols

    xs = representatives(m.f_matrix, ring.sigma, a, x_pos)
    ys = representatives(m.v_matrix, ring.sigma_inv, b, y_pos)
    zs = zip(*linalg.mat_mul(m.ef_matrix, linalg.mat_map(ring.sigma, linalg.transpose(ys))))
    disagreements = 0
    for x, z, i, j in zip(xs, zs, x_pos, y_pos):
        if ring.reduce(linalg.dot(x, z)) != h.gram[i][j]:
            disagreements += 1
    return disagreements


# ---------------------------------------------------------------------------
# automorphism groups by exhaustive enumeration: the block-diagonal X with
# X* gram X = c gram for a common similitude c in F_p^x.  The frames of
# each grading block are enumerated independently (the blocks only
# interact through c; see ftables.similitude_frames).


def _coded_blocks(h: HermitianQuotient):
    """(table, coded grading blocks, meter) of h over field_table(p, s)."""
    meter = EnumBudget("automorphism_group_bruteforce")
    table = metered_table(h.ctx.p, h.ctx.s, meter)
    return table, [table.mat_encode(block) for block in h.blocks()], meter


def automorphism_group_order(h: HermitianQuotient) -> int:
    """The number of automorphisms, counted from the frames of each block."""
    return block_similitude_order(*_coded_blocks(h))


def automorphism_group_bruteforce(h: HermitianQuotient) -> tuple[int, list]:
    """(order, elements), the elements decoded to matrices over h.ctx."""
    table, grams, meter = _coded_blocks(h)
    elements = table.mats_decode(block_similitudes(table, grams, meter))
    return len(elements), elements

