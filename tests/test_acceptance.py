"""Acceptance suite: every criterion is exact (integer or rational
equality) unless a tolerance is stated inline.  Each test prints one
PASS/FAIL line (run with -s to see them alongside the pytest dots)."""

import math
import time
from fractions import Fraction

import pytest

from ssp import linalg, verify
from ssp.count import SignatureParams, eigensystem_bound
from ssp.dieudonne import (
    action_eigen_indices,
    build_a_half,
    build_superspecial_unitary,
    canonical_lie_action,
    check_axioms,
    determinant_condition,
    endpoint_admissibility,
    graded_quotient_dims,
    hodge_polygon,
    newton_polygon,
)
from ssp.exact import mass_constant, mass_constant_bernoulli_abs
from ssp.witt import witt_ring
from ssp.groups import (
    gl2_order_enumerated,
    gusplit_group_elements,
    order_gsp_mod,
    order_gusplit,
    order_su,
    order_u,
    p_regular_class_count_enumerated,
    p_regular_classes,
    su_group_elements,
    unitary_group_elements,
)
from ssp.hermitian import automorphism_group_bruteforce, pairing_well_defined, reduce_pairing
from ssp.count import (
    CosetSpace,
    GroupRepresentation,
    equivariant_dimension,
)


def record(num: int, name: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {name}")
    assert ok, f"criterion {num}: {name}"


def test_criterion_01_group_orders_formula_vs_enumeration():
    t0 = time.monotonic()
    ok = (
        len(su_group_elements(2, 3)) == order_su(2, 3) == 24
        and len(unitary_group_elements(1, 3)) == order_u(1, 3) == 4
        and len(gusplit_group_elements(1, 1, 3)) == order_gusplit(1, 1, 3) == 32
        and len(gusplit_group_elements(2, 0, 3)) == order_gusplit(2, 0, 3) == 192
        and gl2_order_enumerated(3) == order_gsp_mod(1, 3) == 48
    )
    elapsed = time.monotonic() - t0
    record(1, f"group orders, formula == enumeration ({elapsed:.1f}s < 60s)", ok and elapsed < 60)


def test_criterion_02_p_regular_class_counts():
    t0 = time.monotonic()
    ok = all(
        p_regular_class_count_enumerated(r, s, 3) == p_regular_classes(r, s, 3)
        for r, s in ((1, 1), (2, 0))
    )
    elapsed = time.monotonic() - t0
    record(2, f"p-regular class counts match enumeration ({elapsed:.1f}s < 120s)", ok and elapsed < 120)


# criterion 3 (the enumerated p-Sylow orders) is verify's sylow-order-vs-formula(3)


def test_criterion_04_superspecial_model_core():
    ok = True
    for r, s in ((1, 1), (2, 2)):
        for n in (2, 4):
            m = build_superspecial_unitary(3, n, -1, r, s)
            ok = ok and check_axioms(m).ok
            ok = ok and m.f_matrix == linalg.mat_neg(m.v_matrix)
            minus, plus = action_eigen_indices(m)
            zero = m.ring.zero()
            for idxs in (minus, plus):
                for i in idxs:
                    for j in idxs:
                        ok = ok and m.pairing(m.basis_vector(i), m.basis_vector(j)) == zero
            ok = ok and graded_quotient_dims(m) == (r, s)
    record(4, "model axioms, F+V=0, isotropy, quotient dims at n in {2,4}", ok)


def test_criterion_05_pairing():
    ok = True
    for r, s in ((1, 1), (2, 2)):
        m = build_superspecial_unitary(3, 2, -1, r, s)
        h = reduce_pairing(m)  # raises unless perfect, alternating, skew-Hermitian
        conj_t = linalg.transpose(linalg.mat_map(h.ctx.sigma, h.gram))
        ok = ok and h.gram == conj_t
        ok = ok and pairing_well_defined(m, h, trials=20, seed=0) == 0
    record(5, "pairing perfect, sigma-alternating, well-defined over 20 coset draws", ok)


def test_criterion_06_automorphism_group_order():
    t0 = time.monotonic()
    h = reduce_pairing(build_superspecial_unitary(3, 2, -1, 1, 1))
    order, _ = automorphism_group_bruteforce(h)
    elapsed = time.monotonic() - t0
    ok = order == order_gusplit(1, 1, 3) == 32 and elapsed < 600
    record(6, f"brute-force automorphism order 32 ({elapsed:.1f}s < 600s)", ok)


# criterion 7 (the level-p exact sequence onto all 32 elements of G(p)) is
# verify's lemma-gp-check(3,-1,1,1), which also pins |G(p)| = order_gusplit(1,1,3)


def test_criterion_08_newton_and_hodge():
    np_half = newton_polygon(build_a_half(witt_ring(3, 2, 6)))
    ok = np_half.slopes == ((Fraction(1, 2), 2),)
    for r, s in ((1, 1), (2, 2)):
        g = r + s
        m = build_superspecial_unitary(3, 4 * g + 2, -1, r, s)
        adm = endpoint_admissibility(newton_polygon(m), hodge_polygon(m))
        ok = ok and adm.endpoints_equal and adm.t_newton == adm.t_hodge == g
    record(8, "Newton polygon (1/2 x2); t_N = t_H = g for g in {2,4}", ok)


def test_criterion_09_mass_constants():
    ok = mass_constant(1) == Fraction(1, 24) and mass_constant(2) == Fraction(1, 5760)
    for g in range(1, 13):
        c = mass_constant(g)
        ok = ok and c > 0 and c == mass_constant_bernoulli_abs(g)
    record(9, "C_1 = 1/24, C_2 = 1/5760, positive, |C_g| = Bernoulli form for g <= 12", ok)


def test_criterion_10_pipeline_decomposition():
    rep = eigensystem_bound(SignatureParams(p=3, alpha=-1, r=1, s=1, N=3))
    ok = (
        rep.final_bound == 11520
        and rep.superspecial_bound_ceiling == 360
        and rep.class_count == 32
        and rep.dim_bound == 1
    )
    # cross-evaluate the constant both ways and rebuild the bound
    for c_g in (mass_constant(2), mass_constant_bernoulli_abs(2)):
        ss = math.ceil(c_g * order_gsp_mod(2, 3) * rep.mass_product)
        ok = ok and ss * rep.irr_sum_bound == 11520
    record(10, "pipeline 11520 = 360 x 32 x 1, identical under both C_g forms", ok)


def test_criterion_11_asymptotics():
    from ssp.count import asymptotic_exponent_symbolic

    ok = True
    for g in (2, 4, 6, 8):
        for r in range(g + 1):
            s = g - r
            ok = ok and asymptotic_exponent_symbolic(g, r, s) == g * g + g + 1 - r * s
    primes = [3, 5, 7, 11, 13]
    bounds = {}
    for p in primes:
        alpha = next(a for a in (-1, -2, -5) if pow(a % p, (p - 1) // 2, p) == p - 1)
        bounds[p] = eigensystem_bound(SignatureParams(p=p, alpha=alpha, r=1, s=1, N=3)).final_bound
    slopes = [
        math.log(bounds[q] / bounds[p]) / math.log(q / p) for p, q in zip(primes, primes[1:])
    ]
    # once the leading term dominates (pairs from p >= 5 on) the fit is tight
    ok = ok and all(abs(sl - 6) <= 0.15 for sl in slopes[1:])
    record(11, f"exponent g^2+g+1-rs for even g <= 8; empirical slopes {['%.3f' % s for s in slopes[1:]]} within 6 +/- 0.15", ok)


def test_criterion_12_determinant_condition():
    ctx = witt_ring(3, 2, 1)
    ok = True
    for g in (2, 4):
        for r in range(g + 1):
            s = g - r
            L = canonical_lie_action(ctx, -1, r, s)
            ok = ok and determinant_condition(r, s, -1, L)
            # conjugates are accepted
            import random

            rng = random.Random(g * 10 + r)
            for _ in range(3):
                while True:
                    P = linalg.freeze(
                        [
                            [ctx.el((rng.randrange(3), rng.randrange(3))) for _ in range(g)]
                            for _ in range(g)
                        ]
                    )
                    if linalg.is_invertible(P):
                        break
                Lc = linalg.mat_mul(
                    linalg.mat_mul(linalg.inverse(P, ctx.one(), ctx.zero()), L), P
                )
                ok = ok and determinant_condition(r, s, -1, Lc)
            # wrong multiplicities are rejected
            for r2 in range(g + 1):
                if r2 != r:
                    ok = ok and not determinant_condition(r, s, -1, canonical_lie_action(ctx, -1, r2, g - r2))
    record(12, "determinant condition accepts canonical matrix and conjugates, rejects wrong multiplicities", ok)


def test_criterion_13_equivariant_functions():
    ctx = witt_ring(3, 2, 1)
    ok = True
    # trivial representation counts orbits
    perm = (1, 2, 3, 0, 5, 4)  # two orbits
    space = CosetSpace(points=6, generators=(perm,))
    triv = GroupRepresentation(ctx=ctx, dim=1, generators=(((ctx.one(),),),))
    ok = ok and equivariant_dimension(space, triv) == 2
    # free action: orbits x dim
    lam = next(x for x in ctx.elements() if not x.is_zero() and x**4 == ctx.one() and x**2 != ctx.one())
    free_space = CosetSpace(points=8, generators=((1, 2, 3, 0, 5, 6, 7, 4),))
    rho2 = GroupRepresentation(
        ctx=ctx, dim=2, generators=(((lam, ctx.zero()), (ctx.zero(), lam.inv())),)
    )
    ok = ok and equivariant_dimension(free_space, rho2) == 2 * 2
    # the regular action (dimension = dim rho) is test_verify_check's
    # equivariant-dimension-regular(3,1,1)
    # randomized bound fixtures
    import random

    rng = random.Random(2024)
    for _ in range(20):
        n = rng.randrange(2, 10)
        perm = list(range(n))
        rng.shuffle(perm)
        while True:
            M = linalg.freeze(
                [[ctx.el((rng.randrange(3), rng.randrange(3))) for _ in range(2)] for _ in range(2)]
            )
            if linalg.is_invertible(M):
                break
        sp = CosetSpace(points=n, generators=(tuple(perm),))
        rho = GroupRepresentation(ctx=ctx, dim=2, generators=(M,))
        ok = ok and equivariant_dimension(sp, rho) <= sp.points * rho.dim
    record(13, "equivariant dimensions (trivial/free) and 20 randomized bound checks", ok)


@pytest.mark.parametrize("name, check", verify.FULL, ids=[name for name, _ in verify.FULL])
def test_verify_check(name, check):
    # every check registered in ssp.verify is gated here
    ok, detail = check()
    print(f"{'PASS' if ok else 'FAIL'} verify {name}")
    assert ok, f"verify {name}: {detail}"
