import itertools
import math
import random
from fractions import Fraction

import pytest

from ssp import count, linalg
from ssp.errors import FormulaInconsistencyError, ValidationError
from ssp.ftables import field_table
from ssp.witt import witt_ring
from ssp.groups import gusplit_group_elements
from ssp.count import (
    CosetSpace,
    GroupRepresentation,
    SignatureParams,
    asymptotic_exponent_symbolic,
    coset_space_from_dict,
    eigensystem_bound,
    equivariant_dimension,
    mass_factor_product,
    regular_coset_space,
    representation_from_dict,
)

from helpers import inverse


@pytest.fixture
def fresh_level_part():
    """An empty `count._level_part` cache before and after the test, so
    a record formed from patched factors reaches no other test."""
    count._level_part.cache_clear()
    yield
    count._level_part.cache_clear()


class TestSignatureParams:
    def test_valid(self):
        params = SignatureParams(p=3, alpha=-1, r=1, s=1, N=7)
        assert params.g == 2 and params.warnings == ()

    def test_rs_zero_warns_but_passes(self):
        params = SignatureParams(p=3, alpha=-1, r=2, s=0, N=3)
        assert any("rs = 0" in w for w in params.warnings)

    def test_small_level_warns(self):
        params = SignatureParams(p=3, alpha=-1, r=1, s=1, N=1)
        assert any("N < 3" in w for w in params.warnings)

    def test_p_dividing_level_warns(self):
        # the headline acceptance case is p = 3, N = 3, so this cannot
        # be a hard error; the lost prime-to-p interpretation is flagged
        params = SignatureParams(p=3, alpha=-1, r=1, s=1, N=3)
        assert any("p divides N" in w for w in params.warnings)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(p=3, alpha=-1, r=1, s=2, N=3), "even"),
            (dict(p=3, alpha=-3, r=1, s=1, N=3), "divides alpha"),
            (dict(p=5, alpha=-1, r=1, s=1, N=3), "QR mod p"),
            (dict(p=4, alpha=-1, r=1, s=1, N=3), "odd prime"),
            (dict(p=3, alpha=-4, r=1, s=1, N=7), "squarefree"),
            (dict(p=3, alpha=2, r=1, s=1, N=7), "negative"),
        ],
    )
    def test_invalid(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            SignatureParams(**kwargs)


class TestSuperspecialBound:
    def test_pipeline_value_g2(self):
        params = SignatureParams(p=3, alpha=-1, r=1, s=1, N=3)
        assert eigensystem_bound(params).superspecial_bound_exact == 360
        assert mass_factor_product(3, 2) == 20

    def test_level_one_collapses_gsp_factor(self):
        for p in (3, 7, 11):
            params = SignatureParams(p=p, alpha=-1, r=1, s=1, N=1)
            assert eigensystem_bound(params).superspecial_bound_exact == Fraction((p - 1) * (p * p + 1), 5760)

    def test_level_four(self):
        from ssp.groups import order_gsp_mod

        params = SignatureParams(p=3, alpha=-1, r=1, s=1, N=4)
        want = Fraction(1, 5760) * order_gsp_mod(2, 4) * 20
        assert eigensystem_bound(params).superspecial_bound_exact == want

    @pytest.mark.parametrize("p", [3, 5, 7, 199967, 2999])
    @pytest.mark.parametrize("g", [1, 2, 3, 4, 16, 32])
    def test_mass_product_matches_the_literal_product(self, p, g):
        assert mass_factor_product(p, g) == math.prod(p**i + (-1) ** i for i in range(1, g + 1))


class TestEigensystemBound:
    def test_headline_case(self):
        report = eigensystem_bound(SignatureParams(p=3, alpha=-1, r=1, s=1, N=3))
        assert report.superspecial_bound_ceiling == 360
        assert report.irr_sum_bound == 32
        assert report.class_count == 32 and report.dim_bound == 1
        assert report.final_bound == 11520
        assert report.asymptotic_exponent == 6

    def test_rs_zero_branch(self):
        report = eigensystem_bound(SignatureParams(p=3, alpha=-1, r=2, s=0, N=3))
        assert report.superspecial_bound_ceiling == 360
        assert report.irr_sum_bound == 72
        assert report.final_bound == 25920
        assert report.asymptotic_exponent == 7

    def test_double_entry_decomposition(self):
        for r, s in [(1, 1), (2, 0), (2, 2)]:
            report = eigensystem_bound(SignatureParams(p=3, alpha=-1, r=r, s=s, N=3))
            assert report.final_bound == report.superspecial_bound_ceiling * report.irr_sum_bound
            assert report.irr_sum_bound == report.class_count * report.dim_bound

    def test_checks_independent_of_p_run_once_per_g(self, monkeypatch, fresh_level_part):
        calls = []

        def bernoulli_form(g):
            calls.append(g)
            return count.mass_constant(g)

        monkeypatch.setattr(count, "mass_constant_bernoulli_abs", bernoulli_form)
        for p in (3, 7, 11):
            eigensystem_bound(SignatureParams(p=p, alpha=-1, r=1, s=1, N=3))
        assert calls == [2]
        # the cached record still compares the two forms when it is formed
        monkeypatch.setattr(count, "mass_constant_bernoulli_abs", lambda g: Fraction(1))
        count._level_part.cache_clear()
        with pytest.raises(FormulaInconsistencyError, match="zeta and Bernoulli forms of C_g disagree"):
            eigensystem_bound(SignatureParams(p=3, alpha=-1, r=1, s=1, N=3))

    def test_level_factor_formed_once_per_g_and_level(self, monkeypatch, fresh_level_part):
        calls = []
        real = count.mass_constant

        def zeta_form(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(count, "mass_constant", zeta_form)
        for (r, s), N in itertools.product([(1, 1), (2, 2)], [3, 4]):
            for p in (3, 7, 11, 19, 23):
                eigensystem_bound(SignatureParams(p=p, alpha=-1, r=r, s=s, N=N))
        assert calls == [2, 2, 4, 4]
        assert count._level_part.cache_info().currsize == 4

    def test_cached_level_factor_is_still_checked(self, monkeypatch):
        # the reassembly check multiplies the record's C_g * #GSp by the
        # mass product, the bound itself is c_g * (gsp * mass): a wrong
        # cached factor makes the two routes disagree on every row
        c_g, gsp, level, degree = count._level_part(2, 1, 1, 3)
        monkeypatch.setattr(count, "_level_part", lambda g, r, s, N: (c_g, gsp, level + 1, degree))
        for p in (3, 7, 11):
            with pytest.raises(FormulaInconsistencyError, match="superspecial bound fails to reassemble"):
                eigensystem_bound(SignatureParams(p=p, alpha=-1, r=1, s=1, N=3))


class TestAsymptotics:
    def test_examples(self):
        assert asymptotic_exponent_symbolic(2, 1, 1) == 6
        assert asymptotic_exponent_symbolic(2, 2, 0) == 7
        assert asymptotic_exponent_symbolic(4, 2, 2) == 17

    def test_all_partitions_up_to_g8(self):
        for g in (2, 4, 6, 8):
            for r in range(g + 1):
                s = g - r
                assert asymptotic_exponent_symbolic(g, r, s) == g * g + g + 1 - r * s

    def test_empirical_log_ratio_fit(self):
        import math

        primes = [3, 5, 7, 11, 13]
        bounds = {}
        for p in primes:
            # -1 is a non-residue only for p = 3 mod 4; use a suitable alpha
            alpha = -1 if p % 4 == 3 else -2 if pow(-2 % p, (p - 1) // 2, p) == p - 1 else -5
            report = eigensystem_bound(SignatureParams(p=p, alpha=alpha, r=1, s=1, N=3))
            bounds[p] = report.final_bound
        slopes = [
            math.log(bounds[q] / bounds[p]) / math.log(q / p)
            for p, q in zip(primes, primes[1:])
        ]
        # leading term dominates from the second consecutive pair on
        for slope in slopes[1:]:
            assert abs(slope - 6) <= 0.15
        assert abs(slopes[0] - 6) <= 0.5  # pre-asymptotic pair is close but looser


# ---------------------------------------------------------------------------
# equivariant fixtures


def equivariant_dimension_dense(space, rho):
    """Independent oracle of equivariant_dimension: assemble the full
    linear system on all values f(x) at once and return the kernel
    dimension."""
    one, zero = rho.ctx.one(), rho.ctx.zero()
    n, d = space.points, rho.dim
    inv = [inverse(M, one, zero) for M in rho.generators]
    rows = []
    for gi, perm in enumerate(space.generators):
        for x in range(n):
            z = perm[x]
            for row_idx in range(d):
                row = [zero] * (n * d)
                for col in range(d):
                    row[x * d + col] = row[x * d + col] - inv[gi][row_idx][col]
                row[z * d + row_idx] = row[z * d + row_idx] + one
                rows.append(tuple(row))
    return n * d - linalg.rank(rows)


def trivial_rep(ctx, k):
    ident = ((ctx.one(),),)
    return GroupRepresentation(ctx=ctx, dim=1, generators=tuple(ident for _ in range(k)))


def order_four_scalar(ctx):
    """lam with lam^4 = 1 != lam^2: a generator of the norm-one subgroup of F_9^x."""
    return next(x for x in ctx.elements() if not x.is_zero() and (x**4) == ctx.one() and (x**2) != ctx.one())


def regular_fixture():
    """The split unitary similitude group G(U_1 x U_1)(F_9) acting on itself
    by right translation, one generator per element, with its natural
    2-dimensional matrix representation."""
    return regular_coset_space(field_table(3), gusplit_group_elements(1, 1, 3))


def cyclic_space(k, copies):
    """Z/k acting freely on copies*k points by disjoint k-cycles."""
    n = copies * k
    perm = []
    for block in range(copies):
        for i in range(k):
            perm.append(block * k + (i + 1) % k)
    return CosetSpace(points=n, generators=(tuple(perm),), names=("c",))


def random_fixture(rng, ctx):
    """Up to 3 random permutations of up to 8 points, each with a random
    invertible matrix of size up to 3 over ctx; such matrices rarely fix
    anything, so the dimension is mostly 0."""
    n = rng.randrange(2, 9)
    k = rng.randrange(1, 4)
    d = rng.randrange(1, 4)
    perms = []
    for _ in range(k):
        perm = list(range(n))
        rng.shuffle(perm)
        perms.append(tuple(perm))
    mats = []
    for _ in range(k):
        while True:
            M = linalg.freeze(
                [[ctx.el(tuple(rng.randrange(ctx.p) for _ in range(ctx.s))) for _ in range(d)] for _ in range(d)]
            )
            if linalg.is_invertible(M):
                break
        mats.append(M)
    return CosetSpace(points=n, generators=tuple(perms)), GroupRepresentation(ctx=ctx, dim=d, generators=tuple(mats))


def conjugated_permutation_fixture(rng, ctx):
    """2 or 3 random permutations of 3 to 7 points, none an involution,
    with rho(g) = P Pi_g P^-1 for one random invertible P, where Pi_g is
    the permutation matrix with Pi_g e_(x . g) = e_x.  Then f(x) = P e_x
    is equivariant, so the dimension is not 0.  P is not orthogonal, and
    the permutations are not their own inverses and rarely commute, so a
    walk that steps the wrong way or drops a transpose finds another
    number."""
    one, zero = ctx.one(), ctx.zero()
    n = rng.randrange(3, 8)
    while True:
        P = linalg.freeze(
            [[ctx.el(tuple(rng.randrange(ctx.p) for _ in range(ctx.s))) for _ in range(n)] for _ in range(n)]
        )
        if linalg.is_invertible(P):
            break
    P_inv = inverse(P, one, zero)
    perms, mats = [], []
    for _ in range(rng.randrange(2, 4)):
        perm = list(range(n))
        while all(perm[perm[x]] == x for x in range(n)):
            rng.shuffle(perm)
        Pi = tuple(tuple(one if perm[x] == y else zero for y in range(n)) for x in range(n))
        perms.append(tuple(perm))
        mats.append(linalg.mat_mul(linalg.mat_mul(P, Pi), P_inv))
    return CosetSpace(points=n, generators=tuple(perms)), GroupRepresentation(ctx=ctx, dim=n, generators=tuple(mats))


def linear_fixture(rng, ctx):
    """Up to 3 random invertible 2 x 2 matrices M over ctx acting on the
    non-zero column vectors by x . M = M^-1 x, with rho(M) = M.  The
    action is genuine and f(x) = x is equivariant on every orbit, so the
    dimension is at least the number of orbits; as the matrices rarely
    commute, a word multiplied in the wrong order finds less."""
    one, zero = ctx.one(), ctx.zero()
    points = [tuple(map(ctx.el, v)) for v in itertools.product(range(ctx.p), repeat=2) if any(v)]
    index = {x: i for i, x in enumerate(points)}
    perms, mats = [], []
    for _ in range(rng.randrange(1, 4)):
        while True:
            M = linalg.freeze([[ctx.el(rng.randrange(ctx.p)) for _ in range(2)] for _ in range(2)])
            if linalg.is_invertible(M):
                break
        M_inv = inverse(M, one, zero)
        perms.append(tuple(index[tuple(linalg.dot(row, x) for row in M_inv)] for x in points))
        mats.append(M)
    return CosetSpace(points=len(points), generators=tuple(perms)), GroupRepresentation(ctx=ctx, dim=2, generators=tuple(mats))


class TestEquivariantDimension:
    def test_trivial_rep_counts_orbits(self):
        ctx = witt_ring(3, 2, 1)
        space = cyclic_space(4, 3)  # 3 orbits
        assert equivariant_dimension(space, trivial_rep(ctx, 1)) == 3

    def test_free_action_gives_orbits_times_dim(self):
        ctx = witt_ring(3, 2, 1)
        lam = order_four_scalar(ctx)
        M = ((lam, ctx.zero()), (ctx.zero(), lam.inv()))
        rho = GroupRepresentation(ctx=ctx, dim=2, generators=(M,))
        assert equivariant_dimension(cyclic_space(4, 3), rho) == 3 * 2
        rho1 = GroupRepresentation(ctx=ctx, dim=1, generators=(((lam,),),))
        assert equivariant_dimension(cyclic_space(4, 2), rho1) == 2 * 1

    def test_stabilizer_images_cut_the_fixed_space(self):
        ctx = witt_ring(3, 2, 1)
        one, zero = ctx.one(), ctx.zero()
        # c swaps two points, so c^2 fixes each and acts by lam^2 = -1:
        # no non-zero value at a point is fixed
        rho = GroupRepresentation(ctx=ctx, dim=1, generators=(((order_four_scalar(ctx),),),))
        space = cyclic_space(2, 1)
        assert equivariant_dimension(space, rho) == equivariant_dimension_dense(space, rho) == 0
        # a fixes both points and b swaps them, so a and b a b^-1 fix a point;
        # they act by the swap and by minus the swap, which fix (1, 1) and
        # (1, -1) only: a word multiplied in the wrong order finds a line
        swap = ((zero, one), (one, zero))
        rho = GroupRepresentation(ctx=ctx, dim=2, generators=(swap, ((one, zero), (zero, -one))))
        space = CosetSpace(points=2, generators=((0, 1), (1, 0)))
        assert equivariant_dimension(space, rho) == equivariant_dimension_dense(space, rho) == 0
        # one point fixed by a = [[1, 1], [0, 1]] and b = diag(1, -1) over F_3:
        # I - a^-1 and I - b^-1 both ask f_2 = 0 and leave the line f_1, but
        # their transposes also ask f_1 = 0, so a walk whose constraint rows
        # are columns finds nothing
        F3 = witt_ring(3, 1, 1)
        one, zero = F3.one(), F3.zero()
        a, b = ((one, one), (zero, one)), ((one, zero), (zero, -one))
        rho = GroupRepresentation(ctx=F3, dim=2, generators=(a, b))
        space = CosetSpace(points=1, generators=((0,), (0,)))
        assert equivariant_dimension(space, rho) == equivariant_dimension_dense(space, rho) == 1

    def test_no_generators_gives_points_times_dim(self):
        ctx = witt_ring(3, 2, 1)
        space = CosetSpace(points=3, generators=())
        for dim in (0, 2):
            rho = GroupRepresentation(ctx=ctx, dim=dim, generators=())
            assert equivariant_dimension(space, rho) == equivariant_dimension_dense(space, rho) == 3 * dim

    def test_regular_space_gives_dim_rho(self):
        space, rho = regular_fixture()
        assert equivariant_dimension(space, rho) == 2
        assert equivariant_dimension(space, trivial_rep(rho.ctx, space.points)) == 1

    def test_steps_by_each_generator_transposed(self, monkeypatch):
        # the walk steps against the permutations, so each generator's map
        # multiplies by rho(g)^T itself: no matrix is inverted
        space, rho = regular_fixture()
        factors = []
        real = linalg.right_mul
        monkeypatch.setattr(linalg, "right_mul", lambda M: factors.append(M) or real(M))
        assert equivariant_dimension(space, rho) == 2
        assert factors == [linalg.transpose(M) for M in rho.generators]

    def test_multiplies_each_distinct_row_once_per_generator(self, monkeypatch):
        # the 32 transposes of the walk have 16 distinct rows, and each of
        # the 32 generators' maps multiplies all of them once: 512 row
        # products, where a product per edge would make 1024 matrix
        # products.  The elements are diagonal, so each row product is one
        # dot of a single factor
        space, rho = regular_fixture()
        rows, calls = [], []
        real_row_times, real_dot = linalg.row_times, linalg.dot

        def row_times(M):
            times_m = real_row_times(M)
            return lambda r: rows.append(r) or times_m(r)

        monkeypatch.setattr(linalg, "row_times", row_times)
        monkeypatch.setattr(linalg, "dot", lambda xs, ys: calls.append(xs) or real_dot(xs, ys))
        assert equivariant_dimension(space, rho) == 2
        assert len(rows) == len(calls) == 512
        assert len(set(rows)) == 16
        assert {len(xs) for xs in calls} == {1}

    def test_dense_oracle_agrees_on_random_fixtures(self):
        rng = random.Random(42)
        fixtures = [random_fixture(rng, witt_ring(rng.choice([3, 5]), 2, 1)) for _ in range(40)]  # F_9 or F_25
        # over F_3 and F_5, every other fixture is a genuine linear action
        prime = [
            (linear_fixture if i % 2 else random_fixture)(rng, witt_ring(rng.choice([3, 5]), 1, 1))
            for i in range(24)
        ]
        # over F_9 and over F_5 or F_7, fixtures that fix something by construction
        conjugated = [
            conjugated_permutation_fixture(rng, witt_ring(p, s, 1))
            for p, s in [(3, 2)] * 6 + [(rng.choice([5, 7]), 1) for _ in range(6)]
        ]
        dims = []
        for space, rho in fixtures + prime + conjugated:
            dim = equivariant_dimension(space, rho)
            assert dim == equivariant_dimension_dense(space, rho)
            assert dim <= space.points * rho.dim
            dims.append(dim)
        # a walk that multiplies its words in the wrong order still finds 0
        # wherever nothing is fixed, so half the prime-field fixtures fix something
        assert sum(1 for dim in dims[40:64] if dim) >= 12
        assert all(dims[64:])

    def test_relabeling_invariance(self):
        rng = random.Random(5)
        ctx = witt_ring(3, 2, 1)
        space = cyclic_space(4, 2)
        lam = order_four_scalar(ctx)
        rho = GroupRepresentation(ctx=ctx, dim=1, generators=(((lam,),),))
        base = equivariant_dimension(space, rho)
        for _ in range(5):
            relabel = list(range(space.points))
            rng.shuffle(relabel)
            inverse = [0] * space.points
            for i, v in enumerate(relabel):
                inverse[v] = i
            perms = tuple(
                tuple(relabel[perm[inverse[x]]] for x in range(space.points))
                for perm in space.generators
            )
            assert equivariant_dimension(CosetSpace(space.points, perms), rho) == base

    def test_inconsistent_data_rejected(self):
        ctx = witt_ring(3, 2, 1)
        space = cyclic_space(2, 1)
        with pytest.raises(ValidationError, match="inconsistent action data"):
            equivariant_dimension(space, trivial_rep(ctx, 2))
        with pytest.raises(ValidationError, match="permutation"):
            CosetSpace(points=3, generators=((0, 0, 1),))
        with pytest.raises(ValidationError, match="singular"):
            GroupRepresentation(ctx=ctx, dim=1, generators=(((ctx.zero(),),),))


class TestFixtureJson:
    def test_round_trip_shapes(self):
        space = coset_space_from_dict(
            {
                "points": 4,
                "generators": [{"name": "c", "perm": [1, 2, 3, 0]}],
                "group": "Z/4",
            }
        )
        assert space.points == 4 and space.names == ("c",)
        # "group" is a label for the reader; like any extra key it is ignored
        assert space == CosetSpace(points=4, generators=((1, 2, 3, 0),), names=("c",))
        rho = representation_from_dict(
            {
                "dim": 1,
                "field": {"p": 3, "s": 2},
                "generators": [[[[0, 1]]]],
            }
        )
        assert rho.dim == 1 and rho.ctx.p == 3
        assert equivariant_dimension(space, rho) == 1
