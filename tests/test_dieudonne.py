import random
from fractions import Fraction

import pytest

from ssp import linalg
from ssp.dieudonne import (
    DieudonneModule,
    HodgePolygon,
    NewtonPolygon,
    build_a_half,
    build_superspecial_unitary,
    canonical_lie_action,
    check_axioms,
    determinant_condition,
    endpoint_admissibility,
    graded_quotient_dims,
    hodge_polygon,
    is_isoclinic,
    newton_polygon,
    newton_polygon_with_retry,
)
from ssp.errors import FormulaInconsistencyError, InsufficientPrecisionError, ValidationError
from ssp.witt import hensel_sqrt, witt_ring

from helpers import inverse


def basis_vector(m, i):
    return tuple(m.ring.one() if j == i else m.ring.zero() for j in range(m.rank))


def mat_vec(A, v):
    return tuple(linalg.dot(row, v) for row in A)


def apply_f(m, vec):
    """F x = A sigma(x), vector by vector: the oracle of the matrix products."""
    return mat_vec(m.f_matrix, tuple(m.ring.sigma(x) for x in vec))


def apply_v(m, vec):
    """V x = B sigma^{-1}(x)."""
    return mat_vec(m.v_matrix, tuple(m.ring.sigma_inv(x) for x in vec))


def pairing(m, x, y):
    """e(x, y) = x^T E y."""
    return linalg.dot(x, mat_vec(m.polarization, y))


def module_to_dict(m):
    """The JSON spec of m that newton_polygon_with_retry reads: a fixture writer."""

    def enc(M):
        return [[list(x.coeffs) for x in row] for row in M]

    out = {"p": m.ring.p, "s": m.ring.s, "n": m.ring.n, "rank": m.rank, "F": enc(m.f_matrix), "V": enc(m.v_matrix)}
    if m.polarization is not None:
        out["E"] = enc(m.polarization)
    if m.ok_action is not None:
        out["action"] = enc(m.ok_action)
    if m.alpha is not None:
        out["alpha"] = m.alpha
    return out


def toy_module(ring, f_diag, v_diag):
    zero = ring.zero()
    n = len(f_diag)
    F = linalg.freeze([[ring.el(f_diag[i]) if i == j else zero for j in range(n)] for i in range(n)])
    V = linalg.freeze([[ring.el(v_diag[i]) if i == j else zero for j in range(n)] for i in range(n)])
    return DieudonneModule(ring=ring, f_matrix=F, v_matrix=V)


class TestAxioms:
    def test_a_half_passes(self):
        m = build_a_half(witt_ring(3, 2, 2))
        assert check_axioms(m).ok

    def test_etale_times_p_toy_passes(self):
        ring = witt_ring(3, 1, 3)
        m = toy_module(ring, [1, 1], [3, 3])
        assert check_axioms(m).ok

    def test_identity_identity_fails(self):
        ring = witt_ring(3, 1, 3)
        m = toy_module(ring, [1, 1], [1, 1])
        rep = check_axioms(m)
        assert not rep.ok
        assert any(name == "fv-equals-p" for name, _ in rep.failures())

    def test_failure_text_names_the_first_violation(self):
        ring = witt_ring(3, 1, 3)
        rep = check_axioms(toy_module(ring, [1, 1], [3, 1]))
        assert rep.failures() == [
            ("fv-equals-p", "first violation at coordinate (1,1)"),
            ("vf-equals-p", "first violation at coordinate (1,1)"),
        ]

    def test_mismatch_is_located_only_for_failing_checks(self, monkeypatch):
        from ssp import dieudonne

        located = []
        real = dieudonne._first_mismatch
        monkeypatch.setattr(dieudonne, "_first_mismatch", lambda A, B: located.append(1) or real(A, B))
        assert check_axioms(build_superspecial_unitary(3, 2, -1, 2, 2)).ok
        assert located == []
        assert not check_axioms(toy_module(witt_ring(3, 1, 3), [1, 1], [3, 1])).ok
        assert len(located) == 2

    def test_dimension_mismatch_is_an_error(self):
        # the rank is the size of F, so a V of another size is refused when
        # the module is made
        ring = witt_ring(3, 2, 2)
        good = build_a_half(ring)
        zero = ring.zero()
        with pytest.raises(ValidationError, match="V matrix is not 2 x 2"):
            DieudonneModule(ring=ring, f_matrix=good.f_matrix, v_matrix=linalg.scalar_matrix(3, ring.one(), zero))
        with pytest.raises(ValidationError, match="F matrix is not 1 x 1"):
            DieudonneModule(ring=ring, f_matrix=((zero, zero),), v_matrix=((zero,),))

    def test_an_action_needs_alpha(self):
        m = build_superspecial_unitary(3, 2, -1, 1, 1)
        with pytest.raises(ValidationError, match="must record alpha"):
            DieudonneModule(
                ring=m.ring, f_matrix=m.f_matrix, v_matrix=m.v_matrix, polarization=m.polarization, ok_action=m.ok_action
            )


class TestAHalf:
    def test_f_plus_v_vanishes(self):
        m = build_a_half(witt_ring(3, 2, 2))
        assert m.f_matrix == linalg.mat_neg(m.v_matrix)

    def test_newton_polygon_is_half_half(self):
        m = build_a_half(witt_ring(3, 2, 6))
        np_ = newton_polygon(m)
        assert np_.slopes == ((Fraction(1, 2), 2),)
        assert is_isoclinic(np_)

    def test_pairing_compatibility_on_basis(self):
        m = build_a_half(witt_ring(5, 2, 3))
        ring = m.ring
        for i in range(2):
            for j in range(2):
                x, y = basis_vector(m, i), basis_vector(m, j)
                lhs = pairing(m, apply_f(m, x), y)
                rhs = ring.sigma(pairing(m, x, apply_v(m, y)))
                assert lhs == rhs


class TestSuperspecialUnitary:
    @pytest.mark.parametrize("r, s", [(1, 1), (2, 0), (0, 2), (2, 2)])
    @pytest.mark.parametrize("n", [2, 4])
    def test_axioms_and_f_plus_v(self, r, s, n):
        m = build_superspecial_unitary(3, n, -1, r, s)
        assert m.rank == 2 * (r + s)
        assert check_axioms(m).ok
        assert m.f_matrix == linalg.mat_neg(m.v_matrix)

    def test_action_squares_to_alpha_and_commutes(self):
        m = build_superspecial_unitary(3, 2, -1, 1, 1)
        ring = m.ring
        jj = linalg.mat_mul(m.ok_action, m.ok_action)
        assert jj == linalg.scalar_matrix(4, ring.el(-1), ring.zero())

    def test_eigen_ranks_are_g_each(self):
        from ssp.dieudonne import action_eigen_indices

        for r, s in [(1, 1), (2, 0), (2, 2)]:
            m = build_superspecial_unitary(3, 2, -1, r, s)
            minus, plus = action_eigen_indices(m)
            assert len(minus) == len(plus) == r + s

    @pytest.mark.parametrize("r, s", [(1, 1), (2, 0), (0, 2), (2, 2), (3, 1)])
    def test_quotient_action_orientation(self, r, s):
        m = build_superspecial_unitary(3, 2, -1, r, s)
        ctx = m.ring.residue
        got = m.induced_quotient_action
        assert got == canonical_lie_action(ctx, -1, r, s)

    def test_quotient_action_is_kept_on_the_module(self):
        m = build_superspecial_unitary(3, 2, -1, 1, 1)
        assert m.induced_quotient_action is m.induced_quotient_action

    @pytest.mark.parametrize("r, s", [(1, 1), (2, 2), (2, 0), (1, 3)])
    def test_graded_quotient_dims(self, r, s):
        for n in (2, 4):
            m = build_superspecial_unitary(3, n, -1, r, s)
            assert graded_quotient_dims(m) == (r, s)

    def test_isotropy_and_swapping(self):
        from ssp.dieudonne import action_eigen_indices

        for r, s, n in [(2, 2, 3), (1, 1, 2), (1, 1, 4), (2, 2, 2), (2, 2, 4)]:
            m = build_superspecial_unitary(3, n, -1, r, s)
            minus, plus = action_eigen_indices(m)
            zero = m.ring.zero()
            for idxs in (minus, plus):
                for i in idxs:
                    for j in idxs:
                        assert pairing(m, basis_vector(m, i), basis_vector(m, j)) == zero
            # V M_+ and F M_+ land in M_-, and symmetrically
            for src, dst in ((plus, minus), (minus, plus)):
                for i in src:
                    for vec in (apply_v(m, basis_vector(m, i)), apply_f(m, basis_vector(m, i))):
                        for j, c in enumerate(vec):
                            if j not in dst:
                                assert c == zero

    def test_orientation_is_checked(self, monkeypatch):
        # the model is built in one orientation; a wrong induced action is an error
        from ssp import dieudonne

        ctx = witt_ring(3, 2, 1)
        wrong = property(lambda m: canonical_lie_action(ctx, -1, 0, 2))
        monkeypatch.setattr(dieudonne.DieudonneModule, "induced_quotient_action", wrong)
        with pytest.raises(FormulaInconsistencyError):
            build_superspecial_unitary(3, 2, -1, 1, 1)

    def test_rejects_odd_g(self):
        with pytest.raises(ValidationError):
            build_superspecial_unitary(3, 2, -1, 1, 2)

    def test_newton_polygon_rank_4(self):
        m = build_superspecial_unitary(3, 2 * 4 + 2, -1, 1, 1)
        assert newton_polygon(m).slopes == ((Fraction(1, 2), 4),)

    def test_newton_polygon_censored_at_low_truncation(self):
        # det of the linearized Frobenius has valuation 4, so n = 4 censors it
        m = build_superspecial_unitary(3, 4, -1, 1, 1)
        with pytest.raises(InsufficientPrecisionError):
            newton_polygon(m)


class TestNewton:
    def test_ordinary_toy(self):
        ring = witt_ring(3, 1, 4)
        m = toy_module(ring, [1, 3], [3, 1])
        np_ = newton_polygon(m)
        assert np_.slopes == ((Fraction(0), 1), (Fraction(1), 1))
        assert not is_isoclinic(np_)

    def test_insufficient_precision_raises(self):
        ring = witt_ring(3, 1, 2)
        m = toy_module(ring, [9, 9], [1, 1])  # det F = 81 = 0 at level 2
        with pytest.raises(InsufficientPrecisionError):
            newton_polygon(m)

    def test_sigma_conjugacy_invariance(self):
        rng = random.Random(7)
        m = build_superspecial_unitary(3, 10, -1, 1, 1)
        ring = m.ring
        np0 = newton_polygon(m)
        for _ in range(5):
            while True:
                P = linalg.freeze(
                    [
                        [ring.el((rng.randrange(ring.pn), rng.randrange(ring.pn))) for _ in range(4)]
                        for _ in range(4)
                    ]
                )
                if linalg.det(P, ring.one()).val() == 0:
                    break
            Pinv = inverse(P, ring.one(), ring.zero())
            F2 = linalg.mat_mul(linalg.mat_mul(Pinv, m.f_matrix), m.sigma_mat(P))
            V2 = linalg.mat_mul(linalg.mat_mul(Pinv, m.v_matrix), m.sigma_inv_mat(P))
            m2 = DieudonneModule(ring=ring, f_matrix=F2, v_matrix=V2)
            assert check_axioms(m2).ok
            assert newton_polygon(m2) == np0

    def test_total_slope_matches_det_valuation(self):
        from ssp.dieudonne import _linear_frobenius_matrix

        m = build_superspecial_unitary(3, 18, -1, 2, 2)
        np_ = newton_polygon(m)
        B = _linear_frobenius_matrix(m)
        d = linalg.det(B, m.ring.one())
        assert np_.total_slope == Fraction(d.val(), m.ring.s)


class TestPolygonTypes:
    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValidationError):
            NewtonPolygon(((Fraction(1), 1), (Fraction(0), 1)))

    def test_merging_constructor(self):
        np_ = NewtonPolygon.from_pairs([(Fraction(1, 2), 1), (Fraction(1, 2), 1)])
        assert np_.slopes == ((Fraction(1, 2), 2),)


class TestEndpoints:
    @pytest.mark.parametrize("r, s", [(1, 1), (2, 2)])
    def test_superspecial_endpoints_match(self, r, s):
        g = r + s
        m = build_superspecial_unitary(3, 2 * 2 * g + 2, -1, r, s)
        rep = endpoint_admissibility(newton_polygon(m), hodge_polygon(m))
        assert rep.t_newton == rep.t_hodge == g
        assert rep.endpoints_equal and rep.newton_at_or_above

    def test_failing_case(self):
        np_ = NewtonPolygon(((Fraction(0), 2),))
        hp = HodgePolygon(((1, 2),))
        rep = endpoint_admissibility(np_, hp)
        assert not rep.newton_at_or_above and not rep.endpoints_equal

    def test_height_mismatch(self):
        with pytest.raises(ValidationError):
            endpoint_admissibility(
                NewtonPolygon(((Fraction(0), 2),)), HodgePolygon(((0, 3),))
            )


SIGNATURES_UP_TO_4 = [(r, g - r) for g in (2, 4) for r in range(g + 1)]


class TestDeterminantCondition:
    @pytest.mark.parametrize("r, s", [(1, 1), (2, 0), (0, 2), (1, 3), (2, 2), (4, 0), (3, 1), (0, 4)])
    def test_accepts_canonical_matrix(self, r, s):
        ctx = witt_ring(3, 2, 1)
        L = canonical_lie_action(ctx, -1, r, s)
        assert determinant_condition(r, s, -1, L)

    def test_rejects_wrong_multiplicities(self):
        ctx = witt_ring(3, 2, 1)
        for r, s in SIGNATURES_UP_TO_4:
            g = r + s
            for r2 in range(g + 1):
                s2 = g - r2
                L = canonical_lie_action(ctx, -1, r2, s2)
                assert determinant_condition(r, s, -1, L) == ((r2, s2) == (r, s))

    def test_conjugation_invariance(self):
        # 10 conjugates at (1, 1), then 3 at every other signature with g <= 4
        rng = random.Random(11)
        ctx = witt_ring(3, 2, 1)
        for r, s in [(1, 1)] * 10 + [rs for rs in SIGNATURES_UP_TO_4 if rs != (1, 1)] * 3:
            g = r + s
            while True:
                P = linalg.freeze(
                    [
                        [ctx.el((rng.randrange(3), rng.randrange(3))) for _ in range(g)]
                        for _ in range(g)
                    ]
                )
                if linalg.is_invertible(P):
                    break
            L = canonical_lie_action(ctx, -1, r, s)
            Lc = linalg.mat_mul(linalg.mat_mul(inverse(P, ctx.one(), ctx.zero()), L), P)
            assert determinant_condition(r, s, -1, Lc)

    def test_non_square_rejected(self):
        ctx = witt_ring(3, 2, 1)
        with pytest.raises(ValidationError):
            determinant_condition(1, 1, -1, ((ctx.one(),),))


class TestJsonRoundTrip:
    def test_round_trip(self):
        # det F^2 = 3^4 is not censored at n = 6, so the module is read at
        # the spec's own level
        m = build_superspecial_unitary(3, 6, -1, 1, 1)
        np_, m2 = newton_polygon_with_retry(module_to_dict(m))
        assert m2 == m
        assert np_.slopes == ((Fraction(1, 2), 4),)

    def test_retry_bumps_truncation(self):
        # exact integer data declared at a hopeless truncation level
        d = {
            "p": 3,
            "s": 2,
            "n": 1,
            "rank": 2,
            "F": [[0, 1], [-3, 0]],
            "V": [[0, -1], [3, 0]],
        }
        np_, m = newton_polygon_with_retry(d)
        assert np_.slopes == ((Fraction(1, 2), 2),)
        assert m.ring.n > 1
        # the integer entries, read once, are mapped into the ring of the level used
        a_half = build_a_half(m.ring)
        assert (m.f_matrix, m.v_matrix, m.polarization) == (a_half.f_matrix, a_half.v_matrix, None)

    @pytest.mark.parametrize("rank", [31, 32, 40])
    def test_default_truncation_starts_at_most_at_the_cap(self, rank):
        # without "n" the start is 2*rank + 2, which passes the cap of 64 from rank 32 on
        ident = [[int(i == j) for j in range(rank)] for i in range(rank)]
        d = {"p": 3, "s": 2, "rank": rank, "F": ident, "V": [[3 * x for x in row] for row in ident]}
        np_, m = newton_polygon_with_retry(d)
        assert m.ring.n == 64
        assert np_.slopes == ((Fraction(0), rank),)

    @pytest.mark.parametrize("n", [65, 10**6, 10**9])
    def test_truncation_above_the_cap_is_refused(self, n):
        d = module_to_dict(build_a_half(witt_ring(3, 2, 2))) | {"n": n}
        with pytest.raises(ValidationError, match="<= 64"):
            newton_polygon_with_retry(d)
        with pytest.raises(ValidationError, match="<= 64"):
            witt_ring(3, 2, n)

    @pytest.mark.parametrize("n", [0, -1, None])
    def test_present_truncation_is_validated(self, n):
        # a present "n" of 0 is not read as absent
        with pytest.raises(ValidationError):
            newton_polygon_with_retry(module_to_dict(build_a_half(witt_ring(3, 2, 2))) | {"n": n})

    def test_retry_gives_up_on_genuinely_censored_input(self):
        ring = witt_ring(3, 1, 2)
        zero, one = ring.zero(), ring.one()
        m = DieudonneModule(
            ring=ring,
            f_matrix=((zero, zero), (zero, zero)),
            v_matrix=((one, zero), (zero, one)),
        )
        with pytest.raises(InsufficientPrecisionError):
            newton_polygon_with_retry(module_to_dict(m))


# ---------------------------------------------------------------------------
# the earlier paths, kept as references for the rewritten ones


def _bivar_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            v = out.get(key)
            out[key] = c1 * c2 if v is None else v + c1 * c2
    return {k: v for k, v in out.items() if not v.is_zero()}


def determinant_condition_bivariate(r, s, alpha, matrix):
    """det(X1 I + X2 L) and (X1 - u X2)^r (X1 + u X2)^s, both expanded as
    dicts {(deg X1, deg X2): coefficient} and compared."""
    g = r + s
    ring = matrix[0][0].ring
    u = hensel_sqrt(ring, alpha)
    one = ring.one()
    lhs = {}
    for k, c in enumerate(linalg.charpoly(matrix, one)):  # c[k] = (-1)^k E_k
        ek = c if k % 2 == 0 else -c
        if not ek.is_zero():
            lhs[(g - k, k)] = ek
    rhs = {(0, 0): one}
    for _ in range(r):
        rhs = _bivar_mul(rhs, {(1, 0): one, (0, 1): -u})
    for _ in range(s):
        rhs = _bivar_mul(rhs, {(1, 0): one, (0, 1): u})
    return lhs == rhs


def induced_quotient_action_by_columns(m):
    """The action on M/VM, each quotient column of J mod p reduced in turn
    by the echelon columns of V mod p."""
    vbar = linalg.mat_map(m.ring.reduce, m.v_matrix)
    cols, pivots = linalg.rref(linalg.transpose(vbar))
    ech = dict(zip(pivots, cols))
    quot = [i for i in range(m.rank) if i not in ech]
    jbar = linalg.mat_map(m.ring.reduce, m.ok_action)
    out = []
    for i in quot:
        v = [row[i] for row in jbar]
        for r, col in ech.items():
            f = v[r]
            if not f.is_zero():
                v = [x - f * y for x, y in zip(v, col)]
        out.append(tuple(v[r] for r in quot))
    return linalg.freeze(zip(*out))


def _random_matrix(rng, ring, rows, cols):
    return linalg.freeze(
        [[ring.el(tuple(rng.randrange(ring.pn) for _ in range(ring.s))) for _ in range(cols)] for _ in range(rows)]
    )


def _random_invertible(rng, ring, g):
    while True:
        P = _random_matrix(rng, ring, g, g)
        if linalg.is_invertible(P):
            return P


class TestAgainstEarlierPaths:
    @pytest.mark.parametrize("g", [2, 4])
    def test_determinant_condition_matches_bivariate_expansion(self, g):
        # random matrices, and conjugates of triangular ones with +-u on the
        # diagonal and random entries above it, which are mostly not
        # diagonalisable and satisfy the condition for their own (r, s)
        rng = random.Random(100 + g)
        ctx = witt_ring(3, 2, 1)
        u = hensel_sqrt(ctx, -1)
        accepted = set()
        for trial in range(40):
            if trial % 2:
                L = _random_matrix(rng, ctx, g, g)
            else:
                T = _random_matrix(rng, ctx, g, g)
                diag = [rng.choice((u, -u)) for _ in range(g)]
                T = linalg.freeze(
                    [[diag[i] if i == j else T[i][j] if j > i else ctx.zero() for j in range(g)] for i in range(g)]
                )
                P = _random_invertible(rng, ctx, g)
                L = linalg.mat_mul(linalg.mat_mul(inverse(P, ctx.one(), ctx.zero()), T), P)
            for r in range(g + 1):
                got = determinant_condition(r, g - r, -1, L)
                assert got == determinant_condition_bivariate(r, g - r, -1, L)
                if got:
                    accepted.add(r)
        assert accepted == set(range(g + 1))

    def test_non_diagonalisable_jordan_block(self):
        ctx = witt_ring(3, 2, 1)
        u = hensel_sqrt(ctx, -1)
        J = ((-u, ctx.one()), (ctx.zero(), -u))
        for r in range(3):
            assert determinant_condition(r, 2 - r, -1, J) == determinant_condition_bivariate(r, 2 - r, -1, J) == (r == 2)

    @pytest.mark.parametrize("p, s, n", [(3, 2, 2), (3, 1, 3), (5, 2, 1)])
    def test_quotient_action_matches_column_reduction(self, p, s, n):
        # random V = X Y + p Z, so V mod p has rank at most k, and random J;
        # the constructor checks shapes and that J comes with an alpha, no axioms
        rng = random.Random(p * 100 + s * 10 + n)
        ring = witt_ring(p, s, n)
        for _ in range(12):
            h = rng.randrange(1, 7)
            k = rng.randrange(h + 1)
            X, Y = _random_matrix(rng, ring, h, k), _random_matrix(rng, ring, k, h)
            Z = _random_matrix(rng, ring, h, h)
            V = linalg.freeze(
                [[sum((X[i][t] * Y[t][j] for t in range(k)), ring.el(p) * Z[i][j]) for j in range(h)] for i in range(h)]
            )
            m = DieudonneModule(ring=ring, f_matrix=V, v_matrix=V, ok_action=_random_matrix(rng, ring, h, h), alpha=-1)
            assert m.induced_quotient_action == induced_quotient_action_by_columns(m)
            quot, P = m.quotient_projection
            ctx = ring.residue
            # P is the identity on the quotient basis and kills V M mod p
            assert [[row[i] for i in quot] for row in P] == [
                [ctx.one() if a == b else ctx.zero() for b in range(len(quot))] for a in range(len(quot))
            ]
            vbar = linalg.mat_map(ring.reduce, V)
            assert all(x.is_zero() for row in linalg.mat_mul(P, vbar) for x in row)
