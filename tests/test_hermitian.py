import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from ssp import linalg
from ssp.dieudonne import (
    DieudonneModule,
    build_a_half,
    build_superspecial_unitary,
    check_axioms,
)
from ssp.errors import BudgetExceededError, ValidationError
from ssp.hermitian import (
    HermitianQuotient,
    automorphism_group_bruteforce,
    automorphism_group_order,
    pairing_well_defined,
    reduce_pairing,
)
from ssp.witt import witt_ring

from helpers import inverse


def _per_trial_oracle(m, h, trials, seed):
    """pairing_well_defined as one loop over the trials: each draws
    positions i, j in the quotient basis and vectors a and b, builds
    x = e_quot[i] + F sigma(a) and y = e_quot[j] + V sigma^{-1}(b) entry
    by entry, and compares e(x, F y) mod p with h.gram[i][j]."""
    rng = random.Random(seed)
    ring = m.ring
    quot, _ = m.quotient_projection

    def unit(k):
        return tuple(ring.one() if t == k else ring.zero() for t in range(m.rank))

    def apply(M, twist, vec):
        """F = M o sigma or V = M o sigma^{-1} on one vector."""
        return tuple(linalg.dot(row, tuple(twist(c) for c in vec)) for row in M)

    disagreements = 0
    for _ in range(trials):
        i = rng.randrange(len(quot))
        j = rng.randrange(len(quot))
        a = tuple(ring.el(rng.randrange(ring.pn)) for _ in range(m.rank))
        b = tuple(ring.el(rng.randrange(ring.pn)) for _ in range(m.rank))
        x = tuple(u + v for u, v in zip(unit(quot[i]), apply(m.f_matrix, ring.sigma, a)))
        y = tuple(u + v for u, v in zip(unit(quot[j]), apply(m.v_matrix, ring.sigma_inv, b)))
        fy = apply(m.f_matrix, ring.sigma, y)
        if ring.reduce(linalg.dot(x, tuple(linalg.dot(row, fy) for row in m.polarization))) != h.gram[i][j]:
            disagreements += 1
    return disagreements


def similitude_factor(h, X):
    """The c with X* gram X = c gram, checked entry by entry; raises if X
    is not an automorphism.  The per-element oracle of the enumerated
    automorphism list."""
    lhs = linalg.mat_mul(linalg.mat_mul(linalg.transpose(linalg.mat_map(h.ctx.sigma, X)), h.gram), X)
    i, j = next((i, j) for i in range(h.dim) for j in range(h.dim) if not h.gram[i][j].is_zero())
    c = lhs[i][j] * h.gram[i][j].inv()
    if lhs != _scaled(c, h.gram) or any(c.coeffs[1:]) or c.is_zero():
        raise ValidationError("matrix is not a similitude of the pairing")
    return c


def _scaled(c, A):
    return tuple(tuple(c * a for a in row) for row in A)


def _restricted_quotient(m):
    """reduce(E F) restricted to the basis of quotient_projection, as a
    HermitianQuotient where it is a valid pairing and otherwise as a
    stand-in carrying only dim and gram."""
    quot, _ = m.quotient_projection
    full = linalg.mat_map(m.ring.reduce, linalg.mat_mul(m.polarization, m.f_matrix))
    gram = linalg.freeze([[full[i][j] for j in quot] for i in quot])
    try:
        return HermitianQuotient(ctx=m.ring.residue, gram=gram)
    except ValidationError:
        return SimpleNamespace(dim=len(quot), gram=gram)


def _random_module(rng, p, s, n, rank):
    """F, V and E with random entries (none of the axioms hold), so the
    representatives are not constants and sigma moves them."""
    ring = witt_ring(p, s, n)

    def matrix():
        return linalg.freeze(
            [[ring.el(tuple(rng.randrange(ring.pn) for _ in range(s))) for _ in range(rank)] for _ in range(rank)]
        )

    V = matrix()
    # V mod p of rank below `rank`, so M/VM is not zero
    V = linalg.freeze([[ring.el(p) * x for x in row] if i == 0 else row for i, row in enumerate(V)])
    return DieudonneModule(ring=ring, f_matrix=matrix(), v_matrix=V, polarization=matrix())


def _conjugated(rng, m):
    """m in the basis of the columns of a random unitriangular C with
    non-constant entries: F' = C^-1 F sigma(C), V' = C^-1 V sigma^-1(C),
    E' = C^T E C.  A polarized module again, on which sigma moves the
    representatives, so the oracle counts 0 only if it twists each
    product as e(x, F y) requires."""
    ring, h = m.ring, m.rank
    one, zero = ring.one(), ring.zero()
    C = linalg.freeze(
        [[one if i == j else ring.el(tuple(rng.randrange(ring.pn) for _ in range(ring.s))) if i < j else zero
          for j in range(h)] for i in range(h)]
    )
    Ci = inverse(C, one, zero)
    return DieudonneModule(
        ring=ring,
        f_matrix=linalg.mat_mul(linalg.mat_mul(Ci, m.f_matrix), m.sigma_mat(C)),
        v_matrix=linalg.mat_mul(linalg.mat_mul(Ci, m.v_matrix), m.sigma_inv_mat(C)),
        polarization=linalg.mat_mul(linalg.mat_mul(linalg.transpose(C), m.polarization), C),
    )


def _a_half_squared(p, s, n):
    """Two copies of the slope-1/2 module of build_a_half, over
    W_n(F_{p^s}) for any s."""
    ring = witt_ring(p, s, n)
    one, zero, q = ring.one(), ring.zero(), ring.el(p)

    def blocks(a, b):
        return ((zero, a, zero, zero), (b, zero, zero, zero), (zero, zero, zero, a), (zero, zero, b, zero))

    return DieudonneModule(
        ring=ring, f_matrix=blocks(one, -q), v_matrix=blocks(-one, q),
        polarization=blocks(one, -one),
    )


class TestReducePairing:
    def test_a_half_gives_negated_norm_form(self):
        m = build_a_half(witt_ring(3, 2, 2))
        h = reduce_pairing(m)
        assert h.dim == 1
        # <y, y'> = -y sigma(y') on the 1-dim quotient
        assert h.gram == ((h.ctx.el(-1),),)

    def test_superspecial_block_structure(self):
        m = build_superspecial_unitary(3, 2, -1, 1, 1)
        h = reduce_pairing(m)
        assert h.dim == 2
        assert h.grading == (1, 1)
        assert not h.gram[0][0].is_zero() and not h.gram[1][1].is_zero()
        assert h.gram[0][1].is_zero() and h.gram[1][0].is_zero()

    def test_missing_polarization(self):
        m = build_a_half(witt_ring(3, 2, 2))
        bare = DieudonneModule(
            ring=m.ring, f_matrix=m.f_matrix, v_matrix=m.v_matrix
        )
        with pytest.raises(ValidationError, match="polarization required"):
            reduce_pairing(bare)

    def test_f_plus_v_hypothesis_enforced(self):
        ring = witt_ring(3, 1, 3)
        one, zero, p = ring.one(), ring.zero(), ring.el(3)
        # ordinary toy: F + V != 0
        m = DieudonneModule(
            ring=ring,
            f_matrix=((one, zero), (zero, p)),
            v_matrix=((p, zero), (zero, one)),
            polarization=((zero, one), (-one, zero)),
        )
        with pytest.raises(ValidationError, match="F \\+ V"):
            reduce_pairing(m)

    @pytest.mark.parametrize(
        "r, s, n, seed",
        [(1, 1, 3, 1), (2, 2, 3, 1), (2, 0, 3, 1), (2, 2, 2, 0)],
        ids=["1-1", "2-2", "2-0", "2-2-n2-seed0"],
    )
    def test_well_definedness_oracle(self, r, s, n, seed):
        m = build_superspecial_unitary(3, n, -1, r, s)
        h = reduce_pairing(m)
        assert pairing_well_defined(m, h, trials=20, seed=seed) == 0

    def test_oracle_without_polarization_is_a_validation_error(self):
        m = build_superspecial_unitary(3, 2, -1, 1, 1)
        h = reduce_pairing(m)
        bare = DieudonneModule(ring=m.ring, f_matrix=m.f_matrix, v_matrix=m.v_matrix)
        for trials in (0, 20):
            with pytest.raises(ValidationError, match="polarization required"):
                pairing_well_defined(bare, h, trials=trials, seed=1)

    def test_oracle_with_no_trials_counts_nothing(self):
        m = build_superspecial_unitary(3, 2, -1, 1, 1)
        assert pairing_well_defined(m, reduce_pairing(m), trials=0, seed=1) == 0

    def test_oracle_matches_per_trial_loop(self):
        # the three stacked products count what one loop over the trials
        # counts, draw for draw: on polarized modules, some in a basis where
        # sigma moves the representatives (0), and on a model with an
        # incompatible polarization and random modules (both non-zero).
        # Each fixture is checked against its own restricted Gram
        m = build_superspecial_unitary(5, 3, -2, 2, 2)
        ring = m.ring
        E = linalg.freeze(
            [[ring.el((i * j + 1, i + 2 * j)) if i < j else ring.zero() for j in range(m.rank)] for i in range(m.rank)]
        )
        skew = linalg.mat_sub(E, linalg.transpose(E))
        twisted = DieudonneModule(
            ring=ring, f_matrix=m.f_matrix, v_matrix=m.v_matrix, polarization=skew
        )
        rng = random.Random(5)
        models = [m] + [_conjugated(rng, model) for model in (m, _a_half_squared(3, 3, 3), _a_half_squared(5, 1, 2))]
        assert all(check_axioms(model).ok for model in models)
        broken = [twisted] + [
            _random_module(rng, p, s, n, rank) for p, s, n, rank in ((3, 2, 3, 4), (5, 3, 2, 3), (7, 1, 2, 5))
        ]
        counts = []
        for fixture in models + broken:
            h = _restricted_quotient(fixture)
            row = [pairing_well_defined(fixture, h, trials=12, seed=seed) for seed in range(4)]
            assert row == [_per_trial_oracle(fixture, h, 12, seed) for seed in range(4)]
            counts.append(row)
        assert counts[: len(models)] == [[0] * 4] * len(models)
        assert all(any(row) for row in counts[len(models) :])

    def test_one_echelon_of_v_mod_p_per_pairing_op(self, monkeypatch):
        # the build, reduce_pairing and the oracle share the (quot, P) kept
        # on the module, so V mod p is put into echelon form once; the only
        # other elimination is the rank of the Gram in HermitianQuotient,
        # since the quotient basis is already graded.  The induced action,
        # kept on the module too, reduces J mod p once, and E F, which
        # reduce_pairing and the oracle both read, is formed once
        calls, maps, products = [], [], []
        rref, mat_map, mat_mul = linalg.rref, linalg.mat_map, linalg.mat_mul

        def counting(rows):
            calls.append(linalg.freeze(rows))
            return rref(rows)

        def recording(f, A):
            maps.append((f, A))
            return mat_map(f, A)

        monkeypatch.setattr(linalg, "rref", counting)
        monkeypatch.setattr(linalg, "mat_map", recording)
        monkeypatch.setattr(linalg, "mat_mul", lambda A, B: products.append((A, B)) or mat_mul(A, B))
        m = build_superspecial_unitary(7, 3, -1, 4, 4)
        h = reduce_pairing(m)
        assert pairing_well_defined(m, h, trials=20, seed=0) == 0
        vbar = linalg.transpose(mat_map(m.ring.reduce, m.v_matrix))
        assert calls == [vbar, h.gram]
        assert maps.count((m.ring.reduce, m.ok_action)) == 1
        assert products.count((m.polarization, m.f_matrix)) == 1

    def test_oracle_reads_the_gram_it_is_given(self):
        # a valid pairing that is not the one of the module: twice its Gram
        for p, alpha, r, s in [(3, -1, 1, 1), (5, -2, 2, 2)]:
            m = build_superspecial_unitary(p, 3, alpha, r, s)
            h = reduce_pairing(m)
            doubled = HermitianQuotient(
                ctx=h.ctx, gram=_scaled(h.ctx.el(2), h.gram), grading=h.grading
            )
            assert pairing_well_defined(m, h, trials=20, seed=0) == 0
            assert pairing_well_defined(m, doubled, trials=20, seed=0) > 0

    def test_oracle_refuses_a_pairing_of_another_dimension(self):
        m = build_superspecial_unitary(3, 2, -1, 1, 1)
        other = reduce_pairing(build_superspecial_unitary(3, 2, -1, 2, 2))
        for trials in (0, 20):
            with pytest.raises(ValidationError, match="dimension"):
                pairing_well_defined(m, other, trials=trials, seed=0)

    def test_refuses_a_quotient_basis_not_ordered_minus_then_plus(self):
        # the (1, 1) model with its two 2 x 2 blocks swapped: a valid module
        # whose induced action is diag(+u, -u), which is not re-based
        m = build_superspecial_unitary(3, 3, -1, 1, 1)
        order = (2, 3, 0, 1)

        def swap(M):
            return linalg.freeze([[M[i][j] for j in order] for i in order])

        swapped = replace(
            m, f_matrix=swap(m.f_matrix), v_matrix=swap(m.v_matrix),
            polarization=swap(m.polarization), ok_action=swap(m.ok_action),
        )
        assert check_axioms(swapped).ok
        with pytest.raises(ValidationError, match="not diag"):
            reduce_pairing(swapped)

    @pytest.mark.parametrize(
        "p, alpha, r, s, gram",
        [
            (3, -1, 1, 1, [[(2, 0), (0, 0)], [(0, 0), (2, 0)]]),
            (
                3, -1, 2, 2,
                [
                    [(2, 0), (0, 0), (0, 0), (0, 0)],
                    [(0, 0), (2, 0), (0, 0), (0, 0)],
                    [(0, 0), (0, 0), (2, 0), (0, 0)],
                    [(0, 0), (0, 0), (0, 0), (2, 0)],
                ],
            ),
            (
                5, -2, 3, 1,
                [
                    [(4, 0), (0, 0), (0, 0), (0, 0)],
                    [(0, 0), (4, 0), (0, 0), (0, 0)],
                    [(0, 0), (0, 0), (4, 0), (0, 0)],
                    [(0, 0), (0, 0), (0, 0), (4, 0)],
                ],
            ),
            (
                7, -1, 4, 4,
                [
                    [(6, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)],
                    [(0, 0), (6, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)],
                    [(0, 0), (0, 0), (6, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)],
                    [(0, 0), (0, 0), (0, 0), (6, 0), (0, 0), (0, 0), (0, 0), (0, 0)],
                    [(0, 0), (0, 0), (0, 0), (0, 0), (6, 0), (0, 0), (0, 0), (0, 0)],
                    [(0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (6, 0), (0, 0), (0, 0)],
                    [(0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (6, 0), (0, 0)],
                    [(0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (6, 0)],
                ],
            ),
        ],
    )
    def test_golden_grams(self, p, alpha, r, s, gram):
        h = reduce_pairing(build_superspecial_unitary(p, 3, alpha, r, s))
        assert [[x.coeffs for x in row] for row in h.gram] == gram
        assert h.grading == (r, s)

    def test_sigma_alternating_exactly(self):
        for r, s in [(1, 1), (2, 2)]:
            h = reduce_pairing(build_superspecial_unitary(3, 2, -1, r, s))
            conj_t = linalg.transpose(linalg.mat_map(h.ctx.sigma, h.gram))
            assert h.gram == conj_t


class TestAutomorphisms:
    def test_order_1_1_is_32(self):
        h = reduce_pairing(build_superspecial_unitary(3, 2, -1, 1, 1))
        order, elements = automorphism_group_bruteforce(h)
        assert order == 32 and len(elements) == 32

    def test_order_of_the_ungraded_a_half_is_8(self):
        h = reduce_pairing(build_a_half(witt_ring(3, 2, 2)))
        assert h.grading is None
        assert automorphism_group_bruteforce(h)[0] == 8

    def test_order_2_0_is_192(self):
        h = reduce_pairing(build_superspecial_unitary(3, 2, -1, 2, 0))
        order, _ = automorphism_group_bruteforce(h)
        assert order == 192

    def test_order_formula_across_feasible_parameters(self):
        from ssp.groups import order_gusplit

        for p, alpha, r, s in [(3, -1, 1, 1), (3, -1, 0, 2), (3, -1, 2, 2), (5, -2, 1, 1), (7, -1, 1, 1)]:
            h = reduce_pairing(build_superspecial_unitary(p, 2, alpha, r, s))
            assert automorphism_group_bruteforce(h)[0] == order_gusplit(r, s, p)

    def test_identity_member_with_unit_similitude(self):
        h = reduce_pairing(build_superspecial_unitary(3, 2, -1, 1, 1))
        _, elements = automorphism_group_bruteforce(h)
        ident = linalg.scalar_matrix(2, h.ctx.one(), h.ctx.zero())
        assert ident in elements
        assert similitude_factor(h, ident) == h.ctx.one()

    def test_every_element_is_a_similitude(self):
        h = reduce_pairing(build_superspecial_unitary(3, 2, -1, 1, 1))
        _, elements = automorphism_group_bruteforce(h)
        for X in elements:
            c = similitude_factor(h, X)
            assert not any(c.coeffs[1:]) and not c.is_zero()

    def test_order_needs_no_decoding(self, monkeypatch, capsys):
        # `pairing` and `verify` read the order alone, counted from the frames
        import json

        from ssp import verify
        from ssp.cli import main
        from ssp.ftables import FieldTable

        def refuse(self, Ms):
            raise AssertionError("decoded an automorphism list")

        monkeypatch.setattr(FieldTable, "mats_decode", refuse)
        h = reduce_pairing(build_superspecial_unitary(3, 2, -1, 2, 2))
        assert automorphism_group_order(h) == 18432
        assert verify._aut(2, 2)[0]
        assert main(["pairing", "--p", "3", "--alpha", "-1", "--r", "2", "--s", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["aut_order_enumerated"]["value"] == "18432"

    def test_budget_guard(self, monkeypatch):
        h = reduce_pairing(build_superspecial_unitary(3, 2, -1, 1, 1))
        monkeypatch.setenv("SSP_MAX_ENUM", "10")
        with pytest.raises(BudgetExceededError):
            automorphism_group_bruteforce(h)


class TestQuotientType:
    def test_non_square_gram_rejected(self):
        # dim is the number of rows, so a ragged Gram is refused
        ctx = witt_ring(3, 2, 1)
        with pytest.raises(ValidationError, match="wrong dimensions"):
            HermitianQuotient(ctx=ctx, gram=((ctx.one(), ctx.zero()),))

    def test_degenerate_gram_rejected(self):
        ctx = witt_ring(3, 2, 1)
        with pytest.raises(ValidationError, match="degenerate|alternating"):
            HermitianQuotient(ctx=ctx, gram=((ctx.zero(),),))

    def test_cross_block_entry_rejected(self):
        # sigma-alternating and perfect, but pairing the two eigenlines: for
        # the canonical action this is the pairing that is not skew-Hermitian
        ctx = witt_ring(3, 2, 1)
        one, zero = ctx.one(), ctx.zero()
        gram = ((zero, one), (one, zero))
        assert HermitianQuotient(ctx=ctx, gram=gram).grading is None
        with pytest.raises(ValidationError, match="not block diagonal"):
            HermitianQuotient(ctx=ctx, gram=gram, grading=(1, 1))

    def test_non_alternating_rejected(self):
        ctx = witt_ring(3, 2, 1)
        t = ctx.gen()  # sigma(t) = -t, so gram [t] fails gram = sigma(gram)^T
        with pytest.raises(ValidationError, match="alternating"):
            HermitianQuotient(ctx=ctx, gram=((t,),))
