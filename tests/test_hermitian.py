import pytest

from ssp import linalg
from ssp.dieudonne import DieudonneModule, build_a_half, build_superspecial_unitary
from ssp.errors import BudgetExceededError, ValidationError
from ssp.hermitian import (
    HermitianQuotient,
    automorphism_group_bruteforce,
    automorphism_group_coded,
    cotangent_dual,
    pairing_well_defined,
    reduce_pairing,
    similitude_factor,
)
from ssp.witt import witt_ring


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
            ring=m.ring, rank=2, f_matrix=m.f_matrix, v_matrix=m.v_matrix
        )
        with pytest.raises(ValidationError, match="polarization required"):
            reduce_pairing(bare)

    def test_f_plus_v_hypothesis_enforced(self):
        ring = witt_ring(3, 1, 3)
        one, zero, p = ring.one(), ring.zero(), ring.el(3)
        # ordinary toy: F + V != 0
        m = DieudonneModule(
            ring=ring,
            rank=2,
            f_matrix=((one, zero), (zero, p)),
            v_matrix=((p, zero), (zero, one)),
            polarization=((zero, one), (-one, zero)),
        )
        with pytest.raises(ValidationError, match="F \\+ V"):
            reduce_pairing(m)

    @pytest.mark.parametrize("r, s", [(1, 1), (2, 2), (2, 0)])
    def test_well_definedness_oracle(self, r, s):
        m = build_superspecial_unitary(3, 3, -1, r, s)
        h = reduce_pairing(m)
        assert pairing_well_defined(m, h, trials=20, seed=1) == 0

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
        ident = linalg.identity_matrix(2, h.ctx.one(), h.ctx.zero())
        assert ident in elements
        assert similitude_factor(h, ident) == h.ctx.one()

    def test_every_element_is_a_similitude(self):
        h = reduce_pairing(build_superspecial_unitary(3, 2, -1, 1, 1))
        _, elements = automorphism_group_bruteforce(h)
        for X in elements:
            c = similitude_factor(h, X)
            assert c.in_prime_subfield() and not c.is_zero()

    def test_order_needs_no_decoding(self, monkeypatch, capsys):
        # `pairing` and `verify` read the order alone, from the coded list
        import json

        from ssp import verify
        from ssp.cli import main
        from ssp.ftables import FieldTable

        def refuse(self, Ms):
            raise AssertionError("decoded an automorphism list")

        monkeypatch.setattr(FieldTable, "mats_decode", refuse)
        h = reduce_pairing(build_superspecial_unitary(3, 2, -1, 2, 2))
        assert len(automorphism_group_coded(h)) == 18432
        assert verify._aut(2, 2)[0]
        assert main(["pairing", "--p", "3", "--alpha", "-1", "--r", "2", "--s", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["aut_order_enumerated"]["value"] == "18432"

    def test_budget_guard(self, monkeypatch):
        h = reduce_pairing(build_superspecial_unitary(3, 2, -1, 1, 1))
        monkeypatch.setenv("SSP_MAX_ENUM", "10")
        with pytest.raises(BudgetExceededError):
            automorphism_group_bruteforce(h)


class TestCotangentDual:
    def test_double_dual_is_identity(self):
        h = reduce_pairing(build_superspecial_unitary(3, 2, -1, 1, 1))
        assert cotangent_dual(cotangent_dual(h)) == h

    def test_dual_preserves_grading_and_aut_order(self):
        h = reduce_pairing(build_superspecial_unitary(3, 2, -1, 1, 1))
        hd = cotangent_dual(h)
        assert hd.grading == h.grading
        assert automorphism_group_bruteforce(hd)[0] == automorphism_group_bruteforce(h)[0] == 32

    def test_dual_of_ungraded(self):
        h = reduce_pairing(build_a_half(witt_ring(3, 2, 2)))
        hd = cotangent_dual(h)
        assert automorphism_group_bruteforce(hd)[0] == automorphism_group_bruteforce(h)[0] == 8


class TestQuotientType:
    def test_degenerate_gram_rejected(self):
        ctx = witt_ring(3, 2, 1)
        with pytest.raises(ValidationError, match="degenerate|alternating"):
            HermitianQuotient(ctx=ctx, dim=1, gram=((ctx.zero(),),))

    def test_non_alternating_rejected(self):
        ctx = witt_ring(3, 2, 1)
        t = ctx.gen()  # sigma(t) = -t, so gram [t] fails gram = sigma(gram)^T
        with pytest.raises(ValidationError, match="alternating"):
            HermitianQuotient(ctx=ctx, dim=1, gram=((t,),))
