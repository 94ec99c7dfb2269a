import dataclasses
import functools
import itertools
import operator
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssp import ftables, groups, linalg
from ssp.dieudonne import build_a_half, build_superspecial_unitary
from ssp.errors import BudgetExceededError, EnumBudget, FormulaInconsistencyError, ValidationError
from ssp.ftables import FieldTable, block_similitude_order, block_similitudes, field_table, similitude_frames
from ssp.gf import is_nonresidue
from ssp.groups import (
    GroupSpec,
    conjugacy_class_data,
    gl2_order_enumerated,
    gsp_order_enumerated,
    gusplit_group_elements,
    hyperbolic_pair_count,
    irrep_dim_bound,
    irrep_sum_bound,
    lemma_gp_check,
    order_gsp_mod,
    order_gusplit,
    order_su,
    order_u,
    p_regular_classes,
    su_group_elements,
    sylow_p_order,
    unitary_group_elements,
)
from ssp.hermitian import automorphism_group_bruteforce, automorphism_group_order, reduce_pairing
from ssp.linalg import rank
from ssp.witt import hensel_sqrt, witt_ring


def _trial_division(n):
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@pytest.mark.parametrize(
    "n",
    [1, 2, 12, 4096, 4099**2, 4099 * 4111, 2 * 3**4 * 4099**3 * 65537, 12289 * 40961, 8191 * (2**31 - 1)],
)
def test_factorize_matches_plain_trial_division(n):
    # factors past the unmetered divisors are found by the metered blocks
    assert groups.factorize(n) == _trial_division(n)


def _hyperbolic_pairs_by_loop(g, N):
    """The slow oracle: try all N^(4g) pairs (u, v) for <u, v> = 1."""
    one = 1 % N  # 1 = 0 in Z/1
    vectors = list(itertools.product(range(N), repeat=2 * g))
    return sum(
        1
        for u in vectors
        for v in vectors
        if sum(u[i] * v[g + i] - u[g + i] * v[i] for i in range(g)) % N == one
    )


class TestOrderFormulas:
    def test_frozen_values(self):
        assert order_su(2, 3) == 24
        assert order_u(3, 3) == 24192
        assert order_gusplit(2, 2, 3) == 18432
        assert order_u(1, 3) == 4
        assert order_gusplit(1, 1, 3) == 32
        assert order_gusplit(2, 0, 3) == 192
        assert order_gsp_mod(1, 3) == 48
        assert order_gsp_mod(2, 3) == 103680
        assert order_gsp_mod(1, 1) == 1

    def test_trivial_conventions(self):
        for p in (3, 5):
            assert order_su(0, p) == order_su(1, p) == 1
            assert order_u(0, p) == 1

    def test_gusplit_is_ur_us_p_minus_1(self):
        for p in (3, 5, 7):
            for r in range(4):
                for s in range(4):
                    assert order_gusplit(r, s, p) == order_u(r, p) * order_u(s, p) * (p - 1)

    def test_group_spec_dispatch(self):
        assert GroupSpec("gusplit", (1, 1, 3)).order() == 32
        assert GroupSpec("su", (2, 3)).order() == 24
        assert GroupSpec("gsp", (2, 3)).order() == 103680
        with pytest.raises(ValidationError):
            GroupSpec("nope", (1,)).order()


class TestEnumerationOracles:
    @pytest.mark.parametrize("t, p", [(0, 3), (1, 3), (2, 3), (1, 5), (2, 5), (3, 3)])
    def test_su_and_u_vs_enumeration(self, t, p):
        assert len(unitary_group_elements(t, p)) == order_u(t, p)
        assert len(su_group_elements(t, p)) == order_su(t, p)

    @pytest.mark.parametrize("r, s, p", [(1, 1, 3), (2, 0, 3), (0, 2, 3), (1, 1, 5), (2, 2, 3)])
    def test_gusplit_vs_enumeration(self, r, s, p):
        assert len(gusplit_group_elements(r, s, p)) == order_gusplit(r, s, p)

    def test_gu_vs_enumeration(self):
        # GU_t = gusplit(t, 0)
        gu = GroupSpec("gu", (2, 3))
        assert len(gusplit_group_elements(2, 0, 3)) == gu.order() == gu.enumerated_order() == 192

    def test_gsp_1_3_vs_gl2(self):
        assert gl2_order_enumerated(3) == order_gsp_mod(1, 3) == 48
        # the quartic GL_2 count cross-checks the g = 1 pair count
        for N in range(1, 21):
            assert gl2_order_enumerated(N) == gsp_order_enumerated(1, N) == order_gsp_mod(1, N), N

    def test_gsp_hyperbolic_recursion(self):
        assert hyperbolic_pair_count(1, 3, EnumBudget("hyperbolic_pair_count")) == (3**2 - 1) * 3
        assert gsp_order_enumerated(1, 3) == order_gsp_mod(1, 3)
        assert gsp_order_enumerated(2, 3) == order_gsp_mod(2, 3) == 103680

    @pytest.mark.parametrize("g, N", [(2, 4), (2, 1), (3, 2), (1, 4), (1, 1)])
    def test_gsp_oracle_at_composite_and_unit_level(self, g, N):
        # #GSp = #Sp * #(Z/N)^x, not #Sp * (N - 1); in Z/1 the pairing value 1 is 0
        assert GroupSpec("gsp", (g, N)).enumerated_order() == order_gsp_mod(g, N)

    def test_gsp_oracles_charge_their_full_count_first(self, monkeypatch):
        monkeypatch.setenv("SSP_MAX_ENUM", "624")
        with pytest.raises(BudgetExceededError, match="gl2_order_enumerated reached 625 "):
            gl2_order_enumerated(5)
        # 3^2 pairs (a, y) of half-vectors and a sum over 3 values
        monkeypatch.setenv("SSP_MAX_ENUM", "11")
        with pytest.raises(BudgetExceededError, match="hyperbolic_pair_count reached 12 "):
            hyperbolic_pair_count(1, 3, EnumBudget("hyperbolic_pair_count"))
        # 3 units + (3^2 + 3) + (3^4 + 3) pair steps
        monkeypatch.setenv("SSP_MAX_ENUM", "98")
        with pytest.raises(BudgetExceededError, match="gsp_order_enumerated would reach 99 "):
            gsp_order_enumerated(2, 3)
        monkeypatch.setenv("SSP_MAX_ENUM", "99")
        assert gsp_order_enumerated(2, 3) == order_gsp_mod(2, 3)

    @pytest.mark.parametrize(
        "g, N", [(1, 1), (1, 3), (1, 4), (1, 5), (2, 1), (2, 3), (2, 4), (3, 2), (1, 7), (1, 11), (2, 5)]
    )
    def test_hyperbolic_pairs_match_the_quadratic_loop(self, g, N):
        assert hyperbolic_pair_count(g, N, EnumBudget("hyperbolic_pair_count")) == _hyperbolic_pairs_by_loop(g, N)

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("SSP_MAX_ENUM", "100")
        with pytest.raises(BudgetExceededError):
            unitary_group_elements(3, 5)

    def test_non_prime_p_rejected(self):
        for p in (4, -3, 1):
            for family, params in (("su", (2, p)), ("u", (2, p)), ("gu", (2, p)), ("gusplit", (1, 1, p))):
                with pytest.raises(ValidationError, match="not prime"):
                    GroupSpec(family, params).order()
            with pytest.raises(ValidationError):
                unitary_group_elements(2, p)
            with pytest.raises(ValidationError):
                gusplit_group_elements(1, 1, p)


def _filter_oracle(table, gram, similitudes):
    """The slow oracle: filter all q^(t^2) coded t x t matrices in
    row-major order, keeping X with X* G X = c G."""
    t = len(gram)
    scaled = {table.scale(c, gram): c for c in similitudes}
    buckets = {c: [] for c in similitudes}
    for entries in itertools.product(range(table.q), repeat=t * t):
        X = tuple(entries[k * t : (k + 1) * t] for k in range(t))
        c = scaled.get(table.mat_mul(table.mat_mul(table.conj_transpose(X), gram), X))
        if c is not None:
            buckets[c].append(X)
    return buckets


def _frames(table, gram, similitudes):
    return similitude_frames(table, gram, similitudes, EnumBudget("test"))


class TestSimilitudeFrames:
    """The column-by-column enumerator returns exactly the lists, in the
    same order, that the row-major filter gives."""

    @pytest.mark.parametrize("p", [3, 5])
    def test_u2_matches_filter(self, p):
        table = field_table(p)
        oracle = _filter_oracle(table, table.identity(2), (1,))
        assert _frames(table, table.identity(2), (1,)) == oracle
        assert unitary_group_elements(2, p) == oracle[1]

    def test_gusplit_2_0_3_matches_filter(self):
        table = field_table(3)
        oracle = _filter_oracle(table, table.identity(2), table.fp_units)
        assert _frames(table, table.identity(2), table.fp_units) == oracle
        assert gusplit_group_elements(2, 0, 3) == [X for c in table.fp_units for X in oracle[c]]

    @pytest.mark.parametrize("p, alpha, r, s", [(3, -1, 1, 1), (3, -1, 2, 2), (5, -2, 1, 1)])
    def test_reduced_pairing_blocks_match_filter(self, p, alpha, r, s):
        h = reduce_pairing(build_superspecial_unitary(p, 2, alpha, r, s))
        table = field_table(p, 2)
        for block in h.blocks():
            gram = table.mat_encode(block)
            assert _frames(table, gram, table.fp_units) == _filter_oracle(table, gram, table.fp_units)

    def test_ungraded_a_half_quotient_matches_filter(self):
        h = reduce_pairing(build_a_half(witt_ring(3, 2, 2)))
        table = field_table(3, 2)
        gram = table.mat_encode(h.gram)
        assert _frames(table, gram, table.fp_units) == _filter_oracle(table, gram, table.fp_units)

    def test_hyperbolic_plane_matches_filter(self):
        # zero diagonal: every column is drawn from the isotropic vectors
        table = field_table(3)
        gram = ((0, 1), (1, 0))
        assert _frames(table, gram, table.fp_units) == _filter_oracle(table, gram, table.fp_units)

    def test_non_hermitian_gram_rejected(self):
        table = field_table(3)
        with pytest.raises(ValidationError, match="Hermitian"):
            _frames(table, ((0, 1), (2, 0)), table.fp_units)

    def test_budget_counts_candidates_deterministically(self, monkeypatch):
        # U_2(F_9): 81 vectors scanned, then each of the 24 unit vectors
        # filters the 24 unit vectors for the second column
        table = field_table(3)
        for _ in range(2):
            meter = EnumBudget("test")
            similitude_frames(table, table.identity(2), (1,), meter)
            assert meter.count == 81 + 24 * 24
        monkeypatch.setenv("SSP_MAX_ENUM", str(81 + 24 * 24))
        unitary_group_elements(2, 3)
        monkeypatch.setenv("SSP_MAX_ENUM", "80")
        with pytest.raises(BudgetExceededError, match="test reached 81 candidates"):
            similitude_frames(table, table.identity(2), (1,), EnumBudget("test"))
        # the 9 x 9 field tables are charged first, before they are built
        with pytest.raises(BudgetExceededError, match="unitary_group_elements would reach 81 candidates"):
            unitary_group_elements(2, 3)


def _frames_per_candidate(table, gram, similitudes, budget):
    """The slow construction of ftables.similitude_frames: a dot product
    per candidate in each later list, and mat_mul re-checks per frame."""
    t = len(gram)
    mul, add, conj = table.mul, table.add, table.conj

    def dot(a, v):
        acc = 0
        for ak, vk in zip(a, v):
            acc = add[acc][mul[ak][vk]]
        return acc

    budget.spend(table.q**t)
    gram_cols = tuple(zip(*gram))
    covector, by_norm = {}, {}
    for v in itertools.product(range(table.q), repeat=t):
        a = covector[v] = tuple(dot([conj[x] for x in v], col) for col in gram_cols)
        by_norm.setdefault(dot(a, v), []).append(v)

    def extend(cols, pools, want, found):
        j = len(cols)
        if j == t:
            found.append(tuple(zip(*cols)))
            return
        for x in pools[0]:
            a = covector[x]
            later = []
            for k, pool in enumerate(pools[1:], j + 1):
                budget.spend(len(pool))
                later.append([v for v in pool if dot(a, v) == want[j][k]])
            extend(cols + [x], later, want, found)

    frames = {}
    for c in similitudes:
        want = table.scale(c, gram)
        found = []
        extend([], [by_norm.get(want[j][j], []) for j in range(t)], want, found)
        for X in found:
            if table.mat_mul(table.mat_mul(table.conj_transpose(X), gram), X) != want:
                raise FormulaInconsistencyError(f"frame {X} fails X* G X = c G for c = {c}")
        frames[c] = sorted(found)
    return frames


def _gusplit_3_1_blocks():
    h = reduce_pairing(build_superspecial_unitary(3, 2, -1, 3, 1))
    table = field_table(3, 2)
    return [(table, table.mat_encode(block), table.fp_units) for block in h.blocks()]


def _per_candidate_cases():
    t3, t5, t7 = field_table(3), field_table(5), field_table(7)
    return {
        "identity(3)-p3": [(t3, t3.identity(3), (1,))],
        "identity(2)-p5": [(t5, t5.identity(2), t5.fp_units)],
        "identity(2)-p7": [(t7, t7.identity(2), t7.fp_units)],
        "pairing(3,-1,3,1)": _gusplit_3_1_blocks(),
    }


class TestListWiseFilter:
    """The list-wise column filter and the batched re-check give the lists,
    in the same order, and the candidate counts of the per-candidate path,
    on cases the q^(t^2) filter oracle cannot reach."""

    @pytest.mark.parametrize("name", ["identity(3)-p3", "identity(2)-p5", "identity(2)-p7", "pairing(3,-1,3,1)"])
    def test_matches_per_candidate_enumeration(self, name):
        for table, gram, similitudes in _per_candidate_cases()[name]:
            fast, slow = EnumBudget("test"), EnumBudget("test")
            assert similitude_frames(table, gram, similitudes, fast) == _frames_per_candidate(
                table, gram, similitudes, slow
            )
            assert fast.count == slow.count

    @staticmethod
    def _corrupt(table, X, i, j):
        rows = [list(row) for row in X]
        rows[i][j] = table.add[rows[i][j]][1]
        return tuple(map(tuple, rows))

    @pytest.mark.parametrize("bad", [[(5, 0, 0)], [(7, 0, 0), (3, 1, 1)], [(3, 1, 0), (4, 0, 1)]])
    def test_recheck_names_the_first_bad_frame(self, bad):
        # GU_2(F_9) at c = 2: each listed frame, with one entry moved by 1,
        # is no longer a similitude; the first corrupted frame in list
        # order is named, whichever product entry finds the fault first
        table = field_table(3)
        gram = table.identity(2)
        frames = list(_frames(table, gram, table.fp_units)[2])
        ftables._check_similitude(table, gram, 2, frames)
        for index, i, j in bad:
            frames[index] = self._corrupt(table, frames[index], i, j)
        first = frames[min(index for index, _, _ in bad)]
        with pytest.raises(FormulaInconsistencyError) as err:
            ftables._check_similitude(table, gram, 2, frames)
        assert str(err.value) == f"frame {first} fails X* G X = c G for c = 2"

    def test_every_similitude_is_rechecked(self, monkeypatch):
        table = field_table(3)
        checked = []
        monkeypatch.setattr(ftables, "_check_similitude", lambda *args: checked.append(args))
        frames = _frames(table, table.identity(2), table.fp_units)
        assert [(c, sorted(found)) for _, _, c, found in checked] == list(frames.items())


def _block_similitudes_per_product(table, grams):
    """The slow construction of ftables.block_similitudes: every row of
    every product element is padded again."""
    sizes = [len(G) for G in grams]
    n = sum(sizes)
    frames = [_frames(table, G, table.fp_units) for G in grams]
    out = []
    for c in table.fp_units:
        for blocks in itertools.product(*(f[c] for f in frames)):
            rows, offset = [], 0
            for X, size in zip(blocks, sizes):
                rows += [(0,) * offset + row + (0,) * (n - offset - size) for row in X]
                offset += size
            out.append(tuple(rows))
    return out


class TestBlockSimilitudes:
    """Frames padded once and rows decoded once give the same lists, in
    the same order, as padding every product and decoding every element."""

    @pytest.mark.parametrize("r, s, p", [(1, 1, 3), (2, 0, 3), (2, 2, 3), (0, 2, 5)])
    def test_gusplit_matches_per_product_padding(self, r, s, p):
        table = field_table(p)
        grams = (table.identity(r), table.identity(s))
        assert gusplit_group_elements(r, s, p) == _block_similitudes_per_product(table, grams)

    def test_automorphisms_match_per_element_decoding(self):
        h = reduce_pairing(build_superspecial_unitary(3, 2, -1, 2, 2))
        table = field_table(3)
        coded = _block_similitudes_per_product(table, [table.mat_encode(block) for block in h.blocks()])
        assert automorphism_group_order(h) == len(coded)
        assert automorphism_group_bruteforce(h) == (len(coded), [table.mat_decode(X) for X in coded])

    @pytest.mark.parametrize(
        "blocks",
        [
            *[("gusplit", r, s, p) for r, s, p in [(1, 1, 3), (2, 0, 3), (2, 2, 3), (0, 2, 5)]],
            *[("pairing", r, s, 3) for r, s in [(2, 2), (3, 1)]],
        ],
        ids=lambda b: f"{b[0]}({','.join(map(str, b[1:]))})",
    )
    def test_order_counts_the_list_with_equal_charges(self, blocks):
        kind, r, s, p = blocks
        table = field_table(p)
        if kind == "gusplit":
            grams = (table.identity(r), table.identity(s))
        else:
            h = reduce_pairing(build_superspecial_unitary(p, 2, -1, r, s))
            grams = [table.mat_encode(block) for block in h.blocks()]
        listed, counted = EnumBudget("list"), EnumBudget("count")
        assert block_similitude_order(table, grams, counted) == len(block_similitudes(table, grams, listed))
        assert counted.count == listed.count

    def test_mats_decode_matches_mat_decode(self):
        table = field_table(3)
        Ms = gusplit_group_elements(1, 1, 3) + [(), table.identity(3), ((0, 1, 8),)]
        assert table.mats_decode(Ms) == [table.mat_decode(M) for M in Ms]

    def test_rows_are_shared_per_frame(self):
        # at (2,2,3) each c has 96 frames per 2 x 2 block: 384 frames in all
        h = reduce_pairing(build_superspecial_unitary(3, 2, -1, 2, 2))
        table = field_table(3)
        frames = [_frames(table, table.mat_encode(block), table.fp_units) for block in h.blocks()]
        n_frames = sum(len(f[c]) for f in frames for c in table.fp_units)
        assert n_frames == 384
        _, elements = automorphism_group_bruteforce(h)
        assert len({id(row) for X in elements for row in X}) <= n_frames
        # the coded rows of a padded frame are shared by every element that uses it
        coded = gusplit_group_elements(2, 2, 3)
        assert len({id(row) for X in coded for row in X}) <= 2 * n_frames


class TestMultiplicativity:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 30), st.integers(1, 30))
    def test_gsp_order_multiplicative(self, g, n1, n2):
        if gcd(n1, n2) == 1:
            assert order_gsp_mod(g, n1 * n2) == order_gsp_mod(g, n1) * order_gsp_mod(g, n2)

    def test_prime_power_lift(self):
        dim = 2 * 1 * 1 + 1 + 1  # 2g^2 + g + 1 at g = 1
        assert order_gsp_mod(1, 9) == order_gsp_mod(1, 3) * 3**dim


class TestClassCounts:
    def test_formula_values(self):
        assert p_regular_classes(1, 1, 3) == 32
        assert p_regular_classes(2, 0, 3) == 24
        assert p_regular_classes(1, 1, 5) == 144
        assert p_regular_classes(2, 2, 3) == 3**2 * 2 * 16

    # (2,2,3) runs as test_verify_check[pregular-classes-vs-enumeration(2,2,3)]
    @pytest.mark.parametrize("r, s, p", [(1, 1, 3), (2, 0, 3), (1, 1, 5)])
    def test_formula_vs_enumeration(self, r, s, p):
        assert conjugacy_class_data(gusplit_group_elements(r, s, p), p)[1] == p_regular_classes(r, s, p)

    def test_abelian_case_all_classes_regular(self):
        elements = gusplit_group_elements(1, 1, 3)
        reps, regular = conjugacy_class_data(elements, 3)
        assert len(reps) == regular == 32

    def test_center_order_at_1_1_3(self):
        # G(U_1 x U_1)(F_9) is its own center, of order (p-1)(p+1)^2
        elements = gusplit_group_elements(1, 1, 3)
        table = field_table(3)
        center = [
            x
            for x in elements
            if all(table.mat_mul(x, y) == table.mat_mul(y, x) for y in elements)
        ]
        assert len(center) == 2 * 16


def _order_by_products(table, x):
    ident = table.identity(len(x))
    k, y = 1, x
    while y != ident:
        y, k = table.mat_mul(y, x), k + 1
    return k


def _conjugacy_class_data_slow(elements, p):
    """The slow oracle: conjugate every element by every element of the
    group, O(|G|^2) products, with inverses found by powering.  A class's
    representative is its first element in the order given."""
    table = field_table(p)
    ident = table.identity(len(elements[0]))
    order = functools.partial(_order_by_products, table)
    inverses = {}
    for x in elements:
        y = ident
        for _ in range(order(x) - 1):
            y = table.mat_mul(y, x)
        inverses[x] = y
    seen, reps, regular = set(), [], 0
    for x in elements:
        if x in seen:
            continue
        seen |= {table.mat_mul(table.mat_mul(inverses[g], x), g) for g in elements}
        reps.append(x)
        regular += gcd(order(x), p) == 1
    return reps, regular


_CLASS_GROUPS = {
    "gusplit(1,1,3)": lambda: (gusplit_group_elements(1, 1, 3), 3),
    "gusplit(1,1,5)": lambda: (gusplit_group_elements(1, 1, 5), 5),
    "gusplit(2,0,3)": lambda: (gusplit_group_elements(2, 0, 3), 3),
    "u(2,3)": lambda: (unitary_group_elements(2, 3), 3),
    "su(2,5)": lambda: (su_group_elements(2, 5), 5),
}


class TestClassOrbits:
    """Orbits under a checked generating set give exactly the classes of
    the all-pairs conjugation loop, and a list that is not a group is
    refused."""

    @pytest.mark.parametrize("name", sorted(_CLASS_GROUPS))
    def test_matches_all_pairs_oracle(self, name):
        elements, p = _CLASS_GROUPS[name]()
        assert conjugacy_class_data(elements, p) == _conjugacy_class_data_slow(elements, p)

    @pytest.mark.parametrize("name", ["gusplit(2,0,3)", "su(2,5)"])
    def test_missing_element_raises(self, name):
        elements, p = _CLASS_GROUPS[name]()
        for k in (1, len(elements) // 2, len(elements) - 1):
            with pytest.raises(FormulaInconsistencyError):
                conjugacy_class_data(elements[:k] + elements[k + 1 :], p)

    @pytest.mark.parametrize("name", ["gusplit(2,0,3)", "su(2,5)"])
    def test_stray_matrix_raises(self, name):
        elements, p = _CLASS_GROUPS[name]()
        unipotent = ((1, 1), (0, 1))  # not unitary: its first column has norm 1, its second 2
        singular = ((1, 0), (0, 0))
        for stray in (unipotent, singular):
            assert stray not in elements
            with pytest.raises(FormulaInconsistencyError):
                conjugacy_class_data(elements + [stray], p)

    def test_monoid_that_is_not_a_group_raises(self):
        # {I, e} with e idempotent is closed under products, but e has no inverse
        table = field_table(3)
        e = ((1, 0), (0, 0))
        with pytest.raises(FormulaInconsistencyError):
            conjugacy_class_data([table.identity(2), e], 3)

    def test_empty_list_raises_validation_error(self):
        with pytest.raises(ValidationError):
            conjugacy_class_data([], 3)

    def test_trivial_group(self):
        assert conjugacy_class_data([field_table(3).identity(2)], 3) == ([((1, 0), (0, 1))], 1)


def _rows_with_repeats(rng, q, n, width):
    """n coded rows of `width` entries drawn from a pool of n // 2 + 1,
    so that most rows repeat."""
    pool = [tuple(rng.randrange(q) for _ in range(width)) for _ in range(n // 2 + 1)]
    return tuple(rng.choice(pool) for _ in range(n))


class _CountingRows(list):
    """A list of table rows that records each row it hands out."""

    def __init__(self, rows, log):
        super().__init__(rows)
        self.log = log

    def __getitem__(self, i):
        self.log.append(i)
        return super().__getitem__(i)


class TestRightMul:
    """FieldTable.right_mul(M) is X -> mat_mul(X, M), with each distinct
    row multiplied once per map."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_mat_mul_on_square_and_rectangular_shapes(self, p):
        table = field_table(p)
        rng = random.Random(p)
        shapes = [(n, n, n) for n in range(1, 5)] + [(3, 2, 4), (5, 4, 1), (1, 3, 2), (6, 1, 3)]
        for rows, inner, cols in shapes:
            M = _rows_with_repeats(rng, table.q, inner, cols)
            times_m = table.right_mul(M)
            for _ in range(6):
                # the same map is applied again, so its stored row products are read back
                X = _rows_with_repeats(rng, table.q, rows, inner)
                assert times_m(X) == table.mat_mul(X, M)

    @pytest.mark.parametrize("p, s", [(3, 2), (5, 2), (7, 2), (5, 1), (7, 1)])
    def test_coded_products_match_the_witt_products(self, p, s):
        # mat_mul and right_mul share row_times, so both are checked
        # against linalg.mat_mul on the decoded matrices
        table = field_table(p, s)
        rng = random.Random(10 * p + s)
        shapes = [(n, n, n) for n in range(1, 5)] + [(3, 2, 4), (5, 4, 1), (1, 3, 2), (6, 1, 3)]
        for rows, inner, cols in shapes:
            M = _rows_with_repeats(rng, table.q, inner, cols)
            times_m = table.right_mul(M)
            for _ in range(3):
                X = _rows_with_repeats(rng, table.q, rows, inner)
                want = table.mat_encode(linalg.mat_mul(table.mat_decode(X), table.mat_decode(M)))
                assert table.mat_mul(X, M) == times_m(X) == want

    @pytest.mark.parametrize("p, s", [(3, 2), (5, 2), (7, 2), (5, 1), (7, 1)])
    def test_mats_decode_shares_each_rows_decoded_tuple(self, p, s):
        table = field_table(p, s)
        rng = random.Random(10 * p + s)
        for rows, width in [(4, 4), (6, 2), (3, 5)]:
            X = _rows_with_repeats(rng, table.q, rows, width)
            # equal rows that are not the same tuples, in another order
            Ms = [X, tuple(tuple(list(r)) for r in reversed(X)), ()]
            decoded = table.mats_decode(Ms)
            assert decoded == [table.mat_decode(M) for M in Ms]
            shared = {}
            for M, D in zip(Ms, decoded):
                for r, d in zip(M, D):
                    assert shared.setdefault(r, d) is d
            assert len(shared) < rows

    def test_each_distinct_row_is_multiplied_once(self, monkeypatch):
        table = field_table(3)
        M = ((1, 2), (3, 4))
        r, s = (1, 0), (5, 7)
        X, Y = (r, s, r), (s, s)
        want = [table.mat_mul(X, M), table.mat_mul(Y, M)]
        products = []
        real_add = table.add
        # every entry of a new row product reads `add` once per inner index
        monkeypatch.setattr(table, "add", _CountingRows(real_add, products))
        times_m = table.right_mul(M)
        assert [times_m(X), times_m(Y)] == want
        assert len(products) == 2 * 2 * 2  # two distinct rows, 2 entries, 2 terms each

    def test_maps_do_not_share_products(self):
        table = field_table(5)
        X = ((1, 2), (2, 1))
        A, B = ((1, 0), (0, 1)), ((0, 1), (1, 0))
        times_a, times_b = table.right_mul(A), table.right_mul(B)
        assert times_a(X) == X
        assert times_b(X) == ((2, 1), (1, 2))
        assert times_a(X) == X


class TestPRegularByOnePower:
    """In a group of order n = p^a m with p not dividing m, ord(x) | n, so
    x^m = I exactly when ord(x) is prime to p."""

    @pytest.mark.parametrize("name", ["u(2,3)", "su(2,5)"])
    def test_power_criterion_matches_the_element_order(self, name):
        elements, p = _CLASS_GROUPS[name]()
        table = field_table(p)
        ident = table.identity(2)
        m = len(elements) // sylow_p_order(len(elements), p)
        assert m < len(elements)  # p divides |G|, so the criterion is exercised
        regular = [groups._power(x, m, table.mat_mul, ident) == ident for x in elements]
        assert regular == [gcd(_order_by_products(table, x), p) == 1 for x in elements]
        assert 0 < sum(regular) < len(elements)

    def test_power_by_squaring(self):
        table = field_table(3)
        x = ((1, 1), (0, 1))
        ident = table.identity(2)
        y = ident
        for m in range(12):
            assert groups._power(x, m, table.mat_mul, ident) == y
            y = table.mat_mul(y, x)


class TestClassWalkProducts:
    """The class walk multiplies through FieldTable.right_mul; generic
    products are left for one power per class representative."""

    def _count_mat_mul(self, monkeypatch):
        calls = []
        real = FieldTable.mat_mul

        def counting(table, A, B):
            calls.append(1)
            return real(table, A, B)

        monkeypatch.setattr(FieldTable, "mat_mul", counting)
        return calls

    def test_no_generic_product_when_p_does_not_divide_the_order(self, monkeypatch):
        elements, p = _CLASS_GROUPS["gusplit(1,1,5)"]()
        calls = self._count_mat_mul(monkeypatch)
        assert conjugacy_class_data(elements, p)[1] == 144
        assert calls == []

    def test_one_power_per_class_when_p_divides_the_order(self, monkeypatch):
        elements, p = _CLASS_GROUPS["gusplit(2,0,3)"]()
        m = len(elements) // sylow_p_order(len(elements), p)
        calls = self._count_mat_mul(monkeypatch)
        reps, regular = conjugacy_class_data(elements, p)
        assert (len(reps), regular) == (32, 24)
        assert 0 < len(calls) <= 2 * m.bit_length() * len(reps)


    @pytest.mark.parametrize("name", ["gusplit(1,1,3)", "gusplit(2,0,3)", "gusplit(1,1,5)"])
    def test_two_maps_per_generator(self, monkeypatch, name):
        # X -> X g for each generator g, shared by the closure and the
        # orbit walk, then X -> X (g^-1)^T for the conjugations
        elements, p = _CLASS_GROUPS[name]()
        table = field_table(p)
        gens = groups._generating_set(elements, set(elements), table.right_mul, table.identity(len(elements[0])))
        maps = []
        real = FieldTable.right_mul
        monkeypatch.setattr(FieldTable, "right_mul", lambda table, M: maps.append(M) or real(table, M))
        conjugacy_class_data(elements, p)
        assert len(maps) == 2 * len(gens)
        assert maps[: len(gens)] == [g for g, _ in gens]


class TestSylowAndDimBounds:
    @pytest.mark.parametrize("r, s, p", [(1, 1, 3), (2, 0, 3)])
    def test_sylow_matches_exponent(self, r, s, p):
        order = len(gusplit_group_elements(r, s, p))
        assert sylow_p_order(order, p) == p ** ((r * (r - 1) + s * (s - 1)) // 2)

    def test_dim_bounds(self):
        assert irrep_dim_bound(1, 1, 3) == 1
        assert irrep_sum_bound(1, 1, 3) == 32
        assert irrep_dim_bound(2, 0, 3) == 3
        assert irrep_sum_bound(2, 0, 3) == 72
        assert irrep_dim_bound(2, 2, 3) == 9
        assert irrep_sum_bound(2, 2, 3) == 2592


@dataclasses.dataclass(frozen=True)
class QuatModP:
    """The 4-dimensional F_p-algebra F_p[u, Pi]: u^2 = alpha, Pi^2 = 0,
    Pi w = sigma(w) Pi for w in F_p[u] = F_{p^2} (so Pi u = -u Pi).

    Elements are tuples (a, b, c, d) = a + b u + c Pi + d u Pi.  This is
    the reduction mod p of the maximal order of the quaternion algebra
    ramified at p and infinity, with Pi a uniformizer, Pi^2 = p.  It is
    the reference ring of the slow level-p filter below, written without
    the field-table codes that lemma_gp_check runs on.
    """

    p: int
    alpha: int

    def __post_init__(self):
        if not is_nonresidue(self.alpha, self.p):
            raise ValidationError("alpha must be a non-residue mod p")

    ONE = (1, 0, 0, 0)
    U = (0, 1, 0, 0)
    PI = (0, 0, 1, 0)
    UPI = (0, 0, 0, 1)

    def el(self, a=0, b=0, c=0, d=0):
        p = self.p
        return (a % p, b % p, c % p, d % p)

    def add(self, x, y):
        p = self.p
        return tuple((xi + yi) % p for xi, yi in zip(x, y))

    def neg(self, x):
        p = self.p
        return tuple((-xi) % p for xi in x)

    def mul(self, x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        al, p = self.alpha, self.p
        return (
            (a1 * a2 + al * b1 * b2) % p,
            (a1 * b2 + b1 * a2) % p,
            (a1 * c2 + al * b1 * d2 + c1 * a2 - al * d1 * b2) % p,
            (a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2) % p,
        )

    def conj(self, x):
        """Main involution: fixes 1, negates u, Pi and u Pi."""
        a, b, c, d = x
        p = self.p
        return (a, (-b) % p, (-c) % p, (-d) % p)

    def basis(self):
        return [self.ONE, self.U, self.PI, self.UPI]


class TestQuatModP:
    def test_stated_relations(self):
        q = QuatModP(3, -1)
        assert q.mul(q.U, q.U) == q.el(a=-1)
        assert q.mul(q.PI, q.PI) == q.el()
        assert q.mul(q.PI, q.U) == q.neg(q.mul(q.U, q.PI))
        assert q.mul(q.U, q.PI) == q.UPI

    def test_associativity_on_all_basis_triples(self):
        q = QuatModP(3, -1)
        basis = q.basis()
        for x in basis:
            for y in basis:
                for z in basis:
                    assert q.mul(q.mul(x, y), z) == q.mul(x, q.mul(y, z))

    def test_conjugation_is_an_antiautomorphism(self):
        q = QuatModP(5, -2)
        basis = q.basis()
        for x in basis:
            for y in basis:
                assert q.conj(q.mul(x, y)) == q.mul(q.conj(y), q.conj(x))

    def test_rejects_residue_alpha(self):
        with pytest.raises(ValidationError):
            QuatModP(3, 1)


def _field_coder(table, alpha):
    """a + b u (+ c Pi + d u Pi) -> the FieldTable code of a + b u, with
    u = hensel_sqrt(alpha) as in lemma_gp_check: the reduction mod Pi."""
    fp, add, mul = table.fp_codes, table.add, table.mul
    u = table.encode(hensel_sqrt(table.ctx, alpha))
    return lambda x: add[fp[x[0]]][mul[fp[x[1]]][u]]


class TestFieldCoding:
    """The slow lemma filter reduces mod Pi by _field_coder, which must be
    a ring isomorphism F_p[u] -> F_{p^2} that sends a - b u to conj."""

    # two non-residues alpha for each p (at p = 3 both are 2 mod 3)
    ALPHAS = {3: (-1, 2), 5: (-2, -3), 7: (-1, 3)}

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_against_quat_mod_p(self, p):
        field = field_table(p)
        for alpha in self.ALPHAS[p]:
            quat = QuatModP(p, alpha)
            code = _field_coder(field, alpha)
            elements = [quat.el(a, b) for a, b in itertools.product(range(p), repeat=2)]
            assert sorted(code(x) for x in elements) == list(range(field.q))
            for x in elements:
                assert code(quat.conj(x)) == field.conj[code(x)]
            if p == 3:
                pairs = itertools.product(elements, repeat=2)
            else:
                rng = random.Random(p * 100 + alpha)
                pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(2000)]
            for x, y in pairs:
                assert code(quat.mul(x, y)) == field.mul[code(x)][code(y)]
                assert code(quat.add(x, y)) == field.add[code(x)][code(y)]

    def test_residue_alpha_rejected(self):
        with pytest.raises(ValidationError):
            lemma_gp_check(3, 1, 1, 1)


def _quat_mat_mul(quat, A, B):
    p = quat.p
    return tuple(tuple(tuple(sum(c) % p for c in zip(*map(quat.mul, row, col))) for col in zip(*B)) for row in A)


def _lemma_gp_members_by_filter(p, alpha, r, s):
    """The slow oracle: filter all q^(g^2) Pi-shaped g x g matrices over
    QuatModP(p, alpha) (a + b u in the diagonal blocks, (c + d u) Pi off
    them) for X Phi = Phi X and X* X = cI with c in F_p^x.  Returns each
    member X = D + N Pi as the pair (D, N) in FieldTable codes: D is its
    reduction mod Pi and N holds the c + d u of its Pi part."""
    g = r + s
    quat = QuatModP(p, alpha)
    code = _field_coder(field_table(p), alpha)

    def diag(x):
        return tuple(tuple(x[i] if i == j else quat.el() for j in range(g)) for i in range(g))

    phi = diag([quat.el(b=-1)] * r + [quat.U] * s)
    scalars = {diag([quat.el(c)] * g) for c in range(1, p)}
    field_part = [quat.el(a, b) for a, b in itertools.product(range(p), repeat=2)]
    pi_part = [quat.el(c=c, d=d) for c, d in itertools.product(range(p), repeat=2)]
    pools = [field_part if (i < r) == (j < r) else pi_part for i in range(g) for j in range(g)]
    members = []
    for entries in itertools.product(*pools):
        X = tuple(entries[i * g : (i + 1) * g] for i in range(g))
        if _quat_mat_mul(quat, X, phi) != _quat_mat_mul(quat, phi, X):
            continue
        X_star = tuple(tuple(quat.conj(x) for x in col) for col in zip(*X))
        if _quat_mat_mul(quat, X_star, X) in scalars:
            D = tuple(tuple(code(x) for x in row) for row in X)
            N = tuple(tuple(code(x[2:]) for x in row) for row in X)
            members.append((D, N))
    return members


def _kernel(images, basis, g, p):
    """Every g x g coded N = sum n_k basis_k with sum n_k images_k = 0 mod p,
    over all p^len(basis) coefficient vectors n; images_k is the image
    of basis_k, a row of F_p digits 0 .. p-1.  A basis entry is the code
    1 or p of one F_p digit, so N's codes are sums of codes."""
    columns = list(zip(*images))
    kernel = set()
    for n in itertools.product(range(p), repeat=len(basis)):
        if all(sum(map(operator.mul, n, col)) % p == 0 for col in columns):
            N = tuple(tuple(sum(nk * B[i][j] for nk, B in zip(n, basis)) for j in range(g)) for i in range(g))
            kernel.add(N)
    return kernel


def _fibre_size(table, D, basis: list) -> int:
    """The reference fibre count, D by D: #{N in the F_p-span of `basis` :
    D*N = N^T sigma(D)}, as p^(dim - rank), with the 4rs basis images
    D*N - N^T sigma(D) = D*N - sigma(N* D) computed for this D on the
    F_{p^2} codes of `table`, written in F_p coordinates (a code x < q is
    c0 + c1 p over its two F_p digits) and ranked by linalg.rank over
    F_p = witt_ring(p, 1, 1)."""
    p = table.p
    fp = witt_ring(p, 1, 1)
    add, neg, conj = table.add, table.neg, table.conj
    mul, conj_transpose = table.mat_mul, table.conj_transpose
    Dh = conj_transpose(D)
    rows = []
    for N in basis:
        image = [
            add[x][neg[conj[y]]]
            for left, right in zip(mul(Dh, N), mul(conj_transpose(N), D))
            for x, y in zip(left, right)
        ]
        rows.append([c for x in image for c in divmod(x, p)])
    # coordinates that are 0 in every image add nothing to the rank
    live = [col for col in zip(*rows) if any(col)]
    return p ** (len(basis) - rank([[fp.el(c) for c in row] for row in zip(*live)]))


def _fp_rank(rows, p):
    """linalg.rank of integer rows over F_p = witt_ring(p, 1, 1)."""
    fp = witt_ring(p, 1, 1)
    return rank([[fp.el(c % p) for c in row] for row in rows])


def _packed_rank(p, images, digits):
    """ftables.packed_fp_rank of sum d_k images_k, the combination formed
    from the packed images as its callers form it."""
    packed, rank_of = ftables.packed_fp_rank(p, images)
    return rank_of(sum(map(operator.mul, digits, packed)))


class TestPackedFpRank:
    """ftables.packed_fp_rank against linalg.rank over witt_ring(p, 1, 1)."""

    @staticmethod
    def _check(p, images, digits):
        # sum d_k images_k, entry by entry, ranked by linalg
        combination = [[sum(map(operator.mul, digits, col)) for col in zip(*rows)] for rows in zip(*images)]
        want = _fp_rank(combination, p)
        assert _packed_rank(p, images, digits) == want
        return want

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_seeded_random_matrices(self, p):
        rng = random.Random(p)
        ranks = set()
        for _ in range(60):
            K, n, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 7)
            # sparse entries leave some columns zero in every image, and low ranks
            density = rng.choice([0.2, 0.5, 1.0])

            def entry():
                return rng.randrange(p) if rng.random() < density else 0

            images = [[[entry() for _ in range(m)] for _ in range(n)] for _ in range(K)]
            ranks.add(self._check(p, images, [rng.randrange(p) for _ in range(K)]))
        assert len(ranks) > 2

    @pytest.mark.parametrize("p, K", [(3, 70), (5, 20), (13, 2), (13, 9)])
    def test_sums_that_pass_8_bits(self, p, K):
        # K (p - 1)^2 >= 256: an 8-bit field would overflow before its reduction
        assert K * (p - 1) ** 2 >= 256
        rng = random.Random(K * p)
        for _ in range(20):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            images = [[[rng.choice([0, p - 1]) for _ in range(m)] for _ in range(n)] for _ in range(K)]
            self._check(p, images, [rng.choice([p - 1, rng.randrange(p)]) for _ in range(K)])
        # every term at its largest: each field sums K (p - 1)^2
        images = [[[p - 1] * 3 for _ in range(2)] for _ in range(K)]
        assert self._check(p, images, [p - 1] * K) == (0 if K % p == 0 else 1)

    def test_all_zero_inputs(self):
        assert _packed_rank(3, [[[0, 0], [0, 0]]] * 4, [1, 2, 1, 2]) == 0
        assert _packed_rank(5, [[[1, 2], [3, 4]]], [0]) == 0
        assert _packed_rank(3, [[]] * 3, [1, 1, 1]) == 0
        assert _packed_rank(3, [], []) == 0

    @pytest.mark.parametrize("p", [3, 7, 13])
    def test_single_row(self, p):
        rng = random.Random(p + 1)
        for _ in range(20):
            images = [[[rng.randrange(p) for _ in range(5)]] for _ in range(3)]
            self._check(p, images, [rng.randrange(p) for _ in range(3)])
        assert _packed_rank(p, [[[0, 0, 1]], [[0, 0, p - 1]]], [1, 1]) == 0


def _block_digits(D, r, p):
    """The F_p digits c0, c1 of each code c0 + c1 p in the diagonal
    (r, s)-blocks of D, row by row."""
    return [c for i, row in enumerate(D) for j, x in enumerate(row) if (i < r) == (j < r) for c in (x % p, x // p)]


class TestLemmaGp:
    def test_level_p_exact_sequence_at_3(self):
        rep = lemma_gp_check(3, -1, 1, 1)
        assert rep.gp_order == 32
        assert rep.surjective and rep.image_size == 32
        assert rep.kernel_is_identity_mod_pi
        assert rep.group_order == rep.kernel_size * 32
        assert rep.kernel_size == 9  # one F_9 parameter of Pi-congruences
        assert rep.offdiag_probes_rejected == rep.offdiag_probes_total == 2
        assert rep.ok

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("SSP_MAX_ENUM", "10")
        with pytest.raises(BudgetExceededError):
            lemma_gp_check(3, -1, 1, 1)

    @pytest.mark.parametrize("r, s", [(-1, 2), (2, -1), (0, 0)])
    def test_signature_needs_r_s_non_negative_and_g_positive(self, r, s):
        # unchecked, (-1, 2) gives kernel_size 0, and (0, 0) puts the p - 1
        # similitudes of the empty matrix on one key: gp_order 1, not 2
        with pytest.raises(ValidationError, match="r, s must be >= 0 with r \\+ s >= 1"):
            lemma_gp_check(3, -1, r, s)

    def test_one_meter_counts_the_whole_check(self, monkeypatch):
        # the 2 x 9 frames of G(p) = G(U_1 x U_1)(F_9), then its 32 x 4
        # basis images: 146 candidates, all on the meter of lemma_gp_check
        monkeypatch.setenv("SSP_MAX_ENUM", "145")
        with pytest.raises(BudgetExceededError, match="lemma_gp_check reached 146 candidates"):
            lemma_gp_check(3, -1, 1, 1)
        monkeypatch.setenv("SSP_MAX_ENUM", "146")
        assert lemma_gp_check(3, -1, 1, 1).ok
        # at s = 0 there are no basis images, and the frames of G(p) alone pass the limit
        with pytest.raises(BudgetExceededError, match="^lemma_gp_check "):
            lemma_gp_check(3, -1, 2, 0)

    @pytest.mark.parametrize("drop", ["kernel", "other"])
    def test_fibre_check_fails_when_a_member_is_dropped(self, monkeypatch, drop):
        identity = field_table(3).identity(2)
        victim = identity if drop == "kernel" else next(D for D in gusplit_group_elements(1, 1, 3) if D != identity)
        fibre_sizes = groups._fibre_sizes
        # the fibre over the victim comes out one member short
        monkeypatch.setattr(
            groups,
            "_fibre_sizes",
            lambda *args: {D: size - (D == victim) for D, size in fibre_sizes(*args).items()},
        )
        rep = lemma_gp_check(3, -1, 1, 1)
        assert rep.surjective and rep.group_order == 9 * 32 - 1
        assert not rep.kernel_is_identity_mod_pi
        assert not rep.ok

    @pytest.mark.parametrize("alpha, r, s", [(-1, 1, 1), (-10, 1, 1), (-1, 2, 0), (-1, 0, 2)])
    def test_fibres_match_the_filter(self, monkeypatch, alpha, r, s):
        # the fibre over D is the kernel of the combination of basis images
        # whose rank packed_fp_rank takes: compare the N in it, not only
        # their number
        recorded, matrices = {}, []
        fibre_sizes, packed_fp_rank = groups._fibre_sizes, groups.packed_fp_rank

        def record_rank(p, images):
            packed, rank_of = packed_fp_rank(p, images)
            recorded["images"], recorded["packed"] = images, packed

            def rank_and_record(matrix):
                matrices.append(matrix)
                return rank_of(matrix)

            return packed, rank_and_record

        def record(table, gp_elements, r, basis):
            recorded["basis"] = basis
            recorded["sizes"] = fibre_sizes(table, gp_elements, r, basis)
            return recorded["sizes"]

        monkeypatch.setattr(groups, "packed_fp_rank", record_rank)
        monkeypatch.setattr(groups, "_fibre_sizes", record)
        rep = lemma_gp_check(3, alpha, r, s)
        images, packed, basis, sizes = (recorded[key] for key in ("images", "packed", "basis", "sizes"))
        # one ranked matrix per D, in the order of the fibres
        assert len(matrices) == len(sizes)
        kernels = {}
        for D, matrix in zip(sizes, matrices):
            digits = _block_digits(D, r, 3)
            # what was ranked is sum d_k images_k over D's digits ...
            assert matrix == sum(map(operator.mul, digits, packed))
            # ... whose rows, one per basis N, are these
            rows = [[sum(map(operator.mul, digits, col)) % 3 for col in zip(*rows)] for rows in zip(*images)]
            kernels[D] = _kernel(rows, basis, len(D), 3)
        members = _lemma_gp_members_by_filter(3, alpha, r, s)
        fibres = {}
        for D, N in members:
            fibres.setdefault(D, set()).add(N)
        assert fibres == kernels
        assert {D: len(kernel) for D, kernel in kernels.items()} == sizes
        assert rep.group_order == len(members)

    # every g <= 2 case of this class
    @pytest.mark.parametrize(
        "p, alpha, r, s",
        [
            (3, -1, 1, 1),
            (3, -10, 1, 1),
            (3, -1, 2, 0),
            (3, -1, 0, 2),
            (5, -2, 1, 1),
            (5, -2, 2, 0),
            (7, -1, 1, 1),
            (11, -1, 1, 1),
            (13, -2, 1, 1),
        ],
    )
    def test_fibres_match_the_reference_d_by_d(self, monkeypatch, p, alpha, r, s):
        recorded = []
        fibre_sizes = groups._fibre_sizes

        def record(table, gp_elements, r, basis):
            recorded.append((table, basis, fibre_sizes(table, gp_elements, r, basis)))
            return recorded[-1][2]

        monkeypatch.setattr(groups, "_fibre_sizes", record)
        lemma_gp_check(p, alpha, r, s)
        [(table, basis, sizes)] = recorded
        assert sizes == {D: _fibre_size(table, D, basis) for D in sizes}

    def test_fibres_match_the_reference_on_a_g4_sample(self):
        # 200 of the 18 432 D of G(U_2 x U_2)(F_9), seeded, and the identity
        table = field_table(3)
        elements = gusplit_group_elements(2, 2, 3)
        sample = [table.identity(4)] + random.Random(22).sample(elements, 200)
        basis = groups._units(3, 4, 2, False)
        sizes = groups._fibre_sizes(table, sample, 2, basis)
        assert sizes == {D: _fibre_size(table, D, basis) for D in sample}
        assert set(sizes.values()) == {3**8}

    @pytest.mark.parametrize(
        "p, alpha, r, s, order",
        [
            (5, -2, 1, 1, 3600),
            (5, -2, 2, 0, 2880),
            (7, -1, 1, 1, 18816),
            (11, -1, 1, 1, 174240),
            (13, -2, 1, 1, 397488),
        ],
    )
    def test_kernel_closed_form(self, p, alpha, r, s, order):
        rep = lemma_gp_check(p, alpha, r, s)
        assert rep.kernel_size == p ** (2 * r * s)
        assert rep.group_order == p ** (2 * r * s) * order_gusplit(r, s, p) == order
        assert rep.ok

    def test_ok_needs_the_kernel_closed_form(self):
        rep = lemma_gp_check(3, -1, 1, 1)
        # uniform fibres of 3 members each still fail kernel_size = p^(2rs) = 9
        assert not dataclasses.replace(rep, kernel_size=3, group_order=3 * 32).ok
