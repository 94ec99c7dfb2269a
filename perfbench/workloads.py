"""The four workloads: what set-up fills, which inputs the seed picks, and
the op list of one pass.

Every op calls public functions of the `ssp` package and checks its own
result against a closed form or a pinned value; a mismatch raises
`CheckFailed`.  The package is imported inside `setup`, never at module
level, so that set-up time includes the import.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from contextlib import redirect_stdout
from fractions import Fraction

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

WORKLOADS = ("orders", "classes", "modules", "bounds")

# Enumeration oracles whose benchmark-side spans add up to groups.enum.cum_s.
ENUMERATION_SPANS = (
    "groups.su_group_elements",
    "groups.unitary_group_elements",
    "groups.gusplit_group_elements",
    "groups.gsp_order_enumerated",
    "groups.lemma_gp_check",
)


class CheckFailed(Exception):
    """An op's result disagreed with its formula or pinned value."""


def expect(ok: bool, detail: str):
    if not ok:
        raise CheckFailed(detail)


# ---------------------------------------------------------------------------
# generated inputs (computed here, independently of the package)


def _squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def nonresidues(p: int, k: int = 3) -> list[int]:
    """The k negative squarefree alpha of smallest size with p inert in
    Q(sqrt(alpha)): p does not divide alpha and alpha is a non-residue."""
    out = []
    a = -1
    while len(out) < k:
        if a % p and _squarefree(-a) and pow(a % p, (p - 1) // 2, p) == p - 1:
            out.append(a)
        a -= 1
    return out


def _primes_between(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(hi**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, hi + 1, i)))
    return [p for p in range(lo, hi + 1) if sieve[p]]


# ---------------------------------------------------------------------------
# set-up: import the package and fill the lazy caches a workload uses

_TABLE_PRIMES = {"orders": (3, 5), "classes": (3, 5, 7), "modules": (), "bounds": ()}
_WITT_RINGS = {
    "orders": [(3, 2, 2), (5, 2, 2)],
    "classes": [],
    "modules": [(p, 2, n) for p in (3, 5, 7) for n in (3, 18, 34)],
    "bounds": [],
}
_MASS_GENERA = {"bounds": (2, 4, 16, 32)}


def use_source_tree():
    """Import `ssp` from the checkout's own src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "ssp", "__init__.py")):
        raise FileNotFoundError(f"no ssp package under {SRC}")
    sys.path.insert(0, SRC)


def setup(name: str):
    """Import `ssp` and fill the caches (`field_ctx`, `field_table`,
    `witt_ring`, and `exact.bernoulli` for bounds) that `name` uses."""
    import ssp  # noqa: F401
    from ssp import exact
    from ssp.ftables import field_table
    from ssp.witt import witt_ring

    if name == "bounds":
        import ssp.cli  # noqa: F401
    for p in _TABLE_PRIMES[name]:
        # groups calls field_table(p) and hermitian field_table(p, 2):
        # lru_cache keeps them as two entries
        field_table(p)
        field_table(p, 2)
    for args in _WITT_RINGS[name]:
        witt_ring(*args)
    for g in _MASS_GENERA.get(name, ()):
        exact.mass_constant(g)


# ---------------------------------------------------------------------------
# op lists; each op is (name, fn) with fn(tracer) raising on a bad result


def _enumeration(fn, args, formula):
    def op(tr):
        elements = tr.call(fn, *args)
        tr.count_elements(len(elements))
        expect(len(elements) == formula, f"{len(elements)} elements vs formula {formula}")

    return op


def _order_count(fn, args, formula):
    def op(tr):
        order = tr.call(fn, *args)
        expect(order == formula, f"enumerated {order} vs formula {formula}")

    return op


def orders_ops(rng):
    """Every row of the formula-vs-enumeration group table at p = 3, 5,
    plus automorphism groups of reduced pairings and the level-p lemma."""
    from ssp import dieudonne, groups, hermitian

    ops = []
    for p in (3, 5):
        ops += [
            (f"su(2,{p})", _enumeration(groups.su_group_elements, (2, p), groups.order_su(2, p))),
            (f"u(1,{p})", _enumeration(groups.unitary_group_elements, (1, p), groups.order_u(1, p))),
            (f"u(2,{p})", _enumeration(groups.unitary_group_elements, (2, p), groups.order_u(2, p))),
            (
                f"gusplit(1,1,{p})",
                _enumeration(groups.gusplit_group_elements, (1, 1, p), groups.order_gusplit(1, 1, p)),
            ),
            (
                f"gusplit(2,0,{p})",
                _enumeration(groups.gusplit_group_elements, (2, 0, p), groups.order_gusplit(2, 0, p)),
            ),
            (f"gl2({p})", _order_count(groups.gl2_order_enumerated, (p,), groups.order_gsp_mod(1, p))),
            (f"gsp(2,{p})", _order_count(groups.gsp_order_enumerated, (2, p), groups.order_gsp_mod(2, p))),
        ]

    def automorphisms(p, alpha, r, s):
        def op(tr):
            m = tr.call(dieudonne.build_superspecial_unitary, p, 2, alpha, r, s)
            h = tr.call(hermitian.reduce_pairing, m)
            order, elements = tr.call(hermitian.automorphism_group_bruteforce, h)
            tr.count_elements(len(elements))
            want = groups.order_gusplit(r, s, p)
            expect(order == want == len(elements), f"aut order {order} vs formula {want}")

        return op

    def lemma(p, alpha, r, s):
        def op(tr):
            rep = tr.call(groups.lemma_gp_check, p, alpha, r, s)
            tr.count_elements(rep.group_order)
            want = groups.order_gusplit(r, s, p)
            expect(rep.ok and rep.gp_order == want, f"lemma report {rep}")

        return op

    for p, r, s in ((5, 1, 1), (3, 2, 2)):
        alpha = rng.choice(nonresidues(p))
        ops.append((f"aut({p},{alpha},{r},{s})", automorphisms(p, alpha, r, s)))
    alpha = rng.choice(nonresidues(3))
    for r, s in ((1, 1), (2, 0)):
        ops.append((f"lemma(3,{alpha},{r},{s})", lemma(3, alpha, r, s)))
    return ops


def classes_ops(rng):
    """p-regular class counts by orbit enumeration, and one equivariant
    dimension on the regular coset space of G(U_1 x U_1)(F_9).

    Enumeration and class counting are separate ops, so they are timed
    apart: the class-count op works on an element list generated before
    the passes and the enumeration op checks the group order."""
    from ssp import count, groups
    from ssp.ftables import field_table

    def classes(r, s, p, elements):
        def op(tr):
            _reps, regular = tr.call(groups.conjugacy_class_data, elements, p)
            want = groups.p_regular_classes(r, s, p)
            expect(regular == want, f"{regular} p-regular classes vs formula {want}")

        return op

    ops = []
    for r, s, p in ((1, 1, 3), (1, 1, 5), (1, 1, 7), (2, 0, 3)):
        order = groups.order_gusplit(r, s, p)
        ops.append((f"gusplit({r},{s},{p})", _enumeration(groups.gusplit_group_elements, (r, s, p), order)))
        elements = groups.gusplit_group_elements(r, s, p)
        ops.append((f"classes({r},{s},{p})", classes(r, s, p, elements)))

    # generated input: the regular G-set of G(U_1 x U_1)(F_9) and its
    # natural 2-dimensional representation, one generator per element
    table = field_table(3)
    elements = sorted(groups.gusplit_group_elements(1, 1, 3))
    index = {e: i for i, e in enumerate(elements)}
    space = count.CosetSpace(
        points=len(elements),
        generators=tuple(tuple(index[table.mat_mul(x, g)] for x in elements) for g in elements),
    )
    rho = count.GroupRepresentation(
        ctx=table.ctx, dim=2, generators=tuple(table.mat_decode(g) for g in elements)
    )

    def equivariant(tr):
        dim = tr.call(count.equivariant_dimension, space, rho)
        expect(dim == 2, f"regular-space dimension {dim} vs rep dim 2")

    ops.append(("equivariant(3,1,1)", equivariant))
    return ops


def modules_ops(rng):
    """The p-adic model pipeline: polygons at n = 4g + 2 and the reduced
    Hermitian pairing at n = 3, for p in {3,5,7} and three signatures."""
    from ssp import dieudonne, hermitian

    def polygons(p, alpha, r, s):
        g = r + s

        def op(tr):
            m = tr.call(dieudonne.build_superspecial_unitary, p, 4 * g + 2, alpha, r, s)
            rep = tr.call(dieudonne.check_axioms, m)
            expect(rep.ok, f"axioms: {rep.failures()}")
            np_ = tr.call(dieudonne.newton_polygon, m)
            expect(np_.slopes == ((Fraction(1, 2), 2 * g),), f"slopes {np_.slopes}")
            hp = tr.call(dieudonne.hodge_polygon, m)
            expect(hp.weights == ((0, g), (1, g)), f"Hodge weights {hp.weights}")
            adm = tr.call(dieudonne.endpoint_admissibility, np_, hp)
            expect(adm.endpoints_equal and adm.t_newton == g, f"endpoints {adm}")

        return op

    def pairing(p, alpha, r, s, trial_seed):
        def op(tr):
            m = tr.call(dieudonne.build_superspecial_unitary, p, 3, alpha, r, s)
            h = tr.call(hermitian.reduce_pairing, m)
            expect(h.grading == (r, s), f"grading {h.grading} vs ({r},{s})")
            bad = tr.call(hermitian.pairing_well_defined, m, h, 20, trial_seed)
            expect(bad == 0, f"{bad} well-definedness disagreements")

        return op

    ops = []
    for p in (3, 5, 7):
        alpha = rng.choice(nonresidues(p))
        for r, s in ((2, 2), (3, 1), (4, 4)):
            trial_seed = rng.randrange(2**31)
            ops.append((f"polygons({p},{alpha},{r},{s})", polygons(p, alpha, r, s)))
            ops.append((f"pairing({p},{alpha},{r},{s})", pairing(p, alpha, r, s, trial_seed)))
    return ops


def bounds_ops(rng):
    """In-process `ssp` CLI calls: three bound sweeps as CSV and a grid of
    single bounds as JSON.  A sweep spans many primes, so its alpha stays
    -1 and the set of primes it evaluates (its size) is the same for every
    seed; each grid prime gets a seed-picked alpha."""
    from ssp import cli

    def run_cli(tr, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = tr.call(cli.main, argv)
        expect(code == 0, f"exit code {code}")
        return buf.getvalue()

    def exponent(r, s):
        g = r + s
        return g * g + g + 1 - r * s

    def sweep(lo, hi, r, s, N):
        argv = ["sweep", "--sweep", f"{lo}:{hi}", "--alpha", "-1", "--r", str(r), "--s", str(s), "--N", str(N), "--csv"]
        # alpha = -1: an odd prime is inert in Q(i), so evaluated, iff p = 3 mod 4
        expected = {str(p): "ok" if p % 4 == 3 else "skipped" for p in _primes_between(lo, hi)}

        def op(tr):
            rows: dict[str, dict[str, str]] = {}
            reader = csv.reader(io.StringIO(run_cli(tr, argv)))
            expect(next(reader) == ["name", "value", "provenance"], "CSV header")
            for name, value, _prov in reader:
                row, _, field = name.partition(".")
                rows.setdefault(row, {})[field] = value
            status = {row["p"]: row["status"] for row in rows.values()}
            expect(
                len(rows) == len(expected) and status == expected, "rows differ from the primes in range or their status"
            )
            for row in rows.values():
                if row["status"] != "ok":
                    continue
                expect(
                    int(row["final_bound"]) == int(row["superspecial_bound_ceiling"]) * int(row["irr_sum_bound"]),
                    f"final_bound decomposition at p = {row['p']}",
                )
                expect(int(row["asymptotic_exponent"]) == exponent(r, s), f"exponent at p = {row['p']}")
            if lo == 3 and (r, s, N) == (1, 1, 3):
                expect(rows["rows[0]"]["final_bound"] == "11520", "pinned final_bound at p = 3")

        return op

    def bound(p, alpha, r, s, N):
        argv = ["bound", "--p", str(p), "--alpha", str(alpha), "--r", str(r), "--s", str(s), "--N", str(N)]

        def op(tr):
            res = json.loads(run_cli(tr, argv))["results"]
            final = int(res["final_bound"]["value"])
            ceiling = int(res["superspecial_bound_ceiling"]["value"])
            expect(final == ceiling * int(res["irr_sum_bound"]["value"]), "final_bound decomposition")
            expect(int(res["asymptotic_exponent"]["value"]) == exponent(r, s), "asymptotic exponent")
            if (p, r, s, N) == (3, 1, 1, 3):
                expect(final == 360 * 32 == 11520, f"pinned final_bound {final} vs 11520")

        return op

    ops = [
        ("sweep(3:200000,1,1,3)", sweep(3, 200000, 1, 1, 3)),
        ("sweep(3:5000,8,8,12)", sweep(3, 5000, 8, 8, 12)),
        ("sweep(3:3000,16,16,3)", sweep(3, 3000, 16, 16, 3)),
    ]
    for p in (3, 7, 11, 19, 23):
        alpha = rng.choice(nonresidues(p))
        for r, s in ((1, 1), (2, 2), (3, 1)):
            for N in (3, 4, 5):
                ops.append((f"bound({p},{alpha},{r},{s},{N})", bound(p, alpha, r, s, N)))
    return ops


OPS = {"orders": orders_ops, "classes": classes_ops, "modules": modules_ops, "bounds": bounds_ops}
