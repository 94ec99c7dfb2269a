"""The named formula-vs-oracle checks behind `ssp verify`, by level.

Each check is a (name, thunk) pair and a thunk returns (ok, detail).
`QUICK` is the default level; `FULL` appends the larger enumerations.
A check is registered here once: `ssp verify` runs these tuples, and
the acceptance suite, which is this registry alone, runs every entry of
`FULL` under a wall-time bound.  A check registered here is not
repeated in the unit tests of its subject.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from . import count, dieudonne, exact, groups, hermitian, linalg
from .errors import SspError, ValidationError
from .ftables import field_table
from .witt import canonical_lie_action, witt_ring


def _eq(lhs, rhs):
    return lhs == rhs, f"{lhs} vs {rhs}"


def _order(family: str, *params: int):
    spec = groups.GroupSpec(family, params)
    return _eq(spec.enumerated_order(), spec.order())


def _pregular(r: int, s: int, p: int):
    enumerated = groups.conjugacy_class_data(groups.gusplit_group_elements(r, s, p), p)[1]
    return _eq(enumerated, groups.p_regular_classes(r, s, p))


def _sylow():
    for r, s in ((1, 1), (2, 0)):
        order = groups.gusplit_order_enumerated(r, s, 3)
        want = groups.irrep_dim_bound(r, s, 3)
        if groups.sylow_p_order(order, 3) != want:
            return False, f"(r,s)=({r},{s}): {groups.sylow_p_order(order, 3)} vs {want}"
    return True, "p-Sylow orders match p^((r(r-1)+s(s-1))/2)"


def _aut(r: int, s: int):
    m = dieudonne.build_superspecial_unitary(3, 2, -1, r, s)
    order = hermitian.automorphism_group_order(hermitian.reduce_pairing(m))
    return _eq(order, groups.order_gusplit(r, s, 3))


def _newton():
    np_ = dieudonne.newton_polygon(dieudonne.build_a_half(witt_ring(3, 2, 6)))
    ok = np_.slopes == ((Fraction(1, 2), 2),) and dieudonne.is_isoclinic(np_)
    return ok, f"slopes {np_.slopes}"


def _model(r: int, s: int):
    m = dieudonne.build_superspecial_unitary(3, 2, -1, r, s)
    rep = dieudonne.check_axioms(m)
    if not rep.ok:
        return False, f"axioms: {rep.failures()}"
    if m.f_matrix != linalg.mat_neg(m.v_matrix):
        return False, "F + V != 0"
    dims = dieudonne.graded_quotient_dims(m)
    return dims == (r, s), f"quotient dims {dims} vs ({r},{s})"


def _admissibility(r: int, s: int):
    g = r + s
    m = dieudonne.build_superspecial_unitary(3, 4 * g + 2, -1, r, s)
    adm = dieudonne.endpoint_admissibility(dieudonne.newton_polygon(m), dieudonne.hodge_polygon(m))
    return adm.endpoints_equal and adm.t_newton == g, f"t_N = {adm.t_newton}, t_H = {adm.t_hodge}"


def _pairing(r: int, s: int):
    m = dieudonne.build_superspecial_unitary(3, 3, -1, r, s)
    bad = hermitian.pairing_well_defined(m, hermitian.reduce_pairing(m), trials=20, seed=0)
    return bad == 0, f"{bad} disagreements in 20 trials"


def _mass():
    for g in range(1, 9):
        if exact.mass_constant(g) != exact.mass_constant_bernoulli_abs(g):
            return False, f"g = {g}: zeta and Bernoulli forms differ"
        if exact.mass_constant(g) <= 0:
            return False, f"g = {g}: not positive"
    return True, "zeta form equals |Bernoulli| form, positive, g <= 8"


def _pipeline():
    rep = count.eigensystem_bound(count.SignatureParams(p=3, alpha=-1, r=1, s=1, N=3))
    ok = rep.final_bound == 11520 and rep.superspecial_bound_ceiling == 360 and rep.irr_sum_bound == 32
    return ok, f"{rep.superspecial_bound_ceiling} * {rep.irr_sum_bound} = {rep.final_bound}"


def _determinant_condition():
    ring = witt_ring(3, 2, 1)
    good = canonical_lie_action(ring, -1, 1, 1)
    bad = canonical_lie_action(ring, -1, 2, 0)
    ok = dieudonne.determinant_condition(1, 1, -1, good)
    ok = ok and not dieudonne.determinant_condition(1, 1, -1, bad)
    return ok, "accepts diag(-u, u), rejects diag(-u, -u)"


def _exponent():
    for g in (2, 4, 6, 8):
        for r in range(g + 1):
            if count.asymptotic_exponent_symbolic(g, r, g - r) != g * g + g + 1 - r * (g - r):
                return False, f"(g,r) = ({g},{r})"
    return True, "factor degrees reproduce g^2+g+1-rs, g <= 8"


def _lemma(p: int, alpha: int, r: int, s: int):
    rep = groups.lemma_gp_check(p, alpha, r, s)
    return rep.ok and rep.gp_order == groups.order_gusplit(r, s, p), (
        f"group {rep.group_order} = kernel {rep.kernel_size} x image {rep.image_size}; "
        f"surjective = {rep.surjective}"
    )


def _equivariant(elements_of, *params: int):
    """The regular coset space of a group of coded matrices over F_9 with
    its natural representation: the equivariant functions are the values
    at the identity, so the dimension is the matrix size."""
    space, rho = count.regular_coset_space(field_table(3), elements_of(*params))
    dim = count.equivariant_dimension(space, rho)
    return dim == rho.dim, f"regular-space dimension {dim} vs rep dim {rho.dim}"


QUICK = (
    ("su-order-vs-enumeration(2,3)", partial(_order, "su", 2, 3)),
    ("u-order-vs-enumeration(1,3)", partial(_order, "u", 1, 3)),
    ("gusplit-order-vs-enumeration(1,1,3)", partial(_order, "gusplit", 1, 1, 3)),
    ("gusplit-order-vs-enumeration(2,0,3)", partial(_order, "gusplit", 2, 0, 3)),
    ("gsp-order-vs-enumeration(1,3)", partial(_order, "gsp", 1, 3)),
    ("gsp-order-vs-hyperbolic-pairs(2,3)", partial(_order, "gsp", 2, 3)),
    ("pregular-classes-vs-enumeration(1,1,3)", partial(_pregular, 1, 1, 3)),
    ("pregular-classes-vs-enumeration(2,0,3)", partial(_pregular, 2, 0, 3)),
    ("sylow-order-vs-formula(3)", _sylow),
    ("aut-bruteforce-vs-gusplit-order(3,1,1)", partial(_aut, 1, 1)),
    ("newton-polygon-a-half(3)", _newton),
    ("superspecial-model-core(3,1,1)", partial(_model, 1, 1)),
    ("pairing-well-definedness(3,1,1)", partial(_pairing, 1, 1)),
    ("mass-constant-zeta-vs-bernoulli(g<=8)", _mass),
    ("pipeline-decomposition(3,-1,1,1,3)", _pipeline),
    ("determinant-condition(3,-1,1,1)", _determinant_condition),
    ("asymptotic-exponent-decomposition(g<=8)", _exponent),
)

FULL = QUICK + (
    ("su-order-vs-enumeration(2,5)", partial(_order, "su", 2, 5)),
    ("gusplit-order-vs-enumeration(1,1,5)", partial(_order, "gusplit", 1, 1, 5)),
    ("pregular-classes-vs-enumeration(1,1,5)", partial(_pregular, 1, 1, 5)),
    ("lemma-gp-check(3,-1,1,1)", partial(_lemma, 3, -1, 1, 1)),
    ("superspecial-model-core(3,2,2)", partial(_model, 2, 2)),
    ("endpoint-admissibility(3,2,2)", partial(_admissibility, 2, 2)),
    ("equivariant-dimension-regular(3,1,1)", partial(_equivariant, groups.gusplit_group_elements, 1, 1, 3)),
    ("u-order-vs-enumeration(3,3)", partial(_order, "u", 3, 3)),
    ("gusplit-order-vs-enumeration(2,2,3)", partial(_order, "gusplit", 2, 2, 3)),
    ("pregular-classes-vs-enumeration(2,2,3)", partial(_pregular, 2, 2, 3)),
    ("lemma-gp-check(7,-1,1,1)", partial(_lemma, 7, -1, 1, 1)),
    ("aut-bruteforce-vs-gusplit-order(3,2,2)", partial(_aut, 2, 2)),
    ("pregular-classes-vs-enumeration(2,0,5)", partial(_pregular, 2, 0, 5)),
    ("gusplit-order-vs-enumeration(3,1,3)", partial(_order, "gusplit", 3, 1, 3)),
    ("aut-bruteforce-vs-gusplit-order(3,3,1)", partial(_aut, 3, 1)),
    ("superspecial-model-core(3,3,1)", partial(_model, 3, 1)),
    ("endpoint-admissibility(3,3,1)", partial(_admissibility, 3, 1)),
    ("lemma-gp-check(3,-1,2,2)", partial(_lemma, 3, -1, 2, 2)),
    ("pairing-well-definedness(3,2,2)", partial(_pairing, 2, 2)),
    ("pairing-well-definedness(3,3,1)", partial(_pairing, 3, 1)),
    ("gsp-order-vs-hyperbolic-pairs(4,3)", partial(_order, "gsp", 4, 3)),
    ("lemma-gp-check(3,-1,3,1)", partial(_lemma, 3, -1, 3, 1)),
    ("gsp-order-vs-hyperbolic-pairs(4,5)", partial(_order, "gsp", 4, 5)),
    ("gsp-order-vs-hyperbolic-pairs(4,4)", partial(_order, "gsp", 4, 4)),
    ("gsp-order-vs-hyperbolic-pairs(2,12)", partial(_order, "gsp", 2, 12)),
    ("equivariant-dimension-regular-su(2,3)", partial(_equivariant, groups.su_group_elements, 2, 3)),
)


def run(level: str) -> dict:
    """Run the checks of `level`; an SspError fails its check only."""
    checks = {"quick": QUICK, "full": FULL}.get(level)
    if checks is None:
        raise ValidationError("--level must be quick or full")
    entries = []
    for name, thunk in checks:
        try:
            ok, detail = thunk()
        except SspError as e:
            ok, detail = False, f"error: {e}"
        entries.append({"name": name, "ok": ok, "detail": detail})
    failed = [e["name"] for e in entries if not e["ok"]]
    return {
        "checks": entries,
        "passed": len(entries) - len(failed),
        "failed": len(failed),
        "first_failure": failed[0] if failed else None,
    }
