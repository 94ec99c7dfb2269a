"""The verification registry: its names, their order and its levels."""

from ssp import verify
from ssp.errors import ValidationError

# `ssp verify --level full` names its checks in this order; a check is
# added by appending it here and to the registry
FULL_NAMES = [
    "su-order-vs-enumeration(2,3)",
    "u-order-vs-enumeration(1,3)",
    "gusplit-order-vs-enumeration(1,1,3)",
    "gusplit-order-vs-enumeration(2,0,3)",
    "gsp-order-vs-enumeration(1,3)",
    "gsp-order-vs-hyperbolic-pairs(2,3)",
    "pregular-classes-vs-enumeration(1,1,3)",
    "pregular-classes-vs-enumeration(2,0,3)",
    "sylow-order-vs-formula(3)",
    "aut-bruteforce-vs-gusplit-order(3,1,1)",
    "newton-polygon-a-half(3)",
    "superspecial-model-core(3,1,1)",
    "pairing-well-definedness(3,1,1)",
    "mass-constant-zeta-vs-bernoulli(g<=8)",
    "pipeline-decomposition(3,-1,1,1,3)",
    "determinant-condition(3,-1,1,1)",
    "asymptotic-exponent-decomposition(g<=8)",
    "su-order-vs-enumeration(2,5)",
    "gusplit-order-vs-enumeration(1,1,5)",
    "pregular-classes-vs-enumeration(1,1,5)",
    "lemma-gp-check(3,-1,1,1)",
    "superspecial-model-core(3,2,2)",
    "endpoint-admissibility(3,2,2)",
    "equivariant-dimension-regular(3,1,1)",
    "u-order-vs-enumeration(3,3)",
    "gusplit-order-vs-enumeration(2,2,3)",
    "pregular-classes-vs-enumeration(2,2,3)",
    "lemma-gp-check(7,-1,1,1)",
    "aut-bruteforce-vs-gusplit-order(3,2,2)",
    "pregular-classes-vs-enumeration(2,0,5)",
    "gusplit-order-vs-enumeration(3,1,3)",
    "aut-bruteforce-vs-gusplit-order(3,3,1)",
    "superspecial-model-core(3,3,1)",
    "endpoint-admissibility(3,3,1)",
    "lemma-gp-check(3,-1,2,2)",
    "pairing-well-definedness(3,2,2)",
    "pairing-well-definedness(3,3,1)",
    "gsp-order-vs-hyperbolic-pairs(4,3)",
    "lemma-gp-check(3,-1,3,1)",
    "gsp-order-vs-hyperbolic-pairs(4,5)",
    "gsp-order-vs-hyperbolic-pairs(4,4)",
    "gsp-order-vs-hyperbolic-pairs(2,12)",
    "equivariant-dimension-regular-su(2,3)",
]


def test_full_names_in_order():
    assert [name for name, _ in verify.FULL] == FULL_NAMES


def test_quick_is_the_first_17():
    assert [name for name, _ in verify.QUICK] == FULL_NAMES[:17]


def test_names_are_unique():
    names = [name for name, _ in verify.FULL]
    assert len(set(names)) == len(names)


def test_a_raising_check_fails_only_itself(monkeypatch):
    def broken():
        raise ValidationError("no oracle")

    checks = (("ok", lambda: (True, "")), ("broken", broken), ("also-ok", lambda: (True, "")))
    monkeypatch.setattr(verify, "QUICK", checks)
    results = verify.run("quick")
    assert [e["ok"] for e in results["checks"]] == [True, False, True]
    assert results["checks"][1]["detail"] == "error: no oracle"
    assert (results["passed"], results["failed"], results["first_failure"]) == (2, 1, "broken")


def test_lemma_check_pins_the_order_of_g_p(monkeypatch):
    # lemma-gp-check also requires |G(p)| = order_gusplit(1, 1, p), so with
    # surjectivity its image has all 32 elements at p = 3
    assert verify._lemma(3, -1, 1, 1)[0]
    monkeypatch.setattr(verify.groups, "order_gusplit", lambda r, s, p: 31)
    assert not verify._lemma(3, -1, 1, 1)[0]


def test_sylow_check_reads_the_shipped_dimension_factor(monkeypatch):
    # sylow-order-vs-formula(3) checks groups.irrep_dim_bound, the factor
    # that `bound` multiplies in, not a retyped p^((r(r-1)+s(s-1))/2)
    assert verify._sylow() == (True, "p-Sylow orders match p^((r(r-1)+s(s-1))/2)")
    real = verify.groups.irrep_dim_bound
    monkeypatch.setattr(verify.groups, "irrep_dim_bound", lambda r, s, p: p * real(r, s, p))
    assert verify._sylow() == (False, "(r,s)=(1,1): 1 vs 3")
