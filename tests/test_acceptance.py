"""Acceptance gate: every formula-vs-oracle check registered in
ssp.verify, each printing one PASS/FAIL line (run with -s to see them
alongside the pytest dots).  What the registry does not cover is checked
in the unit tests of its subject."""

import time

import pytest

from ssp import verify

# wall seconds per check; the slowest registered check takes well under 1 s
CHECK_SECONDS = 12

# each check's detail, pinned: a change that alters one on purpose
# re-pins it here and records the old and new detail in CHANGES.md
DETAILS = {
    "su-order-vs-enumeration(2,3)": "24 vs 24",
    "u-order-vs-enumeration(1,3)": "4 vs 4",
    "gusplit-order-vs-enumeration(1,1,3)": "32 vs 32",
    "gusplit-order-vs-enumeration(2,0,3)": "192 vs 192",
    "gsp-order-vs-enumeration(1,3)": "48 vs 48",
    "gsp-order-vs-hyperbolic-pairs(2,3)": "103680 vs 103680",
    "pregular-classes-vs-enumeration(1,1,3)": "32 vs 32",
    "pregular-classes-vs-enumeration(2,0,3)": "24 vs 24",
    "sylow-order-vs-formula(3)": "p-Sylow orders match p^((r(r-1)+s(s-1))/2)",
    "aut-bruteforce-vs-gusplit-order(3,1,1)": "32 vs 32",
    "newton-polygon-a-half(3)": "slopes ((Fraction(1, 2), 2),)",
    "superspecial-model-core(3,1,1)": "quotient dims (1, 1) vs (1,1)",
    "pairing-well-definedness(3,1,1)": "0 disagreements in 20 trials",
    "mass-constant-zeta-vs-bernoulli(g<=8)": "zeta form equals |Bernoulli| form, positive, g <= 8",
    "pipeline-decomposition(3,-1,1,1,3)": "360 * 32 = 11520",
    "determinant-condition(3,-1,1,1)": "accepts diag(-u, u), rejects diag(-u, -u)",
    "asymptotic-exponent-decomposition(g<=8)": "factor degrees reproduce g^2+g+1-rs, g <= 8",
    "su-order-vs-enumeration(2,5)": "120 vs 120",
    "gusplit-order-vs-enumeration(1,1,5)": "144 vs 144",
    "pregular-classes-vs-enumeration(1,1,5)": "144 vs 144",
    "lemma-gp-check(3,-1,1,1)": "group 288 = kernel 9 x image 32; surjective = True",
    "superspecial-model-core(3,2,2)": "quotient dims (2, 2) vs (2,2)",
    "endpoint-admissibility(3,2,2)": "t_N = 4, t_H = 4",
    "equivariant-dimension-regular(3,1,1)": "regular-space dimension 2 vs rep dim 2",
    "u-order-vs-enumeration(3,3)": "24192 vs 24192",
    "gusplit-order-vs-enumeration(2,2,3)": "18432 vs 18432",
    "pregular-classes-vs-enumeration(2,2,3)": "288 vs 288",
    "lemma-gp-check(7,-1,1,1)": "group 18816 = kernel 49 x image 384; surjective = True",
    "aut-bruteforce-vs-gusplit-order(3,2,2)": "18432 vs 18432",
    "pregular-classes-vs-enumeration(2,0,5)": "120 vs 120",
    "gusplit-order-vs-enumeration(3,1,3)": "193536 vs 193536",
    "aut-bruteforce-vs-gusplit-order(3,3,1)": "193536 vs 193536",
    "superspecial-model-core(3,3,1)": "quotient dims (3, 1) vs (3,1)",
    "endpoint-admissibility(3,3,1)": "t_N = 4, t_H = 4",
    "lemma-gp-check(3,-1,2,2)": "group 120932352 = kernel 6561 x image 18432; surjective = True",
    "pairing-well-definedness(3,2,2)": "0 disagreements in 20 trials",
    "pairing-well-definedness(3,3,1)": "0 disagreements in 20 trials",
    "gsp-order-vs-hyperbolic-pairs(4,3)": "263139026617958400 vs 263139026617958400",
    "lemma-gp-check(3,-1,3,1)": "group 141087744 = kernel 729 x image 193536; surjective = True",
    "gsp-order-vs-hyperbolic-pairs(4,5)": "55786234140000000000000000 vs 55786234140000000000000000",
    "gsp-order-vs-hyperbolic-pairs(4,4)": "6511529521233631641600 vs 6511529521233631641600",
    "gsp-order-vs-hyperbolic-pairs(2,12)": "152882380800 vs 152882380800",
    "equivariant-dimension-regular-su(2,3)": "regular-space dimension 2 vs rep dim 2",
}


@pytest.mark.parametrize("name, check", verify.FULL, ids=[name for name, _ in verify.FULL])
def test_verify_check(name, check):
    t0 = time.monotonic()
    ok, detail = check()
    elapsed = time.monotonic() - t0
    print(f"{'PASS' if ok else 'FAIL'} verify {name}")
    assert ok, f"verify {name}: {detail}"
    assert detail == DETAILS[name], f"verify {name}: detail {detail!r}, pinned {DETAILS[name]!r}"
    assert elapsed < CHECK_SECONDS, f"verify {name} took {elapsed:.1f} s"
