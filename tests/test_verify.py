"""The verification registry: its names, their order and its levels."""

from ssp import verify
from ssp.errors import ValidationError

from test_acceptance import DETAILS

# `ssp verify --level full` names its checks in the order of
# test_acceptance.DETAILS, which pins each check's detail; a check is
# added by appending it to the registry and to DETAILS


def test_full_names_in_order():
    assert [name for name, _ in verify.FULL] == list(DETAILS)


def test_quick_is_the_first_17():
    assert [name for name, _ in verify.QUICK] == list(DETAILS)[:17]


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
