import csv
import io
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from ssp import cli, count, errors, groups
from ssp.cli import main
from ssp.errors import (
    BudgetExceededError,
    FormulaInconsistencyError,
    InsufficientPrecisionError,
    SspError,
    ValidationError,
)
from ssp.gf import PRIME_CERT_LIMIT
from ssp.witt import MAX_TRUNCATION


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestBound:
    def test_headline_values(self, capsys):
        code, out = run(capsys, "bound", "--p", "3", "--alpha", "-1", "--r", "1", "--s", "1", "--N", "3")
        assert code == 0
        rep = json.loads(out)
        res = rep["results"]
        assert res["final_bound"] == {"value": "11520", "provenance": "bound"}
        assert res["asymptotic_exponent"]["value"] == "6"
        assert res["superspecial_bound"]["value"] == "360"
        assert any("Siegel" in n for n in rep["notes"])

    def test_determinism_byte_identical(self, capsys):
        argv = ("bound", "--p", "3", "--alpha", "-1", "--r", "1", "--s", "1", "--N", "3")
        _, out1 = run(capsys, *argv)
        _, out2 = run(capsys, *argv)
        assert out1 == out2

    def test_odd_g_exits_2(self, capsys):
        code, out = run(capsys, "bound", "--p", "3", "--alpha", "-1", "--r", "1", "--s", "2", "--N", "3")
        assert code == 2
        assert "even" in json.loads(out)["results"]["error"]

    def test_p_divides_alpha_exits_2(self, capsys):
        code, out = run(capsys, "bound", "--p", "3", "--alpha", "-3", "--r", "1", "--s", "1", "--N", "3")
        assert code == 2

    def test_split_prime_names_violation(self, capsys):
        code, out = run(capsys, "bound", "--p", "5", "--alpha", "-1", "--r", "1", "--s", "1", "--N", "3")
        assert code == 2
        assert "QR mod p" in json.loads(out)["results"]["error"]

    def test_every_number_carries_provenance(self, capsys):
        _, out = run(capsys, "bound", "--p", "3", "--alpha", "-1", "--r", "1", "--s", "1", "--N", "3")
        for key, entry in json.loads(out)["results"].items():
            assert set(entry) == {"value", "provenance"}, key
            assert entry["provenance"] in ("formula", "enumeration", "bound")

    def test_csv_output(self, capsys):
        code, out = run(capsys, "bound", "--p", "3", "--alpha", "-1", "--r", "1", "--s", "1", "--N", "3", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,value,provenance"
        assert any(line.startswith("final_bound,11520,bound") for line in lines)


    def test_internal_inconsistency_exits_1(self, capsys, monkeypatch):
        def broken(args):
            raise FormulaInconsistencyError("two routes disagree")

        monkeypatch.setattr(cli, "_cmd_bound", broken)
        code, out = run(capsys, "bound", "--p", "3", "--alpha", "-1", "--r", "1", "--s", "1", "--N", "3")
        assert code == 1
        rep = json.loads(out)
        assert rep["status"] == "error" and rep["results"]["error"] == "two routes disagree"


    def test_uncertified_p_exits_2_at_once(self, run_capped):
        # 2^89 - 1 has no factor up to 41 and lies past the Miller-Rabin limit
        proc = run_capped("bound", "--p", str(2**89 - 1), "--alpha", "-1", "--r", "1", "--s", "1", "--N", "3")
        assert proc.returncode == 2, proc.stderr
        assert str(PRIME_CERT_LIMIT) in json.loads(proc.stdout)["results"]["error"]

    @pytest.mark.parametrize(
        "alpha, N",
        [(-(2**61 - 1), 3), (-1, 2**61 - 1)],
        ids=["prime-alpha", "prime-N"],
    )
    def test_large_prime_alpha_or_N_finishes(self, run_capped, alpha, N):
        # a prime -alpha or N ends trial division at once; 2^61 - 1 is prime
        argv = ("--p", "3", "--alpha", str(alpha), "--r", "1", "--s", "1", "--N", str(N))
        proc = run_capped("bound", *argv, timeout=20)
        assert proc.returncode == 0, proc.stderr
        # ceil(C_2 #GSp_4(F_N) (p - 1)(p^2 + 1)) x 32 classes x dimension 1, N prime
        gsp_order = N**4 * (N - 1) * (N**2 - 1) * (N**4 - 1)
        want = math.ceil(Fraction(1, 5760) * gsp_order * (3 - 1) * (3**2 + 1)) * 32
        assert json.loads(proc.stdout)["results"]["final_bound"]["value"] == str(want)

    def test_composite_N_without_small_factor_exits_4(self, capsys, monkeypatch):
        monkeypatch.setenv("SSP_MAX_ENUM", "10000")
        N = (2**31 - 1) ** 2
        code, out = run(capsys, "bound", "--p", "3", "--alpha", "-1", "--r", "1", "--s", "1", "--N", str(N))
        assert code == 4
        assert "factorize" in json.loads(out)["results"]["error"]

    def test_big_integers_serialize(self, capsys):
        # values of 1500 to 13 000 digits, past the interpreter's 4300-digit
        # int -> str limit; the digits must read back as the exact values
        argv = ("--p", "3", "--alpha", "-1", "--r", "40", "--s", "40", "--N", "3")
        code, out = run(capsys, "bound", *argv)
        assert code == 0
        res = json.loads(out)["results"]
        rep = count.eigensystem_bound(count.SignatureParams(p=3, alpha=-1, r=40, s=40, N=3))
        assert len(res["final_bound"]["value"]) > 4300
        for key in ("c_g", "gsp_order", "mass_product", "final_bound", "dim_bound"):
            assert _read_decimal(res[key]["value"]) == getattr(rep, key), key
        assert _read_decimal(res["superspecial_bound"]["value"]) == rep.superspecial_bound_exact
        code, csv_out = run(capsys, "bound", *argv, "--csv")
        assert code == 0
        assert f"final_bound,{res['final_bound']['value']},bound" in csv_out.splitlines()

    @pytest.mark.parametrize("r, s", [(64, 64), (65, 1), (1, 65)])
    def test_r_and_s_share_the_group_size_cap(self, capsys, r, s):
        # r and s are capped at witt.MAX_TRUNCATION, as GroupSpec's sizes
        # are: past it `bound` exits 2 and `sweep` skips every row
        sizes = ("--alpha", "-1", "--r", str(r), "--s", str(s), "--N", "3")
        refused = max(r, s) > MAX_TRUNCATION
        reason = f"r and s must be <= 64, got r = {r}, s = {s}"
        code, out = run(capsys, "bound", "--p", "3", *sizes)
        assert (code, json.loads(out)["results"].get("error")) == ((2, reason) if refused else (0, None))
        code, out = run(capsys, "sweep", "--sweep", "3:13", *sizes)
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        capped = [row for row in rows if row["status"] == "skipped" and row["reason"] == reason]
        assert (len(rows), len(capped)) == (5, 5 if refused else 0)

    def test_decimal_matches_str(self):
        for n in (0, 7, -7, 10**599, 10**600 - 1, 10**600, -(10**600), 10**1200 + 5, -(3**5000)):
            assert _read_decimal(cli._decimal(n)) == n
        for n in (0, -1, 10**600 - 1, 3**1000, -(10**3000)):
            assert cli._decimal(n) == str(n)


def _read_decimal(text):
    """int or Fraction from a decimal string of any length, 500 digits at a time."""
    if "/" in text:
        num, den = text.split("/")
        return Fraction(_read_decimal(num), _read_decimal(den))
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), 500):
        chunk = digits[i : i + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


class TestGroup:
    def test_gusplit_order(self, capsys):
        code, out = run(capsys, "group", "--family", "gusplit", "--params", "1,1,3")
        assert code == 0
        assert json.loads(out)["results"]["order"]["value"] == "32"

    def test_with_oracle(self, capsys):
        code, out = run(capsys, "group", "--family", "su", "--params", "2,3", "--oracle")
        res = json.loads(out)["results"]
        assert res["order"]["value"] == res["order_enumerated"]["value"] == "24"
        assert res["match"] is True

    @pytest.mark.parametrize("params", ["2,4", "2,1"])
    def test_gsp_oracle_matches_at_composite_and_unit_level(self, capsys, params):
        code, out = run(capsys, "group", "--family", "gsp", "--params", params, "--oracle")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["order"]["value"] == res["order_enumerated"]["value"]
        assert res["match"] is True

    def test_bad_family(self, capsys):
        code, _ = run(capsys, "group", "--family", "so", "--params", "2,3")
        assert code == 2

    def test_bad_arity(self, capsys):
        code, _ = run(capsys, "group", "--family", "su", "--params", "1,1,3")
        assert code == 2

    @pytest.mark.parametrize("family, params", [("su", "2,2"), ("u", "1,2"), ("gu", "1,2"), ("gusplit", "1,1,2")])
    @pytest.mark.parametrize("oracle", [[], ["--oracle"]])
    def test_p_2_exits_2_with_or_without_oracle(self, capsys, family, params, oracle):
        # the closed form and the oracle refuse p = 2 alike
        code, out = run(capsys, "group", "--family", family, "--params", params, *oracle)
        assert code == 2
        assert json.loads(out)["results"]["error"] == "p = 2 must be an odd prime"

    @pytest.mark.parametrize(
        "family, last",
        [("su", 1000003), ("u", 1000003), ("gu", 1000003), ("gusplit", 1000003), ("gsp", 10**6)],
    )
    def test_sizes_are_capped_at_64(self, capsys, monkeypatch, family, last):
        # every parameter but the last is a size, and 64 is its cap
        sizes = groups.group_family(family).arity - 1
        code, out = run(capsys, "group", "--family", family, "--params", ",".join(["64"] * sizes + [str(last)]))
        assert code == 0 and json.loads(out)["status"] == "ok"

        def forbidden(*params):
            raise AssertionError(f"order formed at {params}")

        # past the cap, the refusal comes before any order is formed
        refusing = groups.FAMILIES[family]._replace(order=forbidden, oracle=forbidden)
        monkeypatch.setitem(groups.FAMILIES, family, refusing)
        for i in range(sizes):
            params = ["64"] * sizes + [str(last)]
            params[i] = "65"
            for oracle in ([], ["--oracle"]):
                code, out = run(capsys, "group", "--family", family, "--params", ",".join(params), *oracle)
                assert code == 2
                assert json.loads(out)["results"]["error"].endswith("<= 64, got 65")

    @pytest.mark.parametrize(
        "family, params",
        [("su", "2,4"), ("su", "2,-3"), ("u", "2,4"), ("gu", "2,-3"), ("gusplit", "1,1,4")],
    )
    def test_non_prime_p_exits_2(self, capsys, family, params):
        code, out = run(capsys, "group", "--family", family, "--params", params)
        assert code == 2
        assert "not prime" in json.loads(out)["results"]["error"]

    @pytest.mark.parametrize(
        "params, reached",
        [
            # 9^9 vectors: over the default budget before any is stored
            ("9,3", "reached 387420489"),
            # 9^8 vectors fit the budget, but the first column's filtering does not
            ("8,3", "would reach"),
        ],
    )
    def test_oversized_oracle_exits_4_before_storing(self, run_capped, params, reached):
        proc = run_capped("group", "--family", "u", "--params", params, "--oracle")
        assert proc.returncode == 4, proc.stderr
        error = json.loads(proc.stdout)["results"]["error"]
        assert f"unitary_group_elements {reached}" in error

    def test_oversized_field_tables_exit_4_at_once(self, run_capped):
        # F_{101^2} has q = 10201: each dense table would hold q^2 > 10^8 entries
        proc = run_capped("group", "--family", "u", "--params", "1,101", "--oracle", timeout=20)
        assert proc.returncode == 4, proc.stderr
        error = json.loads(proc.stdout)["results"]["error"]
        assert f"unitary_group_elements would reach {10201**2} candidates" in error

    @pytest.mark.parametrize(
        "params, message",
        [
            # N^(2k) + N hyperbolic-pair steps, k = 1..g, and N units,
            # charged before any is taken, at g = 1 as at g = 2
            (
                "2,101",
                f"gsp_order_enumerated would reach {101 + (101**2 + 101) + (101**4 + 101)} candidates",
            ),
            ("1,100000", f"gsp_order_enumerated would reach {100000 + (100000**2 + 100000)} candidates"),
        ],
        ids=["gsp", "gl2"],
    )
    def test_oversized_gsp_oracles_exit_4_at_once(self, run_capped, params, message):
        proc = run_capped("group", "--family", "gsp", "--params", params, "--oracle", timeout=20)
        assert proc.returncode == 4, proc.stderr
        assert message in json.loads(proc.stdout)["results"]["error"]

    def test_gusplit_2_2_7_oracle_counts_without_a_list(self, run_capped):
        # 43 352 064 elements: the oracle counts the frames of each block
        # instead of listing their products, which ends in MemoryError
        proc = run_capped("group", "--family", "gusplit", "--params", "2,2,7", "--oracle", timeout=60)
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout)["results"]
        assert res["order"]["value"] == res["order_enumerated"]["value"] == "43352064"

    def test_gsp_oracle_at_7_finishes(self, run_capped):
        # 7^8 vector pairs, but 7^4 (2 * 7^2 + 7) half-vector steps
        proc = run_capped("group", "--family", "gsp", "--params", "2,7", "--oracle", timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert '"match": true' in proc.stdout


# (s, error message): a field degree the Witt ring refuses, in a newton spec
# or in an amf representation's field
_DEGREES_OUTSIDE_1_TO_64 = [(65, "s must be <= 64"), (10**9, "s must be <= 64"), (0, "s must be >= 1")]


class TestNewton:
    def test_a_half_fixture(self, tmp_path, capsys):
        spec = {
            "p": 3,
            "s": 2,
            "n": 2,
            "rank": 2,
            "F": [[0, 1], [-3, 0]],
            "V": [[0, -1], [3, 0]],
            "E": [[0, 1], [-1, 0]],
        }
        path = tmp_path / "a_half.json"
        path.write_text(json.dumps(spec))
        code, out = run(capsys, "newton", str(path))
        assert code == 0
        res = json.loads(out)["results"]
        assert res["slopes"]["value"] == "1/2 x2"
        assert res["isoclinic"] is True and res["basic"] is True
        assert res["t_newton"]["value"] == "1" and res["endpoints_equal"] is True

    def test_spec_without_n_uses_default_truncation(self, tmp_path, capsys):
        spec = {
            "p": 3,
            "s": 2,
            "rank": 2,
            "F": [[0, 1], [-3, 0]],
            "V": [[0, -1], [3, 0]],
            "E": [[0, 1], [-1, 0]],
        }
        path = tmp_path / "a_half_no_n.json"
        path.write_text(json.dumps(spec))
        code, out = run(capsys, "newton", str(path))
        assert code == 0
        assert json.loads(out)["results"]["slopes"]["value"] == "1/2 x2"

    def test_insufficient_precision_exits_3(self, tmp_path, capsys):
        spec = {
            "p": 3,
            "s": 1,
            "n": 2,
            "rank": 2,
            "F": [[0, 0], [0, 0]],
            "V": [[1, 0], [0, 1]],
        }
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(spec))
        code, _ = run(capsys, "newton", str(path))
        assert code == 3

    def test_missing_file_exits_2(self, capsys):
        code, _ = run(capsys, "newton", "no-such-file.json")
        assert code == 2

    def test_bad_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run(capsys, "newton", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "doc, field",
        [
            ([1], "JSON object"),
            ({"F": 1}, "'rank'"),
            (
                {"p": 3, "s": 2, "n": 2, "rank": 2, "F": [[0, "x"], [-3, 0]], "V": [[0, -1], [3, 0]]},
                "'F[0][1]'",
            ),
            (
                {"p": 3, "s": 2, "n": 2, "rank": 2, "F": [[[0, 1, 5], 1], [-3, 0]], "V": [[0, -1], [3, 0]]},
                "'F[0][0]'",
            ),
            (
                {"p": 3, "s": 2, "n": 2, "rank": 2, "F": [[0, 1], 1], "V": [[0, -1], [3, 0]]},
                "'F[1]' must be a list",
            ),
            ({"p": 3, "s": 2, "n": 2, "rank": 3, "F": [[0, 1], [-3, 0]], "V": [[0, -1], [3, 0]]}, "F matrix is not 3 x 3"),
            ({"p": 3, "s": 2, "n": 2, "rank": 2, "F": [[0, 1], [-3, 0]], "V": [[0, -1], [3]]}, "V matrix is not 2 x 2"),
            (
                {"p": 3, "s": 2, "n": 2, "rank": 2, "F": [[0, 1], [-3, 0]], "V": [[0, -1], [3, 0]], "action": [[1, 0]] * 2},
                "must record alpha",
            ),
        ],
        ids=[
            "top-level-list",
            "missing-rank",
            "non-integer-entry",
            "long-coefficient-vector",
            "row-not-a-list",
            "rank-is-not-the-size-of-F",
            "ragged-V",
            "action-without-alpha",
        ],
    )
    def test_malformed_spec_exits_2_naming_field(self, tmp_path, capsys, doc, field):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "newton", str(path))
        assert code == 2
        assert field in json.loads(out)["results"]["error"]

    @pytest.mark.parametrize(
        "n, error", [(0, ">= 1"), (None, "'n'"), (65, "<= 64"), (10**9, "<= 64")], ids=["0", "null", "65", "1e9"]
    )
    def test_truncation_outside_1_to_64_exits_2(self, tmp_path, capsys, n, error):
        # a present "n" is checked like any other field: 0 is not read as absent
        spec = {"p": 3, "s": 2, "n": n, "rank": 2, "F": [[0, 1], [-3, 0]], "V": [[0, -1], [3, 0]]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out = run(capsys, "newton", str(path))
        assert code == 2
        assert error in json.loads(out)["results"]["error"]

    @pytest.mark.parametrize("n, level", [(None, "6"), (2, "4")], ids=["default-n", "n2"])
    def test_spec_is_read_once_for_every_level(self, tmp_path, capsys, monkeypatch, n, level):
        # the README example: without "n" the start 2 * rank + 2 = 6 suffices;
        # n = 2 censors det F^2 and is doubled once, to 4.  Either way each
        # entry of F, V and E is read once, and the Hodge polygon and
        # truncation_used come from the module of the level used
        from ssp import errors

        reads = []
        real = errors.spec_entry
        monkeypatch.setattr(errors, "spec_entry", lambda x, field, *rest: reads.append(field) or real(x, field, *rest))
        spec = {"p": 3, "s": 2, "rank": 2, "F": [[0, 1], [-3, 0]], "V": [[0, -1], [3, 0]], "E": [[0, 1], [-1, 0]]}
        path = tmp_path / "module.json"
        path.write_text(json.dumps(spec if n is None else spec | {"n": n}))
        code, out = run(capsys, "newton", str(path))
        assert code == 0
        res = json.loads(out)["results"]
        assert res["hodge_weights"]["value"] == "0 x1; 1 x1" and res["truncation_used"]["value"] == level
        assert sorted(reads) == sorted(f"{M}[{i}][{j}]" for M in "FVE" for i in range(2) for j in range(2))

    @pytest.mark.parametrize("s, message", _DEGREES_OUTSIDE_1_TO_64, ids=["65", "1e9", "0"])
    def test_degree_outside_1_to_64_exits_2_at_once(self, tmp_path, run_capped, s, message):
        # the cost of a ring grows with s: s = 200 ran past 40 s before the cap
        spec = {"p": 3, "s": s, "n": 2, "rank": 2, "F": [[0, 1], [-3, 0]], "V": [[0, -1], [3, 0]]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        proc = run_capped("newton", str(path), timeout=20)
        assert proc.returncode == 2, proc.stderr
        assert message in json.loads(proc.stdout)["results"]["error"]

    def test_truncation_at_the_cap_is_used(self, tmp_path, capsys):
        spec = {"p": 3, "s": 2, "n": 64, "rank": 2, "F": [[0, 1], [-3, 0]], "V": [[0, -1], [3, 0]]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out = run(capsys, "newton", str(path))
        assert code == 0
        assert json.loads(out)["results"]["truncation_used"]["value"] == "64"


class TestPairing:
    def test_orders_match(self, capsys):
        code, out = run(capsys, "pairing", "--p", "3", "--alpha", "-1", "--r", "1", "--s", "1")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["aut_order_formula"]["value"] == res["aut_order_enumerated"]["value"] == "32"
        assert res["match"] is True
        assert res["well_definedness_disagreements"]["value"] == "0"

    def test_budget_exits_4(self, capsys, monkeypatch):
        monkeypatch.setenv("SSP_MAX_ENUM", "5")
        code, _ = run(capsys, "pairing", "--p", "3", "--alpha", "-1", "--r", "1", "--s", "1")
        assert code == 4

    def test_budget_error_names_routine_and_count(self, capsys, monkeypatch):
        monkeypatch.setenv("SSP_MAX_ENUM", "5")
        _, out = run(capsys, "pairing", "--p", "3", "--alpha", "-1", "--r", "1", "--s", "1")
        # the 81 entries of each dense F_9 table are charged before they are built
        assert "automorphism_group_order would reach 81 candidates" in json.loads(out)["results"]["error"]

    def test_oversized_field_tables_exit_4_at_once(self, run_capped):
        # F_{101^2} has q = 10201: each dense table would hold q^2 > 10^8 entries
        proc = run_capped("pairing", "--p", "101", "--alpha", "-2", "--r", "1", "--s", "1", timeout=20)
        assert proc.returncode == 4, proc.stderr
        error = json.loads(proc.stdout)["results"]["error"]
        assert f"automorphism_group_order would reach {10201**2} candidates" in error

    def test_2_2_7_counts_without_a_list(self, run_capped):
        proc = run_capped("pairing", "--p", "7", "--alpha", "-1", "--r", "2", "--s", "2", timeout=60)
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout)["results"]
        assert res["aut_order_formula"]["value"] == res["aut_order_enumerated"]["value"] == "43352064"

    @pytest.mark.parametrize(
        "n, error",
        [("0", "must be >= 1"), ("65", "must be <= 64, got 65"), ("1000000000", "must be <= 64, got 1000000000")],
        ids=["0", "65", "1e9"],
    )
    def test_truncation_outside_1_to_64_exits_2(self, capsys, n, error):
        code, out = run(capsys, "pairing", "--p", "3", "--alpha", "-1", "--r", "1", "--s", "1", "--n", n)
        assert code == 2
        assert json.loads(out)["results"]["error"] == f"truncation level n {error}"

    @pytest.mark.parametrize("value", ["abc", "-1", "1e3"])
    def test_bad_budget_exits_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("SSP_MAX_ENUM", value)
        code, out = run(capsys, "pairing", "--p", "3", "--alpha", "-1", "--r", "1", "--s", "1")
        assert code == 2
        assert "SSP_MAX_ENUM" in json.loads(out)["results"]["error"]


class TestAmf:
    def fixture_files(self, tmp_path):
        space = {
            "points": 4,
            "generators": [{"name": "c", "perm": [1, 2, 3, 0]}],
            "group": "Z/4",
        }
        rep = {"dim": 1, "field": {"p": 3, "s": 2}, "generators": [[[1]]]}
        sp = tmp_path / "space.json"
        rp = tmp_path / "rep.json"
        sp.write_text(json.dumps(space))
        rp.write_text(json.dumps(rep))
        return str(sp), str(rp)

    def test_trivial_rep_counts_orbits(self, tmp_path, capsys):
        sp, rp = self.fixture_files(tmp_path)
        code, out = run(capsys, "amf", sp, rp)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["dimension"]["value"] == "1"
        assert res["bound_check"] is True

    def test_zero_representation_is_allowed(self, tmp_path, capsys):
        sp, rp = self.fixture_files(tmp_path)
        (tmp_path / "space.json").write_text(json.dumps({"points": 2, "generators": []}))
        (tmp_path / "rep.json").write_text(json.dumps({"dim": 0, "field": {"p": 3}, "generators": []}))
        code, out = run(capsys, "amf", sp, rp)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["dimension"]["value"] == "0" and res["bound_check"] is True

    def test_huge_representation_without_generators_builds_no_matrix(self, tmp_path, run_capped):
        # every point is its own orbit: no dim x dim identity under the 1 GiB cap
        sp, rp = self.fixture_files(tmp_path)
        (tmp_path / "space.json").write_text(json.dumps({"points": 2, "generators": []}))
        (tmp_path / "rep.json").write_text(json.dumps({"dim": 10**8, "field": {"p": 3}, "generators": []}))
        proc = run_capped("amf", sp, rp, timeout=20)
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout)["results"]
        assert res["dimension"]["value"] == str(2 * 10**8) and res["bound_check"] is True

    @pytest.mark.parametrize("s, message", _DEGREES_OUTSIDE_1_TO_64, ids=["65", "1e9", "0"])
    def test_degree_outside_1_to_64_exits_2_at_once(self, tmp_path, run_capped, s, message):
        sp, rp = self.fixture_files(tmp_path)
        (tmp_path / "rep.json").write_text(json.dumps({"dim": 1, "field": {"p": 3, "s": s}, "generators": [[[1]]]}))
        proc = run_capped("amf", sp, rp, timeout=20)
        assert proc.returncode == 2, proc.stderr
        assert message in json.loads(proc.stdout)["results"]["error"]

    @pytest.mark.parametrize(
        "space, rep, field",
        [
            ([1], None, "coset-space spec must be a JSON object"),
            ({"points": 2, "generators": [{"perm": [1, "x"]}]}, None, "'generators[0].perm[1]'"),
            (None, {"dim": 1, "field": {"s": 2}, "generators": [[[1]]]}, "'field.p'"),
            (None, {"dim": 1, "field": {"p": 3, "s": 2}, "generators": [[[[0, 1, 5]]]]}, "'generators[0][0][0]'"),
            ({"points": 2, "generators": []}, {"dim": -1, "field": {"p": 3}, "generators": []}, "'dim'"),
            ({"points": 0, "generators": []}, None, "a coset space needs at least one point"),
        ],
        ids=[
            "space-not-object",
            "non-integer-perm-entry",
            "rep-missing-field-p",
            "long-coefficient-vector",
            "negative-rep-dim",
            "no-points",
        ],
    )
    def test_malformed_fixture_exits_2_naming_field(self, tmp_path, capsys, space, rep, field):
        sp, rp = self.fixture_files(tmp_path)
        if space is not None:
            (tmp_path / "space.json").write_text(json.dumps(space))
        if rep is not None:
            (tmp_path / "rep.json").write_text(json.dumps(rep))
        code, out = run(capsys, "amf", sp, rp)
        assert code == 2
        assert field in json.loads(out)["results"]["error"]


class TestVerify:
    def test_quick_passes(self, capsys):
        code, out = run(capsys, "verify", "--level", "quick")
        assert code == 0
        rep = json.loads(out)
        assert rep["results"]["failed"] == 0
        assert rep["results"]["passed"] >= 12

    def test_fault_injection_names_failing_check(self, capsys, monkeypatch):
        # a GSp order off by one factor of ell must be caught and named
        real = groups.order_gsp_mod
        monkeypatch.setattr(groups, "order_gsp_mod", lambda g, N: real(g, N) * 3)
        code, out = run(capsys, "verify", "--level", "quick")
        assert code == 1
        rep = json.loads(out)
        assert rep["results"]["first_failure"] == "gsp-order-vs-enumeration(1,3)"

    def test_bad_level_exits_2(self, capsys):
        code, _ = run(capsys, "verify", "--level", "bogus")
        assert code == 2


class TestSweep:
    def test_sweep_rows(self, capsys):
        code, out = run(
            capsys, "sweep", "--sweep", "3:13", "--alpha", "-1", "--r", "1", "--s", "1", "--N", "3"
        )
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        by_p = {r["p"]: r for r in rows}
        assert set(by_p) == {3, 5, 7, 11, 13}
        assert by_p[3]["final_bound"]["value"] == "11520"
        # -1 is a square mod 5 and mod 13: p splits, rows are skipped
        assert by_p[5]["status"] == "skipped" and by_p[13]["status"] == "skipped"
        assert by_p[7]["status"] == by_p[11]["status"] == "ok"

    def test_empty_range_exits_2(self, capsys):
        code, out = run(
            capsys, "sweep", "--sweep", "13:3", "--alpha", "-1", "--r", "1", "--s", "1", "--N", "3"
        )
        assert code == 2
        assert "13:3" in json.loads(out)["results"]["error"]

    def test_sweep_csv(self, capsys):
        code, out = run(
            capsys,
            "sweep", "--sweep", "3:7", "--alpha", "-1", "--r", "1", "--s", "1", "--N", "3", "--csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "name,value,provenance"

    @pytest.mark.parametrize(
        "window, alpha, r, s, N",
        [
            ("--sweep=-5:60", "-1", "1", "1", "3"),  # p < 2, p = 2, split p and evaluated rows
            ("--sweep=2:40", "-3", "1", "1", "3"),  # p | alpha at p = 3
            ("--sweep=3:40", "-4", "1", "1", "3"),  # alpha not squarefree
            ("--sweep=3:40", "-1", "2", "1", "3"),  # odd g
            ("--sweep=3:40", "-1", "1", "1", "0"),  # N < 1
            ("--sweep=3:3000", "-1", "16", "16", "3"),
            ("--sweep=3:400", "-1000003", "1", "1", "3"),  # large prime alpha, factored once
            ("--sweep=3:400", "-4000012", "1", "1", "3"),  # large alpha, not squarefree
            ("--sweep=3:200", "-1", "2", "0", "3"),  # rs = 0 branch of p_regular_classes
            ("--sweep=3:60", "-1", "1", "1", "9"),  # p | N at p = 3
        ],
    )
    @pytest.mark.parametrize("as_csv", [False, True])
    def test_streamed_sweep_matches_reference(self, capsys, window, alpha, r, s, N, as_csv):
        argv = ["sweep", window, "--alpha", alpha, "--r", r, "--s", s, "--N", N] + ["--csv"] * as_csv
        code, out = run(capsys, *argv)
        assert code == 0
        assert out == _reference_sweep(window.split("=")[1], int(alpha), int(r), int(s), int(N), as_csv)

    @pytest.mark.parametrize("as_csv", [False, True])
    def test_every_row_runs_its_checks(self, capsys, monkeypatch, as_csv):
        # the sieved prime is tested again and inertness checked on each of
        # the 16 rows of 3:60; the 9 evaluated rows (p = 3 mod 4) each check
        # the irreducible-sum factors and reassemble the superspecial bound
        # from its one lookup of the cached part that does not depend on p
        calls = {name: 0 for name in ("is_prime", "is_nonresidue", "irrep_sum_bound", "_level_part")}

        def counted(name):
            real = getattr(count, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(count, name, counted(name))
        code, _ = run(capsys, "sweep", "--sweep", "3:60", *_SIGNATURE, "--N", "3", *["--csv"] * as_csv)
        assert code == 0
        assert calls == {"is_prime": 16, "is_nonresidue": 16, "irrep_sum_bound": 9, "_level_part": 9}

    def test_csv_writes_each_row_with_one_writerows(self, capsys, monkeypatch):
        calls = []

        class Recorder:
            def __init__(self, writer):
                self.writer = writer

            def writerow(self, row):
                calls.append(("writerow", [tuple(row)]))
                return self.writer.writerow(row)

            def writerows(self, rows):
                rows = list(rows)
                calls.append(("writerows", rows))
                return self.writer.writerows(rows)

        want = _reference_sweep("3:60", -1, 1, 1, 3, True)
        real = csv.writer
        monkeypatch.setattr(cli.csv, "writer", lambda *a, **k: Recorder(real(*a, **k)))
        code, out = run(capsys, "sweep", "--sweep", "3:60", *_SIGNATURE, "--N", "3", "--csv")
        assert code == 0 and out == want
        # the header, then one writerows per prime in 3:60, each holding
        # that row's leaves and no other
        assert calls[0] == ("writerow", [("name", "value", "provenance")])
        rows = calls[1:]
        assert [kind for kind, _ in rows] == ["writerows"] * 16
        for i, (_, leaves) in enumerate(rows):
            assert {name.partition(".")[0] for name, _, _ in leaves} == {f"rows[{i}]"}
            assert len(leaves) in (3, 6)

    @pytest.mark.parametrize("as_csv", [False, True])
    def test_error_while_rows_stream(self, capsys, monkeypatch, as_csv):
        # the rows for p = 3, 5 and 7, as an unbroken sweep writes them
        lines = _reference_sweep("3:13", -1, 1, 1, 3, True).splitlines(keepends=True)
        written = "".join(line for line in lines if line.startswith(("name,", "rows[0].", "rows[1].", "rows[2].")))
        real = count.eigensystem_bound

        def broken(params):
            if params.p == 11:
                raise FormulaInconsistencyError("two routes disagree at p = 11")
            return real(params)

        monkeypatch.setattr(count, "eigensystem_bound", broken)
        argv = ["sweep", "--sweep", "3:13", "--alpha", "-1", "--r", "1", "--s", "1", "--N", "3"]
        code = main(argv + ["--csv"] * as_csv)
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        error = {"command": "sweep", "parameters": {}, "results": {"error": "two routes disagree at p = 11"}}
        error |= {"notes": [], "status": "error"}
        if as_csv:
            # the rows already written stay, then the error report follows
            assert captured.out == written + "name,value,provenance\nerror,two routes disagree at p = 11,\n"
        else:
            assert captured.out == json.dumps(error, indent=2, sort_keys=True) + "\n"

    def test_closed_stdout_exits_0_quietly(self, popen_capped):
        # `ssp sweep ... --csv | head -1`: about 115 kB of rows, far more
        # than a pipe holds, and the reader closes after the first line
        argv = ("sweep", "--sweep", "3:5000", "--alpha", "-1", "--r", "1", "--s", "1", "--N", "3", "--csv")
        with popen_capped(*argv) as proc:
            assert proc.stdout.readline() == b"name,value,provenance\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            assert proc.stderr.read() == b""

    def test_oversized_range_exits_4_at_once(self, run_capped):
        # isqrt(10^30) = 10^15 base candidates pass the default budget of 10^8
        proc = run_capped("sweep", "--sweep", f"3:{10**30}", "--alpha", "-1", "--r", "1", "--s", "1", "--N", "3")
        assert proc.returncode == 4, proc.stderr
        assert f"sweep would reach {10**15} candidates" in json.loads(proc.stdout)["results"]["error"]


_SIGNATURE = ["--alpha", "-1", "--r", "1", "--s", "1"]


@pytest.mark.parametrize(
    "argv, parameters",
    [
        (["bound", "--p", "3", *_SIGNATURE, "--N", "3"], {"p": 3, "alpha": -1, "r": 1, "s": 1, "N": 3}),
        (["group", "--family", "gusplit", "--params", "1,1,3", "--oracle"], {"family": "gusplit", "params": [1, 1, 3]}),
        (["newton", "module.json"], {"file": "module.json"}),
        (["pairing", "--p", "3", *_SIGNATURE], {"p": 3, "alpha": -1, "r": 1, "s": 1, "n": 2}),
        (["amf", "space.json", "rep.json"], {"space_file": "space.json", "rep_file": "rep.json"}),
        (["verify"], {"level": "quick"}),
        (["sweep", "--sweep", "3:7", *_SIGNATURE, "--N", "3"], {"sweep": "3:7", "alpha": -1, "r": 1, "s": 1, "N": 3}),
        (["bound", "--p", "4", *_SIGNATURE, "--N", "3"], {}),
    ],
    ids=["bound", "group", "newton", "pairing", "amf", "verify", "sweep", "error"],
)
def test_report_echoes_its_parameters(tmp_path, monkeypatch, capsys, argv, parameters):
    # a report echoes the parsed arguments but --csv; `group` echoes the
    # parsed --params and an error report echoes none
    monkeypatch.chdir(tmp_path)
    (tmp_path / "module.json").write_text(
        json.dumps({"p": 3, "s": 2, "n": 2, "rank": 2, "F": [[0, 1], [-3, 0]], "V": [[0, -1], [3, 0]]})
    )
    (tmp_path / "space.json").write_text(json.dumps({"points": 1, "generators": []}))
    (tmp_path / "rep.json").write_text(json.dumps({"dim": 1, "field": {"p": 3}, "generators": []}))
    code, out = run(capsys, *argv)
    assert code == (2 if parameters == {} else 0)
    report = json.loads(out)
    assert report["command"] == argv[0]
    assert report["parameters"] == parameters


_BIG = 100000007
# the modulus of F_{p^2} is searched one candidate at a time and a square
# root mod p is Cipolla's, so a prime near 10^8 or 10^9 meets the budget
# (or, for newton and amf, the answer) in O(log p) steps and memory
@pytest.mark.parametrize(
    "argv, code",
    [
        (["pairing", "--p", str(_BIG), *_SIGNATURE], 4),
        (["pairing", "--p", "100000037", "--alpha", "-2", "--r", "1", "--s", "1"], 4),
        (["group", "--family", "u", "--params", f"1,{_BIG}", "--oracle"], 4),
        (["group", "--family", "gusplit", "--params", "1,1,1000000007", "--oracle"], 4),
        (["amf", "space.json", "rep.json"], 0),
        (["newton", "module.json"], 0),
    ],
    ids=["pairing", "pairing-alpha-2", "group-u", "group-gusplit", "amf", "newton"],
)
def test_large_prime_gets_its_exit_code_at_once(tmp_path, monkeypatch, run_capped, argv, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "module.json").write_text(
        json.dumps({"p": _BIG, "s": 2, "n": 2, "rank": 2, "F": [[0, 1], [-_BIG, 0]], "V": [[0, -1], [_BIG, 0]]})
    )
    (tmp_path / "space.json").write_text(json.dumps({"points": 1, "generators": [{"perm": [0]}]}))
    (tmp_path / "rep.json").write_text(json.dumps({"dim": 1, "field": {"p": _BIG, "s": 2}, "generators": [[[1]]]}))
    proc = run_capped(*argv, timeout=10)
    assert (proc.returncode, proc.stderr) == (code, "")
    assert json.loads(proc.stdout)["status"] == ("ok" if code == 0 else "error")


def _refused(capsys, *argv) -> dict:
    """The report of `argv`, once it is found to exit 2 with exactly one
    JSON error report, echoing no parameters, on stdout and nothing on
    stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "error" and report["parameters"] == {} and report["notes"] == []
    return report


class TestEveryRefusalIsAnErrorReport:
    @pytest.mark.parametrize(
        "argv, message",
        [
            # a negative first parameter reads as an option (--params=-1,3 passes)
            (["group", "--family", "gu", "--params", "-1,3"], "ssp group: argument --params: expected one argument"),
            (["bound", "--p", "3", *_SIGNATURE], "ssp bound: the following arguments are required: --N"),
            (["bound", "--p", "x", *_SIGNATURE, "--N", "3", "--csv"], "ssp bound: argument --p: invalid int value: 'x'"),
            ([], "ssp: the following arguments are required: command"),
            (["bogus"], "ssp: argument command: invalid choice: "),
            (["bound", "--p", "3", *_SIGNATURE, "--N", "3", "--bogus"], "ssp: unrecognized arguments: --bogus"),
        ],
        ids=["negative-params", "missing-N", "non-integer-p", "no-command", "unknown-command", "unknown-option"],
    )
    def test_malformed_argv(self, capsys, argv, message):
        # argv that does not parse names no command, and its report is
        # JSON even when --csv was asked for
        report = _refused(capsys, *argv)
        assert report["command"] is None
        assert report["results"]["error"].startswith(message)

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "[Errno 21] Is a directory: 'unreadable'"),
            (b"\xff\xfe\x00", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            # Python's JSON reader refuses these with ValueError and RecursionError
            (
                b'{"p": ' + b"1" * 5000 + b"}",
                "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits;"
                " use sys.set_int_max_str_digits() to increase the limit",
            ),
            (
                b"[" * 100_000 + b"]" * 100_000,
                "maximum recursion depth exceeded while decoding a JSON array from a unicode string",
            ),
        ],
        ids=["directory", "not-utf8", "long-integer", "deep-nesting"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["newton", "unreadable"], ["amf", "unreadable", "rep.json"], ["amf", "space.json", "unreadable"]],
        ids=["newton", "amf-space", "amf-rep"],
    )
    def test_unreadable_file(self, tmp_path, monkeypatch, capsys, argv, content, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "space.json").write_text(json.dumps({"points": 1, "generators": []}))
        (tmp_path / "rep.json").write_text(json.dumps({"dim": 1, "field": {"p": 3}, "generators": []}))
        path = tmp_path / "unreadable"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        report = _refused(capsys, *argv)
        assert report["command"] == argv[0]
        assert report["results"] == {"error": message}

    def test_missing_file_report_is_the_os_message(self, capsys):
        report = _refused(capsys, "newton", "no-such-file.json")
        assert report == {
            "command": "newton",
            "parameters": {},
            "results": {"error": "[Errno 2] No such file or directory: 'no-such-file.json'"},
            "notes": [],
            "status": "error",
        }

    @pytest.mark.parametrize("argv", [["-h"], ["bound", "-h"], ["sweep", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: ssp") and captured.err == ""

    def test_each_exception_class_carries_its_readme_code(self):
        # the README's CLI section is the one list of the codes; every
        # SspError class of `errors` is pinned here
        text = " ".join((Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").split())
        listed = text[text.index("Exit codes") : text.index("The environment variable")]
        readme = {int(code): meaning for code, meaning in re.findall(r"`(\d)` ([^`]+)", listed)}
        words = {
            SspError: "internal",
            FormulaInconsistencyError: "formula regression",
            ValidationError: "validation failure",
            InsufficientPrecisionError: "precision",
            BudgetExceededError: "budget exceeded",
        }
        assert {cls: cls.code for cls in words} == {
            SspError: 1,
            FormulaInconsistencyError: 1,
            ValidationError: 2,
            InsufficientPrecisionError: 3,
            BudgetExceededError: 4,
        }
        assert all(word in readme[cls.code] for cls, word in words.items())
        defined = {v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, SspError)}
        assert defined == set(words)


def _reference_sweep(window, alpha, r, s, N, as_csv):
    """`sweep` stdout as the integer loop, the report dict and the
    list-based flatten once produced it."""
    lo, hi = (int(x) for x in window.split(":"))
    rows = []
    for p in range(lo, hi + 1):
        if not groups.is_prime(p):
            continue
        row = {"p": p}
        try:
            rep = count.eigensystem_bound(count.SignatureParams(p=p, alpha=alpha, r=r, s=s, N=N))
        except ValidationError as e:
            row |= {"status": "skipped", "reason": str(e)}
        else:
            row["status"] = "ok"
            row["final_bound"] = cli._val(rep.final_bound, "bound")
            row["superspecial_bound_ceiling"] = cli._val(rep.superspecial_bound_ceiling, "bound")
            row["irr_sum_bound"] = cli._val(rep.irr_sum_bound, "bound")
            row["asymptotic_exponent"] = cli._val(rep.asymptotic_exponent, "formula")
        rows.append(row)
    report = {
        "command": "sweep",
        "parameters": {"alpha": alpha, "r": r, "s": s, "N": N, "sweep": window},
        "results": {"rows": rows},
        "notes": [f"superspecial_bound: {count.SUPERSPECIAL_BOUND_NOTE}"],
        "status": "ok",
    }
    if not as_csv:
        return json.dumps(report, indent=2, sort_keys=True) + "\n"

    flat = []

    def flatten(prefix, obj):
        if isinstance(obj, dict):
            if set(obj) == {"value", "provenance"}:
                flat.append((prefix, obj["value"], obj["provenance"]))
                return
            for k in sorted(obj):
                flatten(f"{prefix}.{k}" if prefix else k, obj[k])
        elif isinstance(obj, list):
            for i, item in enumerate(obj):
                flatten(f"{prefix}[{i}]", item)
        else:
            flat.append((prefix, cli._fmt(obj), ""))

    flatten("", report["results"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "value", "provenance"])
    writer.writerows(flat)
    return buf.getvalue()
