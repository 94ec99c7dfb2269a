"""Command-line surface: bound, group, newton, pairing, amf, verify, sweep.

Reports are JSON by default (CSV with --csv), deterministic byte-for-byte
for identical inputs: keys are sorted, big integers are serialized as
decimal strings, and every numeric result carries a provenance label
("formula", "enumeration" or "bound").  The exit codes, the bounds on
n and s and what SSP_MAX_ENUM charges are listed once, in the README's
CLI section; each exception class carries its own code.

JSON is written by one writer, `_json`, byte-identical to
json.dumps(report, indent=2, sort_keys=True).  It is not json.dumps
because, with an indent, CPython before 3.13 encodes by its pure-Python
generator path, about twice as slow, and because json.dumps would need
each sweep row made into a dict first.  CSV takes the types JSON takes,
spells bools and None as JSON does, and raises TypeError on any other.

Subcommand x is run by `_cmd_x`, which returns its report; the report
echoes the parsed arguments as its parameters.  Every refusal, argv
that does not parse and a file that cannot be read included, is an
`SspError` and leaves by `main`'s one error report.

A reader that closes stdout early (`ssp sweep ... --csv | head`) ends
the command: writing stops, stdout is pointed at os.devnull so that the
interpreter's flush at exit stays quiet, and the exit code is 0.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from collections.abc import Iterator
from fractions import Fraction

from . import count as count_mod
from . import dieudonne, groups, hermitian, verify
from .errors import EnumBudget, SspError, ValidationError
from .gf import primes_between

# ---------------------------------------------------------------------------
# report plumbing


# int -> str raises past sys.get_int_max_str_digits() digits (4300 by
# default, never below 640), so longer ints are written in chunks
_CHUNK = 10**600


def _decimal(n: int) -> str:
    """str(n) for an int of any size."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    chunks, rest = [], abs(n)
    while rest >= _CHUNK:
        rest, low = divmod(rest, _CHUNK)
        chunks.append(f"{low:0600d}")
    return ("-" if n < 0 else "") + str(rest) + "".join(reversed(chunks))


def _fmt(x) -> str:
    """The CSV text of a leaf: bool and None as JSON spells them, an int
    in decimal, a str as it is.  Any other type raises TypeError, as in
    `_write`."""
    # ints, most of what a sweep writes, are tested second: after bool,
    # which is an int
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return _decimal(x)
    if isinstance(x, str):
        return x
    if x is None:
        return "null"
    raise TypeError(f"a report holds no {type(x).__name__}")


def _val(x, provenance: str) -> dict:
    """A result: its value as a string, a Fraction as num/den (num alone
    when it is whole), and its provenance."""
    if isinstance(x, Fraction):
        num = _decimal(x.numerator)
        text = num if x.denominator == 1 else f"{num}/{_decimal(x.denominator)}"
    else:
        text = _fmt(x)
    return {"value": text, "provenance": provenance}


def _report(args, results: dict, notes=(), **fields) -> dict:
    """The report of `args.command`.  Its parameters are the parsed
    arguments and its status is "ok", unless `fields` gives others."""
    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "csv")}
    return {
        "command": args.command,
        "parameters": parameters,
        "results": results,
        "notes": list(notes),
        "status": "ok",
    } | fields


def _flatten(prefix: str, obj, writer):
    """Write the (name, value, provenance) rows of `obj`.  Lists are
    enumerated; an iterator is a stream of leaf rows, such as a sweep's,
    and each of its rows is written with one writerows, its values as
    `_cmd_sweep` formatted them.  Any other leaf goes through `_fmt`."""
    if isinstance(obj, dict):
        if len(obj) == 2 and "value" in obj and "provenance" in obj:
            writer.writerow((prefix, obj["value"], obj["provenance"]))
            return
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else k, obj[k], writer)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            _flatten(f"{prefix}[{i}]", item, writer)
    elif isinstance(obj, Iterator):
        for i, leaves in enumerate(obj):
            head = f"{prefix}[{i}]."
            writer.writerows([(head + key, value, provenance) for key, value, provenance in leaves])
    else:
        writer.writerow((prefix, _fmt(obj), ""))


# the C escaper that json.dumps runs on every str with ensure_ascii
_quote = json.encoder.encode_basestring_ascii


def _json(report) -> str:
    """The text of `report` as json.dumps(report, indent=2, sort_keys=True)
    writes it, a stream of leaf rows written as the list of its rows."""
    out = []
    _write(report, "", out)
    return "".join(out)


def _write(obj, pad: str, out: list):
    """Append the JSON text of `obj` to `out`, its nested lines indented
    two spaces per level past `pad`: dicts with str keys, lists, str, int,
    bool and None, and streams of leaf rows.  Any other type is a bug (a
    float included: the package has no floating point) and raises
    TypeError."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        _write_object(sorted(obj.items()), pad, out)
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, list):
        _write_array(obj, pad, out, _write)
    elif isinstance(obj, Iterator):
        _write_array(obj, pad, out, _write_row)
    else:
        raise TypeError(f"a report holds no {type(obj).__name__}")


def _write_object(pairs, pad: str, out: list):
    """An object of the (key, value) `pairs`, in the order given."""
    inner = pad + "  "
    opening = sep = "{\n" + inner
    for key, value in pairs:
        out += (sep, _quote(key), ": ")
        _write(value, inner, out)
        sep = ",\n" + inner
    out.append("{}" if sep is opening else "\n" + pad + "}")


def _write_array(items, pad: str, out: list, write):
    """An array of the `items`, each written by `write`."""
    inner = pad + "  "
    opening = sep = "[\n" + inner
    for item in items:
        out.append(sep)
        write(item, inner, out)
        sep = ",\n" + inner
    out.append("[]" if sep is opening else "\n" + pad + "]")


def _write_row(leaves, pad: str, out: list):
    """A leaf row as the object of its (key, value, provenance) leaves, in
    the order given, which is sorted by key: a leaf with a provenance is
    {"provenance", "value"}, one without its bare value."""
    inner = pad + "  "
    field = inner + "  "
    opening = sep = "{\n" + inner
    for key, value, provenance in leaves:
        out += (sep, _quote(key), ": ")
        if provenance:
            out += ("{\n", field, '"provenance": ', _quote(provenance), ",\n", field, '"value": ')
            _write(value, field, out)
            out += ("\n", inner, "}")
        else:
            _write(value, inner, out)
        sep = ",\n" + inner
    out.append("{}" if sep is opening else "\n" + pad + "}")


def _emit(report: dict, as_csv: bool):
    """Write `report` to stdout.  CSV rows go out as they are made; JSON
    is built in full first by `_json`, so it is written whole or not at
    all."""
    if as_csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["name", "value", "provenance"])
        _flatten("", report["results"], writer)
    else:
        sys.stdout.write(_json(report) + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers


# (key, CountReport field, provenance) of each result of `bound`; a
# sweep row carries the last four
_BOUND_RESULTS = (
    ("c_g", "c_g", "formula"),
    ("gsp_order", "gsp_order", "formula"),
    ("mass_product", "mass_product", "formula"),
    ("superspecial_bound", "superspecial_bound_exact", "bound"),
    ("class_count", "class_count", "formula"),
    ("dim_bound", "dim_bound", "bound"),
    ("superspecial_bound_ceiling", "superspecial_bound_ceiling", "bound"),
    ("irr_sum_bound", "irr_sum_bound", "bound"),
    ("final_bound", "final_bound", "bound"),
    ("asymptotic_exponent", "asymptotic_exponent", "formula"),
)
_SWEEP_RESULTS = _BOUND_RESULTS[-4:]
_SUPERSPECIAL_NOTE = f"superspecial_bound: {count_mod.SUPERSPECIAL_BOUND_NOTE}"


def _results(rep: count_mod.CountReport, table) -> dict:
    return {key: _val(getattr(rep, field), provenance) for key, field, provenance in table}


def _cmd_bound(args) -> dict:
    params = count_mod.SignatureParams(p=args.p, alpha=args.alpha, r=args.r, s=args.s, N=args.N)
    rep = count_mod.eigensystem_bound(params)
    notes = [*params.warnings, _SUPERSPECIAL_NOTE, "final_bound = ceil(superspecial_bound) * irr_sum_bound"]
    return _report(args, _results(rep, _BOUND_RESULTS), notes)


def _cmd_group(args) -> dict:
    arity = groups.group_family(args.family).arity
    try:
        params = tuple(int(x) for x in args.params.split(","))
    except ValueError:
        raise ValidationError(f"--params must be {arity} comma-separated integers") from None
    spec = groups.GroupSpec(args.family, params)
    results = {"order": _val(spec.order(), "formula")}
    if args.oracle:
        enum = spec.enumerated_order()
        results["order_enumerated"] = _val(enum, "enumeration")
        results["match"] = enum == spec.order()
    return _report(args, results, parameters={"family": args.family, "params": list(params)})


def _load_json(path, what):
    """The JSON value in the file at `path`.  Malformed JSON is a
    ValidationError that names the file as `what`.  A file that cannot be
    read as UTF-8, or whose JSON Python's reader refuses (an integer past
    its digit limit, arrays nested past its recursion limit), is one with
    the error's own message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{what} is not valid JSON: {e}") from None
    except (OSError, ValueError, RecursionError) as e:
        raise ValidationError(str(e)) from None


def _cmd_newton(args) -> dict:
    np_, m = dieudonne.newton_polygon_with_retry(_load_json(args.file, "module file"))
    hp = dieudonne.hodge_polygon(m)
    adm = dieudonne.endpoint_admissibility(np_, hp)
    results = {
        "slopes": _val("; ".join(f"{lam} x{k}" for lam, k in np_.slopes), "formula"),
        "isoclinic": dieudonne.is_isoclinic(np_),
        "basic": dieudonne.is_isoclinic(np_),
        "hodge_weights": _val("; ".join(f"{w} x{k}" for w, k in hp.weights), "formula"),
        "t_newton": _val(adm.t_newton, "formula"),
        "t_hodge": _val(adm.t_hodge, "formula"),
        "endpoints_equal": adm.endpoints_equal,
        "newton_at_or_above": adm.newton_at_or_above,
        "truncation_used": _val(m.ring.n, "formula"),
    }
    return _report(args, results)


def _cmd_pairing(args) -> dict:
    m = dieudonne.build_superspecial_unitary(args.p, args.n, args.alpha, args.r, args.s)
    h = hermitian.reduce_pairing(m)
    order_formula = groups.order_gusplit(args.r, args.s, args.p)
    order_enum = hermitian.automorphism_group_order(h)
    disagreements = hermitian.pairing_well_defined(m, h, trials=20, seed=0)
    results = {
        "quotient_dim": _val(h.dim, "formula"),
        "grading": _val(f"({h.grading[0]},{h.grading[1]})", "formula"),
        "gram": [[list(x.coeffs) for x in row] for row in h.gram],
        "well_definedness_disagreements": _val(disagreements, "enumeration"),
        "aut_order_formula": _val(order_formula, "formula"),
        "aut_order_enumerated": _val(order_enum, "enumeration"),
        "match": order_enum == order_formula,
    }
    return _report(args, results)


def _cmd_amf(args) -> dict:
    space = count_mod.coset_space_from_dict(_load_json(args.space_file, args.space_file))
    rho = count_mod.representation_from_dict(_load_json(args.rep_file, args.rep_file))
    dim = count_mod.equivariant_dimension(space, rho)
    results = {
        "dimension": _val(dim, "enumeration"),
        "points": _val(space.points, "formula"),
        "rep_dim": _val(rho.dim, "formula"),
        "bound_check": dim <= space.points * rho.dim,
    }
    return _report(args, results)


def _cmd_verify(args) -> dict:
    results = verify.run(args.level)
    return _report(args, results, status="ok" if results["first_failure"] is None else "fail")


def _cmd_sweep(args) -> dict:
    """The range is parsed and checked here; the rows are a generator of
    leaf rows, evaluated as the report is written."""
    try:
        lo, hi = (int(x) for x in args.sweep.split(":"))
    except ValueError:
        raise ValidationError("--sweep takes a range like p=3:13 (pass 3:13)") from None
    if lo > hi:
        raise ValidationError(f"--sweep range {args.sweep} is empty: {lo} > {hi}")
    primes = primes_between(lo, hi, EnumBudget("sweep"))
    # an evaluated row's leaves, sorted by key once per sweep: the
    # results of `_SWEEP_RESULTS`, p and status (which have no field).
    # A skipped row's leaves are sorted too: `_write_row` keeps the order
    layout = sorted((*_SWEEP_RESULTS, ("p", None, ""), ("status", None, "")))

    def rows():
        for p in primes:
            try:
                params = count_mod.SignatureParams(p=p, alpha=args.alpha, r=args.r, s=args.s, N=args.N)
                rep = count_mod.eigensystem_bound(params)
            except ValidationError as e:
                yield (("p", p, ""), ("reason", str(e), ""), ("status", "skipped", ""))
            else:
                bare = {"p": p, "status": "ok"}
                yield [
                    (key, bare[key] if field is None else _fmt(getattr(rep, field)), provenance)
                    for key, field, provenance in layout
                ]

    return _report(args, {"rows": rows()}, [_SUPERSPECIAL_NOTE])


# ---------------------------------------------------------------------------
# entry point


def _refuse(prog: str, message: str):
    """argparse's `error` for the parser `prog`: malformed argv is a
    ValidationError, reported like any other, not a usage line."""
    raise ValidationError(f"{prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use."""
    parser = argparse.ArgumentParser(
        prog="ssp",
        description="Exact superspecial unitary module computations and eigensystem-count bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="eigensystem-count bound pipeline")
    for flag in ("--p", "--alpha", "--r", "--s", "--N"):
        p.add_argument(flag, type=int, required=True)

    p = sub.add_parser("group", help="exact order of a finite group family")
    p.add_argument("--family", required=True, help=" | ".join(groups.FAMILIES))
    p.add_argument("--params", required=True, help="comma-separated parameters")
    p.add_argument("--oracle", action="store_true", help="also run the enumeration oracle")

    p = sub.add_parser("newton", help="Newton polygon of a JSON module spec")
    p.add_argument("file")

    p = sub.add_parser("pairing", help="mod-p pairing and automorphism group of the model")
    for flag in ("--p", "--alpha", "--r", "--s"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--n", type=int, default=2, help="truncation level, 1..64 (default 2)")

    p = sub.add_parser("amf", help="equivariant-function dimension on a coset fixture")
    p.add_argument("space_file")
    p.add_argument("rep_file")

    p = sub.add_parser("verify", help="run the formula-vs-oracle suite")
    p.add_argument("--level", default="quick", help="quick | full")

    p = sub.add_parser("sweep", help="bound pipeline over a range of primes")
    p.add_argument("--sweep", required=True, help="prime range, e.g. 3:13")
    for flag in ("--alpha", "--r", "--s", "--N"):
        p.add_argument(flag, type=int, required=True)

    parser.error = functools.partial(_refuse, parser.prog)
    for p in sub.choices.values():
        p.error = functools.partial(_refuse, p.prog)
        p.add_argument("--csv", action="store_true", help="CSV output instead of JSON")
    return parser


def main(argv=None) -> int:
    """Run one command.  An `SspError` exits with its class's code and an
    error report (JSON with no command if argv does not parse), also
    when it is raised while a sweep's rows are written: JSON then holds
    the error report alone, CSV the rows already written followed by the
    error report.  Any other exception is a bug and keeps its traceback."""
    args = argparse.Namespace(command=None, csv=False)  # until argv parses
    try:
        try:
            args = _build_parser().parse_args(argv)
            report = globals()[f"_cmd_{args.command}"](args)
            code = 1 if report["status"] == "fail" else 0
            _emit(report, args.csv)
        except SspError as e:
            code = e.code
            _emit(_report(args, {"error": str(e)}, parameters={}, status="error"), args.csv)
        # flushed here, so that a closed pipe is met by the handler below
        # and not by the interpreter's flush at exit
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code


if __name__ == "__main__":
    sys.exit(main())
