"""Fuzzing of the JSON inputs of `ssp newton` and `ssp amf`, and of the
argv of `ssp group`, `ssp pairing`, `ssp bound` and `ssp sweep`.

Each JSON example takes a valid document, replaces one field or nested
entry with an arbitrary JSON value or drops it, and runs the CLI
in-process; half the `amf` representations are drawn well-formed
instead, and some `newton` documents only get a truncation level at or
past the ends of 1..64.  Each `group` example draws a family name and a
parameter list, each `pairing` example its five integers, each `bound`
example its five and each `sweep` example a range and four
integers.  Every input must end in
a documented exit code with a JSON report on stdout and nothing on
stderr; an uncaught exception fails the test.  A truncation level
outside 1..64 must exit 2, and a well-formed `pairing` argv is also run
at each of those levels and at 64, where it must exit 0.  Examples are drawn
deterministically, so the test is the same on every run.
"""

import contextlib
import copy
import io
import itertools
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ssp.cli import main
from ssp.dieudonne import MAX_TRUNCATION

NEWTON = {
    "p": 3,
    "s": 2,
    "n": 2,
    "rank": 2,
    "F": [[0, 1], [-3, 0]],
    "V": [[0, -1], [3, 0]],
    "E": [[0, 1], [-1, 0]],
}
SPACE = {"points": 4, "generators": [{"name": "c", "perm": [1, 2, 3, 0]}], "group": "Z/4"}
REP = {"dim": 1, "field": {"p": 3, "s": 2}, "generators": [[[1]]]}

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-10, 10)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=8,
)

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _paths(doc, at=()):
    """The path of every field and nested entry of `doc`."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield at + (key,)
        yield from _paths(value, at + (key,))


@st.composite
def mutated(draw, doc):
    """`doc` with one field or entry replaced by a JSON value, or dropped."""
    doc = copy.deepcopy(doc)
    *parents, key = draw(st.sampled_from(sorted(_paths(doc), key=repr)))
    parent = doc
    for k in parents:
        parent = parent[k]
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JSON_VALUES)
    return doc


def _main(argv):
    """The exit code of the CLI on `argv` and its stdout read as one JSON
    report, once its stderr is found empty."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    report = json.loads(out.getvalue())
    assert err.getvalue() == ""
    return code, report


def _run(command, *docs):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            path = Path(tmp) / f"doc{i}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        return _main([command, *paths])


# truncation levels at and past the ends of 1..MAX_TRUNCATION, and far past
# them, where an unchecked level ran for seconds (10^6) or far longer
TRUNCATIONS = st.sampled_from([0, 64, 65, 10**6, 10**9])


def _truncation_in_range(n) -> bool:
    return n is None or type(n) is not int or 1 <= n <= MAX_TRUNCATION


@FUZZ
@given(mutated(NEWTON) | TRUNCATIONS.map(lambda n: NEWTON | {"n": n}))
def test_newton_spec(doc):
    code = _run("newton", doc)[0]
    assert code in (0, 2, 3)
    if not _truncation_in_range(doc.get("n")):
        assert code == 2
    if doc == NEWTON | {"n": MAX_TRUNCATION}:
        assert code == 0


def _check_amf(space, rep):
    """An accepted fixture pair reports 0 <= dimension <= points * rep_dim."""
    code, report = _run("amf", space, rep)
    assert code in (0, 2, 3)
    if code == 0:
        res = report["results"]
        dim, points, rep_dim = (int(res[k]["value"]) for k in ("dimension", "points", "rep_dim"))
        assert 0 <= dim <= points * rep_dim
        assert res["bound_check"] is True


@FUZZ
@given(mutated(SPACE))
def test_amf_space(doc):
    _check_amf(doc, REP)


# small integers only: the closed form of su has p^(t(t-1)/2) digits and
# no size check, so a large t would run for minutes
SMALL_INTS = st.integers(-12, 12)
# group sizes: small ones, and ones past the cap of 64 that no order is formed at
GROUP_SIZES = SMALL_INTS | st.sampled_from([65, 1000, 10**6])
PRIMES = st.sampled_from([2, 3, 5, 7, 11])
JUNK_TOKENS = st.sampled_from(["", "a", "1.5", "0x3", "-", "1e2", "3 "])
GROUP_FAMILIES = ["su", "u", "gu", "gusplit", "gsp"]


def _det(M):
    """The integer determinant of a square matrix, by the Leibniz sum."""
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = (-1) ** inversions
        for i in range(n):
            term *= M[i][perm[i]]
        total += term
    return total


@st.composite
def representation(draw):
    """A representation document for SPACE.  Half the examples are
    well-formed, the way `pairing_argv` draws them: a dim d from 1 to 3,
    a prime field p, with or without "s": 1, and one d x d integer
    generator per permutation of SPACE whose determinant is prime to p.
    The other half replace or drop one field or entry of REP."""
    if not draw(st.booleans()):
        return draw(mutated(REP))
    p = draw(PRIMES)
    d = draw(st.integers(1, 3))
    field = {"p": p, "s": 1} if draw(st.booleans()) else {"p": p}
    matrix = st.lists(st.lists(st.integers(-p, 2 * p), min_size=d, max_size=d), min_size=d, max_size=d)
    generators = [draw(matrix.filter(lambda M: _det(M) % p)) for _ in SPACE["generators"]]
    return {"dim": d, "field": field, "generators": generators}


@FUZZ
@given(representation())
def test_amf_representation(doc):
    _check_amf(SPACE, doc)


@st.composite
def group_argv(draw):
    """`ssp group` argv, with or without --oracle.  Half the examples are
    well-formed: one of the five families, as many parameters as it
    takes, and a prime last.  The other half draw a junk family name at
    times, a parameter list of any length up to 4, and a junk token in
    place of an integer at times."""
    if draw(st.booleans()):
        family = draw(st.sampled_from(GROUP_FAMILIES))
        arity = 3 if family == "gusplit" else 2
        params = [draw(GROUP_SIZES) for _ in range(arity - 1)] + [draw(PRIMES)]
    else:
        family = draw(st.sampled_from(GROUP_FAMILIES + ["so", "", "gsp_mod", "SU", "su "]))
        tokens = GROUP_SIZES | PRIMES | JUNK_TOKENS
        params = draw(st.lists(tokens, max_size=4))
    oracle = ["--oracle"] if draw(st.booleans()) else []
    return ["group", f"--family={family}", "--params=" + ",".join(map(str, params))] + oracle


@settings(FUZZ, max_examples=400)
@given(group_argv())
def test_group_argv(argv):
    with mock.patch.dict(os.environ, {"SSP_MAX_ENUM": str(10**5)}):
        assert _main(argv)[0] in (0, 2, 3, 4)


@st.composite
def pairing_argv(draw):
    """`ssp pairing` argv.  Half the examples are well-formed: an odd prime
    p up to 13, a negative alpha that is a non-residue mod p (Euler's
    criterion), r + s even and at least 2, and --n left out or positive.
    The other half draw each integer from a small range.  Either half may
    draw --n from TRUNCATIONS.  p <= 13 keeps each field table,
    q^2 <= 28561 entries, within the budget."""
    if draw(st.booleans()):
        p = draw(st.sampled_from([3, 5, 7, 11, 13]))
        r = draw(st.integers(0, 4))
        ints = {
            "--p": p,
            "--alpha": draw(st.integers(-12, -1).filter(lambda a: pow(a, (p - 1) // 2, p) == p - 1)),
            "--r": r,
            "--s": draw(st.sampled_from([s for s in range(5) if (r + s) % 2 == 0 and r + s >= 2])),
        }
        n = draw(st.none() | st.integers(1, 6) | TRUNCATIONS)
    else:
        ints = {flag: draw(st.integers(-3, 13)) for flag in ("--p", "--alpha", "--r", "--s")}
        n = draw(st.none() | st.integers(-2, 12) | TRUNCATIONS)
    if n is not None:
        ints["--n"] = n
    return ["pairing"] + [f"{flag}={value}" for flag, value in ints.items()]


# a well-formed pairing argv; the examples below give it each level of
# TRUNCATIONS, which the strategy alone draws unevenly
PAIRING = ["pairing", "--p=3", "--alpha=-1", "--r=1", "--s=1"]


@settings(FUZZ, max_examples=120)
@given(pairing_argv())
@example(PAIRING + ["--n=0"])
@example(PAIRING + [f"--n={MAX_TRUNCATION}"])
@example(PAIRING + ["--n=65"])
@example(PAIRING + [f"--n={10**6}"])
@example(PAIRING + [f"--n={10**9}"])
def test_pairing_argv(argv):
    with mock.patch.dict(os.environ, {"SSP_MAX_ENUM": str(10**5)}):
        code = _main(argv)[0]
    assert code in (0, 2, 3, 4)
    n = next((int(a.removeprefix("--n=")) for a in argv if a.startswith("--n=")), None)
    if not _truncation_in_range(n):
        assert code == 2
    if argv == PAIRING + [f"--n={MAX_TRUNCATION}"]:
        assert code == 0


# integers the closed forms of `bound` must reject or survive: zero, units,
# squares, composites, a Mersenne prime p and sizes past the factoring budget
JUNK_INTS = st.sampled_from([0, 1, -1, 2, 4, 9, -4, 10**6, 2**61 - 1, -(10**13)])


def _squarefree_nonresidue(alpha, p):
    """alpha is squarefree and a non-residue mod p (Euler's criterion)."""
    return all(alpha % (k * k) for k in range(2, abs(alpha) + 1)) and pow(alpha, (p - 1) // 2, p) == p - 1


@st.composite
def bound_argv(draw):
    """`ssp bound` argv.  Half the examples are well-formed: an odd prime
    p up to 23, a negative squarefree alpha down to -30 that is a
    non-residue mod p, r + s even and at least 2, and N from 1 to 12.  The
    other half draw each integer from a small range or the junk values;
    r and s stay small, as C_g takes a Bernoulli number per genus."""
    if draw(st.booleans()):
        p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]))
        r = draw(st.integers(0, 4))
        ints = {
            "--p": p,
            "--alpha": draw(st.sampled_from([a for a in range(-30, 0) if _squarefree_nonresidue(a, p)])),
            "--r": r,
            "--s": draw(st.sampled_from([s for s in range(5) if (r + s) % 2 == 0 and r + s >= 2])),
            "--N": draw(st.integers(1, 12)),
        }
    else:
        small = st.integers(-3, 13)
        ints = {flag: draw(small | JUNK_INTS) for flag in ("--p", "--alpha", "--N")}
        ints |= {flag: draw(small) for flag in ("--r", "--s")}
    return ["bound"] + [f"{flag}={value}" for flag, value in ints.items()]


@settings(FUZZ, max_examples=200)
@given(bound_argv())
def test_bound_argv(argv):
    with mock.patch.dict(os.environ, {"SSP_MAX_ENUM": str(10**5)}):
        assert _main(argv)[0] in (0, 2, 3, 4)


# range starts below 2, among small primes, and past 10^12, where the
# sqrt(hi) base sieve passes the budget
SWEEP_STARTS = st.sampled_from([-7, 0, 1, 2, 3, 24, 1000, 10**9, 10**12, 2**61 - 1, 10**30])
JUNK_RANGES = st.sampled_from(["", ":", "3:", ":13", "3:13:17", "a:b", "3-13", "1e3:2e3", "0x3:0x13", " 3 : 13 "])


@st.composite
def sweep_argv(draw):
    """`ssp sweep` argv.  Most ranges start at one of SWEEP_STARTS and end
    at most 60 past or 20 before it, so a range may be reversed, hold no
    prime or lie past the base-sieve budget while each example stays
    fast; the rest are junk ranges.  Half the examples draw the other
    integers well-formed, as in bound_argv, with the range's primes
    deciding which rows are evaluated; the other half from a small range
    or the junk values."""
    if draw(st.integers(0, 4)):
        lo = draw(SWEEP_STARTS)
        sweep = f"{lo}:{lo + draw(st.integers(-20, 60))}"
    else:
        sweep = draw(JUNK_RANGES)
    if draw(st.booleans()):
        r = draw(st.integers(0, 4))
        ints = {
            "--alpha": draw(st.sampled_from([-1, -2, -3, -5, -7, -11, -30])),
            "--r": r,
            "--s": draw(st.sampled_from([s for s in range(5) if (r + s) % 2 == 0 and r + s >= 2])),
            "--N": draw(st.integers(1, 12)),
        }
    else:
        small = st.integers(-3, 13)
        ints = {flag: draw(small | JUNK_INTS) for flag in ("--alpha", "--N")}
        ints |= {flag: draw(small) for flag in ("--r", "--s")}
    return ["sweep", f"--sweep={sweep}"] + [f"{flag}={value}" for flag, value in ints.items()]


@settings(FUZZ, max_examples=200)
@given(sweep_argv())
def test_sweep_argv(argv):
    with mock.patch.dict(os.environ, {"SSP_MAX_ENUM": str(10**5)}):
        assert _main(argv)[0] in (0, 2, 3, 4)
