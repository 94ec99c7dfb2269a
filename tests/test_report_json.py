"""The JSON writer of `ssp.cli` against json.dumps(indent=2, sort_keys=True),
the stdlib encoder whose bytes it must reproduce: on the report of every
subcommand, on error reports and sweeps, and on random trees; and the
types that it and the CSV writer refuse."""

import csv
import io
import json
from collections.abc import Iterator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssp import cli


class _Stream:
    """A stream of leaf rows as a test case holds it: the rows, which
    `_split` hands to the writer as a fresh iterator."""

    def __init__(self, rows):
        self.rows = rows

    def __repr__(self):
        return f"_Stream({self.rows!r})"


def _row_dict(leaves) -> dict:
    """A leaf row in the form json.dumps takes: the dict of its leaves, a
    leaf with a provenance {"value", "provenance"} and one without its
    bare value."""
    return {key: {"value": value, "provenance": provenance} if provenance else value for key, value, provenance in leaves}


def _split(obj):
    """(`obj` as the writer takes it, `obj` as json.dumps takes it).  Each
    stream of leaf rows is read once, then given to the writer as an
    iterator over its rows and to json.dumps as the list of their dicts."""
    if isinstance(obj, dict):
        halves = {key: _split(value) for key, value in obj.items()}
        return {k: w for k, (w, _) in halves.items()}, {k: d for k, (_, d) in halves.items()}
    if isinstance(obj, list):
        halves = [_split(item) for item in obj]
        return [w for w, _ in halves], [d for _, d in halves]
    if isinstance(obj, (Iterator, _Stream)):
        rows = [list(leaves) for leaves in (obj.rows if isinstance(obj, _Stream) else obj)]
        return iter(rows), [_row_dict(leaves) for leaves in rows]
    return obj, obj


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# every report the CLI writes

_SIGNATURE = ["--alpha", "-1", "--r", "1", "--s", "1"]
_MODULE = {"p": 3, "s": 2, "n": 2, "rank": 2, "F": [[0, 1], [-3, 0]], "V": [[0, -1], [3, 0]], "E": [[0, 1], [-1, 0]]}
# F = 0 has no slope at any truncation: exit 3
_DEGENERATE = {"p": 3, "s": 1, "n": 2, "rank": 2, "F": [[0, 0], [0, 0]], "V": [[1, 0], [0, 1]]}
_SPACE = {"points": 4, "generators": [{"name": "c", "perm": [1, 2, 3, 0]}], "group": "Z/4"}
_REP = {"dim": 1, "field": {"p": 3, "s": 2}, "generators": [[[1]]]}


def _sweep(window, r="1", s="1", alpha="-1", N="3"):
    return ["sweep", "--sweep", window, "--alpha", alpha, "--r", r, "--s", s, "--N", N]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bound", "--p", "3", *_SIGNATURE, "--N", "3"], 0),
        (["group", "--family", "gusplit", "--params", "1,1,3"], 0),
        (["group", "--family", "gusplit", "--params", "1,1,3", "--oracle"], 0),
        (["newton", "module.json"], 0),
        (["pairing", "--p", "3", *_SIGNATURE], 0),
        (["amf", "space.json", "rep.json"], 0),
        (["verify", "--level", "quick"], 0),
        (["bound", "--p", "4", *_SIGNATURE, "--N", "3"], 2),
        ([], 2),  # argv that does not parse: the report's command is null
        (["newton", "degenerate.json"], 3),
        (["pairing", "--p", "3", *_SIGNATURE], 4),  # with a budget of 5
        (_sweep("4:4"), 0),  # no prime: an empty list of rows
        (_sweep("3:40", r="2"), 0),  # odd g: every row skipped
        (_sweep("2:60"), 0),  # p = 2, split and evaluated rows
        (_sweep("3:120", r="16", s="16"), 0),
        (_sweep("3:3", r="40", s="40"), 0),  # the g = 80 row of test_big_integers_serialize
    ],
    ids=[
        "bound",
        "group",
        "group-oracle",
        "newton",
        "pairing",
        "amf",
        "verify-quick",
        "error-2",
        "error-2-argv",
        "error-3",
        "error-4",
        "sweep-empty",
        "sweep-all-skipped",
        "sweep-mixed",
        "sweep-16-16",
        "sweep-g80",
    ],
)
def test_cli_writes_what_json_dumps_writes(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    for name, doc in (("module", _MODULE), ("degenerate", _DEGENERATE), ("space", _SPACE), ("rep", _REP)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    if code == 4:
        monkeypatch.setenv("SSP_MAX_ENUM", "5")
    emitted = []
    real = cli._emit

    def spy(report, as_csv):
        for_writer, for_dumps = _split(report)
        emitted.append(for_dumps)
        real(for_writer, as_csv)

    monkeypatch.setattr(cli, "_emit", spy)
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert len(emitted) == 1
    assert out == _dumps(emitted[0]) + "\n"
    if argv[:1] == ["sweep"]:
        assert len(emitted[0]["results"]["rows"]) == {"4:4": 0, "3:40": 11, "2:60": 17, "3:120": 29, "3:3": 1}[argv[2]]


# ---------------------------------------------------------------------------
# random trees

_TEXT = st.text(
    st.characters(exclude_categories=())  # surrogates included
    | st.characters(categories=["Cs"])  # lone surrogates
    | st.characters(categories=["Cc"])  # control characters
    | st.sampled_from('"\\/é€😀'),
    max_size=8,
)
_SCALARS = st.none() | st.booleans() | st.integers(-(10**300), 10**300) | _TEXT
_PROVENANCE = st.sampled_from(["", "formula", "bound"]) | _TEXT
# a row's leaves come sorted by key, as `_cmd_sweep` gives them
_LEAF_ROWS = st.dictionaries(_TEXT, st.tuples(_SCALARS, _PROVENANCE), max_size=4).map(
    lambda leaves: [(key, value, provenance) for key, (value, provenance) in sorted(leaves.items())]
)
_STREAMS = st.lists(_LEAF_ROWS, max_size=3).map(_Stream)
_TREES = st.recursive(
    _SCALARS | _STREAMS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, derandomize=True, database=None)
@given(_TREES)
def test_writer_matches_json_dumps(tree):
    for_writer, for_dumps = _split(tree)
    assert cli._json(for_writer) == _dumps(for_dumps)


def _holding(inner):
    """A list or a dict that holds a tree drawn from `inner` among scalars."""
    siblings = st.lists(_SCALARS, max_size=2)
    return st.tuples(siblings, inner, siblings).map(lambda t: [*t[0], t[1], *t[2]]) | st.tuples(
        st.dictionaries(_TEXT, _SCALARS, max_size=2), _TEXT, inner
    ).map(lambda t: {**t[0], t[1]: t[2]})


_NOT_JSON = st.sampled_from([0.5, -0.0, float("inf"), float("nan"), Fraction(1, 3), Fraction(4, 2)])
# a float or a Fraction in a list or a dict, which both writers refuse
_BAD_IN_CONTAINERS = _holding(st.recursive(_NOT_JSON, _holding, max_leaves=3))
# a float or a Fraction anywhere: in a container, or as the value of a
# leaf, which only the JSON writer checks (CSV writes a stream's values as
# `_cmd_sweep` formatted them)
_BAD_TREES = st.recursive(
    _NOT_JSON | st.tuples(_TEXT, _NOT_JSON, _PROVENANCE).map(lambda leaf: _Stream([[leaf]])),
    _holding,
    max_leaves=4,
)


def _csv(tree):
    cli._flatten("", tree, csv.writer(io.StringIO(), lineterminator="\n"))


@settings(max_examples=100, derandomize=True, database=None)
@given(_BAD_TREES, _BAD_IN_CONTAINERS)
def test_float_or_fraction_in_a_report_raises_type_error(tree, in_container):
    with pytest.raises(TypeError):
        cli._json(_split(tree)[0])
    with pytest.raises(TypeError):
        _csv(_split(in_container)[0])
