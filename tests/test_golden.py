"""Replay of the golden corpus, `golden.json`: each row is an argv, the
exit code of `cli.main` on it and the SHA-256 of its stdout, with short
hashes of at most 128 consecutive blocks of lines, which locate the
first difference without the old text.  The argv run in a directory
that holds the corpus's files, with the default enumeration budget.

A change that alters an output on purpose regenerates the corpus with
`PYTHONPATH=src python tests/test_golden.py` and shows the stdout diff
of the rows it changed; rows whose output did not change keep their
bytes."""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from ssp import cli

CORPUS = Path(__file__).with_name("golden.json")
_BLOCKS = 128


def _load():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def _block_size(lines: int) -> int:
    return max(1, -(-lines // _BLOCKS))


def _blocks(lines: list, size: int) -> list:
    return [hashlib.sha256("".join(lines[i : i + size]).encode()).hexdigest()[:10] for i in range(0, len(lines), size)]


def _record(argv: list, code: int, out: str) -> dict:
    lines = out.splitlines(keepends=True)
    return {
        "argv": argv,
        "code": code,
        "sha256": hashlib.sha256(out.encode()).hexdigest(),
        "lines": len(lines),
        "blocks": _blocks(lines, _block_size(len(lines))),
    }


def _run(argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _first_difference(row: dict, out: str) -> str:
    """Where `out` first leaves the recorded output: a line, or, when the
    recorded output had more than _BLOCKS lines, a block of lines."""
    lines = out.splitlines(keepends=True)
    size = _block_size(row["lines"])
    new = _blocks(lines, size)
    k = next((i for i, (a, b) in enumerate(zip(row["blocks"], new)) if a != b), min(len(new), len(row["blocks"])))
    first = k * size
    where = f"line {first + 1}" if size == 1 else f"lines {first + 1}-{first + size}"
    text = lines[first].rstrip("\n") if first < len(lines) else "<end of output>"
    return f"first difference at {where} (of {row['lines']} recorded, {len(lines)} now); now: {text[:200]!r}"


def _write_files(files: dict, where: Path):
    for name, doc in files.items():
        (where / name).write_text(json.dumps(doc), encoding="utf-8")


_CORPUS = _load()


@pytest.mark.parametrize("row", _CORPUS["rows"], ids=[" ".join(row["argv"]) for row in _CORPUS["rows"]])
def test_replay_is_byte_identical(row, tmp_path, monkeypatch):
    _write_files(_CORPUS["files"], tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SSP_MAX_ENUM", raising=False)
    code, out = _run(row["argv"])
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == (row["code"], row["sha256"]), (
        f"exit {code} (recorded {row['code']}), new sha256 {digest}; {_first_difference(row, out)}"
    )


# the rows whose ints pass 600 digits: cli._CHUNK writes those in chunks,
# as CPython's int -> str limit is never below 640 digits
_LONG_INT_ROWS = (
    ["bound", "--p", "3", "--alpha", "-1", "--r", "40", "--s", "40", "--N", "3"],
    ["sweep", "--sweep", "3:5000", "--alpha", "-1", "--r", "8", "--s", "8", "--N", "12", "--csv"],
    ["sweep", "--sweep", "3:3000", "--alpha", "-1", "--r", "16", "--s", "16", "--N", "3", "--csv"],
)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int -> str digit limit to test")
@pytest.mark.parametrize("argv", _LONG_INT_ROWS, ids=" ".join)
def test_replay_under_the_smallest_digit_limit(argv, monkeypatch):
    row = next(row for row in _CORPUS["rows"] if row["argv"] == argv)
    monkeypatch.delenv("SSP_MAX_ENUM", raising=False)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert re.search(r"\d{641}", out)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (row["code"], row["sha256"])


def _regenerate():
    """Rerun every row's argv and rewrite the corpus, one row per line."""
    corpus = _load()
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as scratch:
        _write_files(corpus["files"], Path(scratch))
        os.chdir(scratch)
        os.environ.pop("SSP_MAX_ENUM", None)
        try:
            rows = [_record(row["argv"], *_run(row["argv"])) for row in corpus["rows"]]
        finally:
            os.chdir(here)
    files = ",\n".join(f"    {json.dumps(name)}: {json.dumps(doc)}" for name, doc in corpus["files"].items())
    body = ",\n".join(f"    {json.dumps(row)}" for row in rows)
    CORPUS.write_text(f'{{\n  "files": {{\n{files}\n  }},\n  "rows": [\n{body}\n  ]\n}}\n', encoding="utf-8")
    print(f"{len(rows)} rows written to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
