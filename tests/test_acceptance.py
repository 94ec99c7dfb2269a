"""Acceptance gate: every formula-vs-oracle check registered in
ssp.verify, each printing one PASS/FAIL line (run with -s to see them
alongside the pytest dots).  What the registry does not cover is checked
in the unit tests of its subject."""

import time

import pytest

from ssp import verify

# wall seconds per check; the slowest registered check takes well under 1 s
CHECK_SECONDS = 12


@pytest.mark.parametrize("name, check", verify.FULL, ids=[name for name, _ in verify.FULL])
def test_verify_check(name, check):
    t0 = time.monotonic()
    ok, detail = check()
    elapsed = time.monotonic() - t0
    print(f"{'PASS' if ok else 'FAIL'} verify {name}")
    assert ok, f"verify {name}: {detail}"
    assert elapsed < CHECK_SECONDS, f"verify {name} took {elapsed:.1f} s"
