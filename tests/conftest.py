import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import ssp

SRC = str(Path(ssp.__file__).resolve().parents[1])


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.fixture
def run_capped():
    """Run `python -m ssp.cli *argv` in a fresh interpreter with the
    default budget and 1 GiB of address space, so an enumeration that
    allocates before its budget check dies with MemoryError instead of
    exhausting the host."""

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "ssp.cli", *argv],
            env={**{k: v for k, v in os.environ.items() if k != "SSP_MAX_ENUM"}, "PYTHONPATH": SRC},
            preexec_fn=_cap_memory,
            capture_output=True,
            text=True,
            timeout=120,
        )

    return run
