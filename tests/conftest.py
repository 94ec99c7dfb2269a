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


def _env():
    return {**{k: v for k, v in os.environ.items() if k != "SSP_MAX_ENUM"}, "PYTHONPATH": SRC}


def _python(*args, timeout=120):
    """Run `python *args` on the package source in a fresh interpreter
    with the default budget and 1 GiB of address space."""
    return subprocess.run(
        [sys.executable, *args],
        env=_env(),
        preexec_fn=_cap_memory,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture
def run_capped():
    """Run `python -m ssp.cli *argv` through `_python`, so an enumeration
    that allocates before its budget check dies with MemoryError instead
    of exhausting the host."""
    return lambda *argv, timeout=120: _python("-m", "ssp.cli", *argv, timeout=timeout)


@pytest.fixture
def popen_capped():
    """Start `python -m ssp.cli *argv` as `run_capped` runs it, with
    stdout and stderr as pipes the test reads and closes itself."""
    return lambda *argv: subprocess.Popen(
        [sys.executable, "-m", "ssp.cli", *argv],
        env=_env(),
        preexec_fn=_cap_memory,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


@pytest.fixture
def run_snippet():
    """Run `python -c code` through `_python`; raises TimeoutExpired after
    `timeout` seconds."""
    return lambda code, timeout: _python("-c", code, timeout=timeout)
