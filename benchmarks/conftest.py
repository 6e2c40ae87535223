"""Shared benchmark infrastructure.

Each bench regenerates one paper artifact (DESIGN.md §4).  pytest-benchmark
measures wall-clock; the *paper-shape* evidence (ledger work, fitted
exponents, bound checks) is written as markdown rows into
``benchmarks/results/<exp_id>.md`` so EXPERIMENTS.md can quote it, and is
also attached to ``benchmark.extra_info`` for the JSON output.
"""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess

import numpy as np
import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write via a same-directory temp file + ``os.replace`` so a crashed
    run never leaves a truncated result file behind."""
    tmp = path.parent / f"{path.name}.tmp-{os.getpid()}"
    tmp.write_text(text)
    os.replace(tmp, path)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def report(results_dir):
    """``report(exp_id, text)`` — persist a paper-shape table/finding."""

    def write(exp_id: str, text: str) -> None:
        atomic_write_text(results_dir / f"{exp_id}.md", text.rstrip() + "\n")

    return write


@pytest.fixture(scope="session")
def provenance() -> dict:
    """The code revision and host a result was measured on: ``git describe
    --always --dirty`` of the checkout (``-dirty`` = uncommitted changes on
    top of that commit) and the host's CPU count, CPU, Python and numpy,
    plus ``line``, the same as one markdown line."""
    try:
        revision = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=RESULTS_DIR.parent,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    facts = {
        "revision": revision,
        "cpus": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    facts["line"] = (
        f"revision {facts['revision']}; host: {facts['cpus']} CPU(s) "
        f"({facts['cpu']}), Python {facts['python']}, numpy {facts['numpy']}"
    )
    return facts


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2026)
