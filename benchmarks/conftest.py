"""Shared benchmark infrastructure.

Each bench regenerates one paper artifact (DESIGN.md §4).  The
*paper-shape* evidence (ledger work, fitted exponents, bound checks) is
written as markdown rows into ``benchmarks/results/<exp_id>.md`` so
EXPERIMENTS.md can quote it; machine-readable records go to
``benchmarks/results/BENCH_*.json`` through ``record_json``, stamped with
``provenance``.

Every wall-clock number goes through one harness, :func:`rotating_rounds`
(the ``timed`` fixture): each side of a comparison runs once per round,
the side that runs first rotates every round, and a speed bar reads the
per-round ratio of its two sides, so host drift between rounds cancels.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import platform
import subprocess
import time

import numpy as np
import pytest
import scipy

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def quartiles(xs) -> list[float]:
    """``[q1, median, q3]`` of ``xs``."""
    return [float(q) for q in np.percentile(np.asarray(xs, dtype=float), [25, 50, 75])]


class Rounds:
    """What :func:`rotating_rounds` measured: ``samples[side]`` holds one
    wall (s per call) per round, in round order; ``outputs[side]`` is the
    side's last return value."""

    def __init__(self, samples: dict[str, list[float]], outputs: dict[str, object]):
        self.samples, self.outputs = samples, outputs

    def quartiles(self, side: str, scale: float = 1.0) -> list[float]:
        return [q * scale for q in quartiles(self.samples[side])]

    def median(self, side: str) -> float:
        return self.quartiles(side)[1]

    def ratios(self, num: str, den: str) -> list[float]:
        """``num``'s wall over ``den``'s, one ratio per round."""
        return [a / b for a, b in zip(self.samples[num], self.samples[den])]

    def ratio_quartiles(self, num: str, den: str) -> list[float]:
        return quartiles(self.ratios(num, den))

    @staticmethod
    def span(q: list[float], digits: int = 2) -> str:
        """A ``[q1, median, q3]`` triple as ``"median [q1–q3]"``."""
        return f"{q[1]:.{digits}f} [{q[0]:.{digits}f}–{q[2]:.{digits}f}]"

    def record(self, scale: float = 1.0) -> dict:
        """JSON-ready ``{"rounds": r, side: [q1, median, q3], ...}``."""
        rounds = len(next(iter(self.samples.values())))
        return {"rounds": rounds, **{s: self.quartiles(s, scale) for s in self.samples}}


def rotating_rounds(sides: dict, rounds: int, *, calls: int = 1, warmup: int = 1,
                    clock=time.perf_counter) -> Rounds:
    """Time the zero-argument callables ``sides`` (name → callable) in
    ``rounds`` rotating rounds.  Every side first runs ``warmup`` untimed
    calls; then every round runs each side once, round ``r`` starting at
    side ``r mod len(sides)``, and samples a side as the mean wall of
    ``calls`` back-to-back calls."""
    names = list(sides)
    for name in names:
        for _ in range(warmup):
            sides[name]()
    samples: dict[str, list[float]] = {name: [] for name in names}
    outputs: dict[str, object] = {}
    for r in range(rounds):
        k = r % len(names)
        for name in names[k:] + names[:k]:
            t0 = clock()
            for _ in range(calls):
                outputs[name] = sides[name]()
            samples[name].append((clock() - t0) / calls)
    return Rounds(samples, outputs)


def atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write via a same-directory temp file + ``os.replace`` so a crashed
    run never leaves a truncated result file behind."""
    tmp = path.parent / f"{path.name}.tmp-{os.getpid()}"
    tmp.write_text(text)
    os.replace(tmp, path)


@pytest.fixture(scope="session")
def timed():
    """The suite's one timing harness, :func:`rotating_rounds`."""
    return rotating_rounds


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
def record_json(results_dir, provenance):
    """``record_json(name, key, record)`` — merge one record into
    ``results/<name>`` under ``key`` and stamp the file with the
    ``provenance`` facts."""

    def write(name: str, key: str, record: dict) -> None:
        path = results_dir / name
        data = json.loads(path.read_text()) if path.exists() else {}
        data[key] = record
        data["provenance"] = {k: v for k, v in provenance.items() if k != "line"}
        atomic_write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")

    return write


@pytest.fixture(scope="session")
def provenance() -> dict:
    """The code revision and host a result was measured on: ``git describe
    --always --dirty`` of the checkout (``-dirty`` = uncommitted changes on
    top of that commit), the host's CPU count and the CPUs this process may
    run on, the CPU, Python, numpy and scipy, and whether numba is
    importable, plus ``line``, the same as one markdown line."""
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
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }
    facts["line"] = (
        f"revision {facts['revision']}; host: {facts['cpus']} CPU(s), "
        f"{facts['affinity_cpus']} usable ({facts['cpu']}), Python "
        f"{facts['python']}, numpy {facts['numpy']}, scipy {facts['scipy']}, "
        f"numba {'present' if facts['numba'] else 'absent'}"
    )
    return facts


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2026)
