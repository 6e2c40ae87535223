"""End-to-end benchmark of the separator-decomposition oracle.

    python3 perfbench/run.py --workload grid-batch --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seconds 8       # every workload, a table

Run from anywhere; the program under test is imported from ``src/`` of the
checkout that holds this directory.  Each workload runs in a fresh child
process whose environment pins BLAS/OpenMP to one thread and points the
augmentation cache and kernel-tuning file at a private scratch directory
(``.perfbench_tmp/`` at the checkout root), so nothing an earlier run left
behind can change what this one measures.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  The line before
it is a JSON detail record: host facts, sample counts, the reference
operation's times, every end-to-end number as timed (before scaling to the
reference host speed) and, on a traced run, where the spans were written.  ``--smoke`` shrinks every size for tests.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
NAMES = ("grid-batch", "grid-served", "expander-auto")
CHILD_TIMEOUT_S = 175.0

#: Environment every measured child runs with (BLAS/OpenMP pools pinned
#: before numpy is imported; hash seed fixed).
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "MALLOC_ARENA_MAX": "1",
}
#: Variables that would let outside state steer kernel or cache choices.
DROPPED_ENV = ("REPRO_KERNEL", "REPRO_CACHE_MAX_BYTES")


def parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# ------------------------------------------------------------------ #
# Parent: one fresh child process per workload run
# ------------------------------------------------------------------ #


def run_child(args: argparse.Namespace, workload: str) -> tuple[int, list[str]]:
    """Run one workload in a fresh process; returns its exit code and
    standard-output lines."""
    TMP.mkdir(exist_ok=True)
    scratch = TMP / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env.update(PINNED_ENV)
    env["REPRO_CACHE_DIR"] = str(scratch / "cache")
    env["REPRO_KERNEL_TUNE"] = str(scratch / "no-tuning.json")  # never created
    env["XDG_CACHE_HOME"] = str(scratch / "xdg")
    env["PERFBENCH_SCRATCH"] = str(scratch)
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: {workload} exceeded {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return 124, []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, out.splitlines()


def main_parent(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {SRC}/repro", file=sys.stderr)
        return 2
    if args.workload != "all":
        code, lines = run_child(args, args.workload)
        if code != 0 or not lines:
            print(f"perfbench: {args.workload} failed (exit {code})", file=sys.stderr)
            return code or 1
        print("\n".join(lines))
        return 0
    rows, results = [], {}
    for name in NAMES:
        code, lines = run_child(args, name)
        if code != 0 or len(lines) < 2:
            print(f"perfbench: {name} failed (exit {code})", file=sys.stderr)
            return code or 1
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        results[name] = result
        rows.append(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                    f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            n = detail["samples"].get(metric, "")
            rows.append(f"  {metric:<32} {m['value']:>14.4f} {m['unit']:<6} n={n}")
    print(f"host: {json.dumps(detail['host'])}")
    print("\n".join(rows))
    print(json.dumps(results))
    return 0


# ------------------------------------------------------------------ #
# Child: the measured process
# ------------------------------------------------------------------ #


def host_facts() -> dict:
    import importlib.util
    import platform

    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def main_child(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import spans
    import workloads

    scratch = os.environ["PERFBENCH_SCRATCH"]
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    ctx = workloads.Context(sizes, args.seed, scratch, tracer)
    res = workloads.run(args.workload, ctx, args.seconds)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "host": host_facts(),
        "check": res["check"],
        "tail_quantile": res["tail_quantile"],
        "reference_op_ms": res["reference_op_ms"],
        "e2e_as_timed": {k: v[0] for k, v in res["e2e_as_timed"].items()},
    }
    if tracer is None:
        metrics = res["e2e"]
    else:
        tracer.uninstall()
        metrics = res["layers"]
        out_dir = TMP / "traces"
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(path)
        detail["spans"] = {"file": str(path.relative_to(ROOT)), "count": len(tracer.spans)}
        detail["e2e_traced"] = {k: v[0] for k, v in res["e2e"].items()}
    detail["samples"] = {k: v[2] for k, v in res["e2e"].items()}
    result = {
        "correct": res["failed"] == 0,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": float(v[0]), "unit": v[1]} for k, v in metrics.items()},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    return main_child(args) if args.child else main_parent(args)


if __name__ == "__main__":
    sys.exit(main())
