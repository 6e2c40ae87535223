"""Golden digests of the exact Algorithm 4.1 build (``method="leaves_up"``).

Every case builds an oracle with ``keep_node_distances=True`` and hashes,
part by part:

* ``eplus`` — E⁺ ``src``/``dst``/``weight``;
* ``leaf_diameters`` — the per-leaf ℓ values;
* ``nodes`` — every per-node distance matrix with its vertex labels;
* ``ledger`` — the preprocess ledger's work, depth and per-label tallies;
* ``key`` — the augmentation-cache key of the build.

Ledger variants repeat one case under the CRCW model and a charged ω
below 3.  Negative-cycle cases record the tree node and vertex that
``NegativeCycleDetected`` reports instead.  ``tests/test_build_parity.py``
recomputes every digest with :func:`digest_case` and compares it with the
recorded file, so a change that moves one bit of the build fails there.

Regenerate (only when a change to the build's output is intended, and say
so in CHANGES.md), from the repository root:

    PYTHONPATH=src python tools/build_parity_digests.py [--out PATH]
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
from pathlib import Path

import numpy as np

from repro import ShortestPathOracle
from repro.cache import augmentation_key
from repro.core.augment import NegativeCycleDetected
from repro.core.config import OracleConfig
from repro.core.digraph import WeightedDigraph
from repro.core.semiring import SEMIRINGS
from repro.kernels.boolmat import charged_omega, set_charged_omega
from repro.pram.machine import pram_model, set_pram_model
from repro.separators import decompose
from repro.separators.grid import decompose_grid
from repro.workloads.generators import (
    apply_potential_weights,
    delaunay_digraph,
    grid_digraph,
)
from repro.workloads.synthetic import separator_programmable_family

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "build_parity.json"

GRAPHS = ("grid7", "grid12", "grid20", "mu260", "delaunay120", "twogrids")
WEIGHTS = ("int", "float", "negative", "small")
SEMIRING_NAMES = tuple(sorted(SEMIRINGS))
#: (graph, cycle kind) → the semirings that certify negative cycles.
NEGCYCLE_CASES = (("grid7", "leaf"), ("grid7", "perimeter"), ("grid12", "perimeter"))
NEGCYCLE_SEMIRINGS = ("hops", "min-plus")
#: (PRAM model, charged ω, semiring) variants of the ledger closed forms,
#: on grid12 with integer weights.
LEDGER_VARIANTS = (("CRCW", 3.0, "min-plus"), ("CRCW", 3.0, "boolean"), ("EREW", 2.37, "boolean"))


@functools.lru_cache(maxsize=None)
def make_graph(name: str):
    """``(graph, tree)`` for a named case graph (fixed seeds, built once)."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name.startswith("grid"):
        k = int(name[4:])
        g = grid_digraph((k, k), rng)
        return g, decompose_grid(g, (k, k), leaf_size=4)
    if name == "mu260":
        return separator_programmable_family(260, 0.5, rng)
    if name == "delaunay120":
        g, _ = delaunay_digraph(120, rng, euclidean_weights=False)
        return g, decompose(g, "planar", leaf_size=6)
    if name == "twogrids":
        # disconnected: the root's separator is empty
        a, b = grid_digraph((5, 5), rng), grid_digraph((4, 4), rng)
        g = WeightedDigraph(
            a.n + b.n,
            np.concatenate([a.src, b.src + a.n]),
            np.concatenate([a.dst, b.dst + a.n]),
            np.concatenate([a.weight, b.weight]),
        )
        return g, decompose(g, "planar", leaf_size=4)
    raise KeyError(name)


def reweighted(g: WeightedDigraph, kind: str) -> WeightedDigraph:
    """The case graph under integer, float, negative (cycle-free) or small
    weights (0, 1 or 2: optimal paths of different hop counts tie)."""
    rng = np.random.default_rng(len(kind) * 7919 + g.m)
    if kind == "int":
        w = rng.integers(1, 100, size=g.m).astype(np.float64)
    elif kind == "float":
        w = rng.uniform(0.5, 20.0, size=g.m)
    elif kind == "negative":
        return apply_potential_weights(g, rng)
    elif kind == "small":
        w = rng.integers(0, 3, size=g.m).astype(np.float64)
    else:
        raise KeyError(kind)
    return WeightedDigraph(g.n, g.src, g.dst, w)


def negative_cycle_graph(g: WeightedDigraph, side: int, kind: str) -> WeightedDigraph:
    """A grid with one negative cycle: a reciprocal pair (``leaf``, which a
    leaf certifies) or the outer ring (``perimeter``, which no leaf holds:
    −1 clockwise, +2 against, so every 2-cycle stays positive)."""
    w = np.round(g.weight) + 1.0
    pair = {(int(s), int(d)): i for i, (s, d) in enumerate(zip(g.src, g.dst))}
    if kind == "leaf":
        w[[pair[(0, 1)], pair[(1, 0)]]] = -50.0
    else:
        ring = (
            [(0, c) for c in range(side)]
            + [(r, side - 1) for r in range(1, side)]
            + [(side - 1, c) for c in range(side - 2, -1, -1)]
            + [(r, 0) for r in range(side - 2, -1, -1)]
        )
        ids = [r * side + c for r, c in ring]
        for u, v in zip(ids[:-1], ids[1:]):
            w[pair[(u, v)]] = -1.0
            w[pair[(v, u)]] = 2.0
    return WeightedDigraph(g.n, g.src, g.dst, w)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()


def digest_build(oracle: ShortestPathOracle) -> dict[str, str]:
    """Per-part digests of one exact build (see the module docstring)."""
    aug, sr = oracle.augmentation, oracle.augmentation.semiring
    eplus = _sha(
        np.asarray(aug.src, dtype=np.int64).tobytes(),
        np.asarray(aug.dst, dtype=np.int64).tobytes(),
        np.asarray(aug.weight, dtype=sr.dtype).tobytes(),
    )
    diam = _sha(json.dumps(sorted((int(k), int(v)) for k, v in aug.leaf_diameters.items())).encode())
    node_chunks = []
    for idx in sorted(aug.node_distances):
        nd = aug.node_distances[idx]
        node_chunks += [
            str(idx).encode(),
            np.asarray(nd.vertices, dtype=np.int64).tobytes(),
            np.ascontiguousarray(nd.matrix, dtype=sr.dtype).tobytes(),
        ]
    led = oracle.preprocess_ledger
    tallies = {
        label: [float(t["work"]).hex(), float(t["depth"]).hex(), int(t["calls"])]
        for label, t in led.breakdown().items()
    }
    ledger = _sha(json.dumps(
        [float(led.work).hex(), float(led.depth).hex(), tallies], sort_keys=True
    ).encode())
    key = augmentation_key(oracle.graph, oracle.tree, sr, "leaves_up")
    return {"eplus": eplus, "leaf_diameters": diam, "nodes": _sha(*node_chunks),
            "ledger": ledger, "key": key}


def _config(semiring: str) -> OracleConfig:
    return OracleConfig(method="leaves_up", semiring=semiring, keep_node_distances=True)


def digest_case(graph: str, weights: str, semiring: str) -> dict[str, str]:
    g, tree = make_graph(graph)
    oracle = ShortestPathOracle.build(reweighted(g, weights), tree, config=_config(semiring))
    return digest_build(oracle)


def ledger_variant(model: str, omega: float, semiring: str) -> dict[str, str]:
    """:func:`digest_case` on grid12 under another PRAM model / charged ω."""
    saved = pram_model(), charged_omega()
    set_pram_model(model)
    set_charged_omega(omega)
    try:
        return digest_case("grid12", "int", semiring)
    finally:
        set_pram_model(saved[0])
        set_charged_omega(saved[1])


def negative_cycle_case(graph: str, kind: str, semiring: str) -> list[int]:
    """``[node_idx, vertex]`` reported for the case's negative cycle."""
    g, tree = make_graph(graph)
    bad = negative_cycle_graph(g, int(graph[4:]), kind)
    try:
        ShortestPathOracle.build(bad, tree, config=_config(semiring))
    except NegativeCycleDetected as exc:
        return [int(exc.node_idx), int(exc.vertex)]
    raise AssertionError(f"{graph}/{kind}/{semiring}: negative cycle not detected")


def all_digests() -> dict:
    builds = {
        f"{g}/{w}/{s}": digest_case(g, w, s)
        for g in GRAPHS for w in WEIGHTS for s in SEMIRING_NAMES
    }
    cycles = {
        f"{g}/{k}/{s}": negative_cycle_case(g, k, s)
        for g, k in NEGCYCLE_CASES for s in NEGCYCLE_SEMIRINGS
    }
    ledgers = {f"{m}/{o}/{s}": ledger_variant(m, o, s) for m, o, s in LEDGER_VARIANTS}
    return {"builds": builds, "negative_cycles": cycles, "ledger_variants": ledgers}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = ap.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
