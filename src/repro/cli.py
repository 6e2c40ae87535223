"""Command-line harness: ``repro-spsp`` (or ``python -m repro``).

Subcommands
-----------
``fig1``    regenerate the paper's Figure 1 (separator tree of the 9×9 grid)
``fig2``    regenerate Figure 2 (level-labeled path + right shortcuts)
``stats``   build the oracle on a generated workload and print its numbers
``table1``  quick Table-1-style sweep (ledger work vs n, fitted exponents)
``query``   serve batched multi-source queries via the persistent engine
``serve``   run the async coalescing query server on a socket
``reweight`` hot-swap a running server to new edge weights (zero downtime)
``cache``   manage the content-addressed augmentation store (ls/stats/clear)
``selftest`` end-to-end install verification against independent baselines
``report``  aggregate benchmark results into one document
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


#: argparse dest → :class:`~repro.core.config.OracleConfig` field.  This
#: table is the *only* flag→config plumbing: every serving/build flag maps
#: 1:1 onto a config field through :func:`config_from_args`, and its
#: ``--help`` text comes from the field's dataclass docstring
#: (:meth:`OracleConfig.field_doc`) so flag and field cannot drift.
_CONFIG_FLAG_FIELDS = {
    "leaf_size": "leaf_size",
    "backend": "executor",
    "cache": "cache",
    "cache_dir": "cache_dir",
    "row_cache": "row_cache",
    "shards": "shards",
    "refine": "refine_separators",
    "refine_max_nodes": "refine_max_nodes",
    "mode": "mode",
}


def config_from_args(args):
    """One :class:`~repro.core.config.OracleConfig` from parsed CLI flags.

    Walks :data:`_CONFIG_FLAG_FIELDS`: a flag the subcommand defined (and
    the user set or defaulted to a non-``None`` value) lands on its config
    field; everything else keeps the dataclass default.  Every subcommand
    builds through this instead of repeating per-flag kwargs.
    """
    from .core.config import OracleConfig

    changes = {
        field: getattr(args, dest)
        for dest, field in _CONFIG_FLAG_FIELDS.items()
        if getattr(args, dest, None) is not None
    }
    return OracleConfig().replace(**changes)


def _cfg_help(field: str, extra: str = "") -> str:
    """``--help`` text for a config-mapped flag, generated from the
    dataclass field doc (single source of truth)."""
    from .core.config import OracleConfig

    doc = OracleConfig.field_doc(field)
    return f"{doc} {extra}".strip() if doc else extra


def _add_cache_flags(p) -> None:
    """The shared ``--cache`` / ``--cache-dir`` build flags."""
    p.add_argument("--cache", choices=["off", "read", "readwrite"], default="off",
                   help="augmentation store mode (content-addressed build cache)")
    p.add_argument("--cache-dir", dest="cache_dir", default=None,
                   help="store directory (default REPRO_CACHE_DIR or ~/.cache/repro/aug)")


def _add_refine_flags(p) -> None:
    """The shared ``--refine`` / ``--refine-max-nodes`` build flags."""
    p.add_argument("--refine", action="store_true", default=False,
                   help=_cfg_help("refine_separators"))
    p.add_argument("--refine-max-nodes", dest="refine_max_nodes", type=int,
                   default=None, help=_cfg_help("refine_max_nodes"))


def _add_mode_flags(p) -> None:
    """The shared ``--mode`` flag (exact/direct/auto).  It deliberately has
    no argparse ``choices``: an unknown name reaches
    :class:`~repro.core.config.OracleConfig` and raises its mode error,
    which names every valid mode and how each is selected."""
    p.add_argument("--mode", default=None, help=_cfg_help("mode"))


def _workload_from_args(args):
    """``(graph, tree)`` for the shared ``--family/--n/--leaf-size/--seed``
    flags (tree is ``None`` for families that self-decompose in build)."""
    from .separators.grid import decompose_grid
    from .workloads.generators import delaunay_digraph, expander_digraph, grid_digraph

    rng = np.random.default_rng(args.seed)
    if args.family == "grid":
        side = int(round(np.sqrt(args.n)))
        g = grid_digraph((side, side), rng)
        tree = decompose_grid(g, (side, side), leaf_size=args.leaf_size)
    elif args.family == "expander":
        # No sublinear separator exists here — pair with --mode direct (or
        # auto, which gates to the direct tier on the poor separability score).
        g = expander_digraph(args.n, rng)
        tree = None
    else:
        g, _ = delaunay_digraph(args.n, rng)
        from .separators.planar import decompose_planar

        tree = decompose_planar(g, leaf_size=args.leaf_size)
    return g, tree


def _cmd_fig1(args) -> int:
    from .core.api import ShortestPathOracle
    from .separators.grid import decompose_grid
    from .workloads.generators import grid_digraph

    side = args.side
    g = grid_digraph((side, side), np.random.default_rng(args.seed))
    tree = decompose_grid(g, (side, side), leaf_size=args.leaf_size)
    print(f"Separator decomposition tree of the {side}x{side} grid "
          f"(paper Fig. 1; leaf_size={args.leaf_size})")
    print(f"nodes={len(tree.nodes)} height={tree.height}\n")
    for t in tree.nodes:
        if t.level > args.max_depth:
            continue
        pad = "  " * t.level
        kind = "leaf" if t.is_leaf else "node"
        sep = "" if t.is_leaf else f" S(t)={t.separator.tolist()}"
        print(f"{pad}{kind} {t.idx}: |V|={t.size} |B|={t.boundary.shape[0]}{sep}")
    oracle = ShortestPathOracle.build(g, tree)
    print("\noracle:", oracle.stats())
    return 0


def _cmd_fig2(args) -> int:
    from .core.shortcuts import is_bitonic_with_pairs, shortcut_chain
    from .separators.grid import decompose_grid
    from .workloads.generators import grid_digraph

    rng = np.random.default_rng(args.seed)
    side = args.side
    g = grid_digraph((side, side), rng)
    tree = decompose_grid(g, (side, side), leaf_size=args.leaf_size)
    # A boustrophedon walk across the grid makes a long, level-rich path.
    path = []
    for r in range(side):
        cols = range(side) if r % 2 == 0 else range(side - 1, -1, -1)
        path.extend(r * side + c for c in cols)
    levels = tree.vertex_level[np.array(path)]
    chain = shortcut_chain(levels)
    chain_levels = [int(levels[i]) for i in chain]
    print("Right shortcuts on a level-labeled path (paper Fig. 2)")
    print("path levels:", " ".join("∞" if l < 0 else str(int(l)) for l in levels[:60]),
          "..." if len(path) > 60 else "")
    print("shortcut chain positions:", chain)
    print("chain levels:", chain_levels)
    print(f"chain size {len(chain) - 1} <= 4·d_G + 1 = {4 * tree.height + 1}:",
          len(chain) - 1 <= 4 * tree.height + 1)
    print("bitonic with ≤2-runs:", is_bitonic_with_pairs(chain_levels))
    return 0


def _cmd_stats(args) -> int:
    from .core.api import ShortestPathOracle
    from .separators.quality import assess

    rng = np.random.default_rng(args.seed)
    g, tree = _workload_from_args(args)
    oracle = ShortestPathOracle.build(g, tree, config=config_from_args(args))
    if oracle.cache_info.get("mode", "off") != "off":
        print("build cache:", oracle.cache_info)
    if tree is not None:
        print("decomposition:", assess(tree).summary())
    s = oracle.stats()
    print(f"oracle: mode={s['mode']} eplus={s['eplus']} "
          f"diameter_bound={s['diameter_bound']}")
    for k, v in s.items():
        print(f"  {k}: {v}")
    srcs = rng.integers(0, g.n, size=args.sources)
    d = oracle.distances(srcs)
    print(f"queried {args.sources} sources; finite fraction "
          f"{np.isfinite(d).mean():.3f}; query work {oracle.query_ledger.work:.3g}")
    return 0


def _cmd_table1(args) -> int:
    from .analysis.complexity import fit_exponent, fit_exponent_with_log
    from .analysis.tables import render_table
    from .core.leaves_up import augment_leaves_up
    from .core.scheduler import build_schedule
    from .core.sssp import sssp_scheduled
    from .pram.machine import Ledger
    from .separators.grid import decompose_grid
    from .workloads.generators import grid_digraph

    rng = np.random.default_rng(args.seed)
    if args.mu is not None:
        # Programmable-μ sweep on the synthetic family.
        from .workloads.synthetic import separator_programmable_family

        rows, sizes, pre_w, src_w = [], [], [], []
        for n in args.sizes:
            g, tree = separator_programmable_family(n, args.mu, rng)
            led, qled = Ledger(), Ledger()
            aug = augment_leaves_up(g, tree, ledger=led, keep_node_distances=False)
            sssp_scheduled(aug, [0], schedule=build_schedule(aug), ledger=qled)
            sizes.append(n)
            pre_w.append(led.work)
            src_w.append(qled.work)
            rows.append([n, g.m, aug.size, led.work, qled.work])
        print(render_table(
            ["n", "m", "|E+|", "preproc work", "per-source work"], rows,
            title=f"Table 1 at programmed μ = {args.mu}",
        ))
        if len(sizes) >= 2:
            print("\npreprocessing exponent:", fit_exponent_with_log(sizes, pre_w),
                  f" (theory {max(1.0, 3 * args.mu):.2f})")
            print("per-source exponent:   ", fit_exponent_with_log(sizes, src_w),
                  f" (theory {max(1.0, 2 * args.mu):.2f})")
        return 0
    rows = []
    sizes, pre_work, src_work = [], [], []
    for side in args.sides:
        g = grid_digraph((side, side), rng)
        tree = decompose_grid(g, (side, side), leaf_size=args.leaf_size)
        led = Ledger()
        aug = augment_leaves_up(g, tree, ledger=led, keep_node_distances=False)
        qled = Ledger()
        schedule = build_schedule(aug)
        sssp_scheduled(aug, [0], schedule=schedule, ledger=qled)
        sizes.append(g.n)
        pre_work.append(led.work)
        src_work.append(qled.work)
        rows.append([g.n, g.m, aug.size, led.work, led.depth, qled.work])
    print(render_table(
        ["n", "m", "|E+|", "preproc work", "preproc depth", "per-source work"],
        rows,
        title="Table 1 shape on 2-D grids (μ = 1/2)",
    ))
    if len(sizes) >= 2:
        print("\npreprocessing work exponent:", fit_exponent(sizes, pre_work))
        print("per-source work exponent:   ", fit_exponent(sizes, src_work))
        print("(paper: 3μ = 1.5 · polylog for preprocessing, "
              "n log n per source at μ = 1/2)")
    return 0


def _cmd_query(args) -> int:
    """Serve batched multi-source queries through the persistent
    :class:`~repro.core.query.QueryEngine` and report throughput."""
    import time

    from .core.api import ShortestPathOracle

    rng = np.random.default_rng(args.seed)
    g, tree = _workload_from_args(args)
    cfg = config_from_args(args)
    t0 = time.perf_counter()
    oracle = ShortestPathOracle.build(g, tree, config=cfg)
    build_s = time.perf_counter() - t0
    print(f"built oracle: n={g.n} m={g.m} |E+|={oracle.augmentation.size} "
          f"({build_s:.3f}s)")
    batches = [
        rng.integers(0, g.n, size=args.sources) for _ in range(args.batches)
    ]
    with oracle.query_engine(cfg) as eng:
        t0 = time.perf_counter()
        dists = [eng.query(b) for b in batches]
        serve_s = time.perf_counter() - t0
        stats = eng.stats()
    rows = sum(d.shape[0] for d in dists)
    finite = float(np.mean([np.isfinite(d).mean() for d in dists]))
    print(f"served {stats['queries_served']} batches / {rows} source rows on "
          f"backend={stats['backend']}:{stats['workers']} "
          f"in {serve_s:.3f}s ({rows / max(serve_s, 1e-9):.1f} rows/s)")
    print(f"shared bytes published once: {stats['shared_bytes']}; "
          f"finite distance fraction {finite:.3f}")
    if args.check:
        want = oracle.distances(batches[0])
        same = np.array_equal(want, dists[0])
        print(f"bit-identical to a serial pass: {same}")
        return 0 if same else 1
    return 0


def _configure_logging(verbose: int) -> None:
    """Stdlib logging for the serving path: ``-v`` → INFO, ``-vv`` → DEBUG
    on the ``repro`` logger (server lifecycle, shard router and engine
    events); default stays WARNING-quiet."""
    import logging

    level = (
        logging.WARNING if verbose <= 0
        else logging.INFO if verbose == 1
        else logging.DEBUG
    )
    logging.basicConfig(
        level=level, format="%(asctime)s %(levelname)s %(name)s: %(message)s"
    )
    logging.getLogger("repro").setLevel(level)


def _cmd_serve(args) -> int:
    """Run the async coalescing query server (see :mod:`repro.server` and
    DESIGN.md §6) over a built — or loaded — oracle until SIGINT/SIGTERM,
    then drain and shut down gracefully.  With ``--shards K`` the serving
    engine is a :class:`~repro.shard.ShardRouter` (K in-process shard
    engines behind the three-leg route)."""
    import asyncio
    import signal

    from .core.api import ShortestPathOracle
    from .server import OracleServer, ServerConfig

    _configure_logging(args.verbose)
    cfg = config_from_args(args)
    if args.load:
        oracle = ShortestPathOracle.load(args.load)
        print(f"loaded oracle from {args.load}: n={oracle.graph.n} "
              f"m={oracle.graph.m} |E+|={oracle.augmentation.size}")
    else:
        g, tree = _workload_from_args(args)
        oracle = ShortestPathOracle.build(g, tree, config=cfg)
        print(f"built oracle: n={g.n} m={g.m} |E+|={oracle.augmentation.size}")
    engine_factory = None
    if args.shards > 0:
        engine_factory = lambda: oracle.shard_fleet(args.shards, config=cfg)  # noqa: E731
    server_cfg = ServerConfig(
        path=args.socket,
        host=args.host,
        port=args.port,
        max_batch_rows=args.max_batch,
        max_wait_us=args.max_wait_us,
        queue_limit=args.queue_limit,
        request_timeout_ms=args.timeout_ms,
    )

    async def run() -> None:
        server = OracleServer(oracle, cfg, server_cfg, engine_factory=engine_factory)
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, server.request_shutdown)
        if args.shards > 0:
            mode = f"shards={args.shards}"
        else:
            mode = f"backend={cfg.executor}"
        print(f"serving on {server.address} "
              f"({mode} "
              f"max_batch={server_cfg.max_batch_rows} "
              f"max_wait={server_cfg.max_wait_us}µs "
              f"queue_limit={server_cfg.queue_limit}); Ctrl-C to stop")
        await server.serve_forever()
        snap = server.metrics.snapshot()
        print(f"drained and stopped: {snap['requests_total']} requests, "
              f"{snap['batches_total']} batches, "
              f"coalesce factor {snap['coalesce_factor']:.2f}")

    asyncio.run(run())
    return 0


def _parse_address(args):
    """Socket address from the shared ``--socket`` / ``--host``/``--port``
    client flags (unix path wins when both are given)."""
    return args.socket if args.socket else (args.host, args.port)


def _cmd_reweight(args) -> int:
    """Hot-swap a *running* server (``repro-spsp serve``) to new edge
    weights over the ``reweight`` RPC — zero downtime, no rebuild: the
    server replays the retained E⁺ provenance and flips epochs atomically
    (single engine and shard router alike).  Weights come from a file
    (``--weights``: ``.npy`` or whitespace-separated text, full edge
    order) or inline sparse assignments (``--edge ID=WEIGHT``, repeatable).
    """
    from .server.client import OracleClient

    if bool(args.weights) == bool(args.edge):
        print("pass exactly one of --weights FILE or --edge ID=WEIGHT ...",
              file=sys.stderr)
        return 2
    with OracleClient(_parse_address(args), timeout=args.timeout_ms / 1e3) as c:
        if args.weights:
            if args.weights.endswith(".npy"):
                w = np.load(args.weights)
            else:
                w = np.loadtxt(args.weights).ravel()
            res = c.reweight(w)
        else:
            delta = {}
            for spec in args.edge:
                eid, _, val = spec.partition("=")
                if not val:
                    print(f"malformed --edge {spec!r} (want ID=WEIGHT)",
                          file=sys.stderr)
                    return 2
                delta[int(eid)] = float(val)
            res = c.reweight(delta=delta)
    print(f"reweighted ({res['mode']}): weights epoch {res['weights_epoch']} "
          f"in {res['wall_s']:.3f}s")
    return 0


def _cmd_cache(args) -> int:
    """Manage the content-addressed augmentation store (:mod:`repro.cache`):
    ``ls`` lists entries (E⁺ and tree) oldest-first, ``stats`` prints the
    store summary with its per-kind counts, ``clear`` deletes every
    entry/lock/temp file."""
    from .cache import AugmentationCache

    store = AugmentationCache(args.cache_dir)
    if args.action == "ls":
        entries = store.entries()
        if not entries:
            print(f"cache {store.dir}: empty")
            return 0
        print(f"cache {store.dir}: {len(entries)} entries (oldest first)")
        for e in entries:
            if e["kind"] == "tree":
                detail = f"nodes={e.get('nodes', '?')} tier={e.get('tier', '?')}"
            else:
                detail = (f"m={e.get('m', '?')} |E+|={e.get('eplus', '?')}"
                          f" method={e.get('method', '?')}"
                          f" semiring={e.get('semiring', '?')}")
            print(f"  {e['key'][:16]}…  {int(e.get('bytes', 0)):>12} B"
                  f"  {e['kind']:<5} n={e.get('n', '?')} {detail}")
        return 0
    if args.action == "stats":
        for k, v in store.stats().items():
            print(f"  {k}: {v}")
        return 0
    removed = store.clear()
    print(f"cleared {removed} entries from {store.dir}")
    return 0


def _cmd_selftest(args) -> int:
    """End-to-end self-verification on randomized workloads: builds the full
    pipeline across families and all three E⁺ builders (Algorithms 4.1 and
    4.3, Remark 4.4) and cross-checks against independent baselines.
    Exit code 0 = healthy install."""
    from .core.api import ShortestPathOracle
    from .core.config import OracleConfig
    from .core.doubling import augment_doubling
    from .core.doubling_shared import augment_doubling_shared
    from .core.leaves_up import augment_leaves_up
    from .core.sssp import measured_diameter, sssp_scheduled
    from .kernels.dijkstra import dijkstra
    from .kernels.johnson import johnson
    from .separators.grid import decompose_grid
    from .separators.quality import assess
    from .workloads.generators import (
        apply_potential_weights,
        delaunay_digraph,
        grid_digraph,
    )

    rng = np.random.default_rng(args.seed)
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1

    print("selftest: grid family")
    g = grid_digraph((12, 12), rng)
    tree = decompose_grid(g, (12, 12))
    check("decomposition valid", not tree.validate(g, strict=False))
    for build in (augment_leaves_up, augment_doubling, augment_doubling_shared):
        aug = build(g, tree)
        method = aug.method
        ok = np.allclose(sssp_scheduled(aug, 0), dijkstra(g, 0))
        check(f"{method} distances == dijkstra", ok)
        check(f"{method} E+ self-check", aug.verify_edges() < 1e-6)
        check(f"{method} diameter bound", measured_diameter(aug) <= aug.diameter_bound)
    print("selftest: negative weights")
    gn = apply_potential_weights(g, rng)
    oracle = ShortestPathOracle.build(gn, tree)
    check("negative weights == johnson", np.allclose(oracle.distances([0]), johnson(gn, [0])))
    print("selftest: planar family")
    gd, _ = delaunay_digraph(200, rng)
    od = ShortestPathOracle.build(gd, config=OracleConfig(separator="planar"))
    check("delaunay distances == dijkstra", np.allclose(od.distances(0), dijkstra(gd, 0)))
    print("selftest: decomposition quality")
    print("   ", assess(tree).summary())
    print(f"selftest: {'PASS' if failures == 0 else f'{failures} FAILURES'}")
    return 0 if failures == 0 else 1


def _cmd_report(args) -> int:
    from .analysis.report import aggregate_results

    text = aggregate_results(args.results)
    if args.output:
        import pathlib

        pathlib.Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-spsp", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p1 = sub.add_parser("fig1", help="separator tree of a grid (paper Fig. 1)")
    p1.add_argument("--side", type=int, default=9)
    p1.add_argument("--leaf-size", dest="leaf_size", type=int, default=4)
    p1.add_argument("--max-depth", dest="max_depth", type=int, default=3)
    p1.add_argument("--seed", type=int, default=0)
    p1.set_defaults(fn=_cmd_fig1)

    p2 = sub.add_parser("fig2", help="right shortcuts on a path (paper Fig. 2)")
    p2.add_argument("--side", type=int, default=9)
    p2.add_argument("--leaf-size", dest="leaf_size", type=int, default=4)
    p2.add_argument("--seed", type=int, default=0)
    p2.set_defaults(fn=_cmd_fig2)

    p3 = sub.add_parser("stats", help="oracle statistics on a workload")
    p3.add_argument("--family", choices=["grid", "delaunay", "expander"],
                    default="grid")
    p3.add_argument("--n", type=int, default=1024)
    p3.add_argument("--sources", type=int, default=4)
    p3.add_argument("--leaf-size", dest="leaf_size", type=int, default=8)
    p3.add_argument("--seed", type=int, default=0)
    _add_cache_flags(p3)
    _add_refine_flags(p3)
    _add_mode_flags(p3)
    p3.set_defaults(fn=_cmd_stats)

    p4 = sub.add_parser("table1", help="quick Table-1 sweep (grids, or any μ with --mu)")
    p4.add_argument("--sides", type=int, nargs="+", default=[8, 12, 16, 24, 32])
    p4.add_argument("--mu", type=float, default=None,
                    help="use the programmable synthetic family at this μ")
    p4.add_argument("--sizes", type=int, nargs="+", default=[300, 600, 1200],
                    help="vertex counts for the --mu sweep")
    p4.add_argument("--leaf-size", dest="leaf_size", type=int, default=8)
    p4.add_argument("--seed", type=int, default=0)
    p4.set_defaults(fn=_cmd_table1)

    p7 = sub.add_parser("query", help="serve batched queries via the persistent engine")
    p7.add_argument("--family", choices=["grid", "delaunay", "expander"],
                    default="grid")
    p7.add_argument("--n", type=int, default=1024)
    p7.add_argument("--sources", type=int, default=64, help="sources per batch")
    p7.add_argument("--batches", type=int, default=4)
    p7.add_argument("--backend", default="serial",
                    help="executor spec: serial | thread[:N] | shm[:N]")
    p7.add_argument("--leaf-size", dest="leaf_size", type=int, default=8)
    p7.add_argument("--seed", type=int, default=0)
    p7.add_argument("--check", action="store_true",
                    help="verify the first batch bit-equals a serial pass")
    _add_cache_flags(p7)
    _add_refine_flags(p7)
    _add_mode_flags(p7)
    p7.set_defaults(fn=_cmd_query)

    p8 = sub.add_parser("serve", help="run the async coalescing query server")
    p8.add_argument("--socket", default=None,
                    help="serve on this unix-socket path (preferred locally)")
    p8.add_argument("--host", default="127.0.0.1")
    p8.add_argument("--port", type=int, default=7470)
    p8.add_argument("--load", default=None,
                    help="serve an oracle persisted with ShortestPathOracle.save")
    p8.add_argument("--family", choices=["grid", "delaunay", "expander"],
                    default="grid")
    p8.add_argument("--n", type=int, default=1024)
    p8.add_argument("--leaf-size", dest="leaf_size", type=int, default=8)
    p8.add_argument("--seed", type=int, default=0)
    p8.add_argument("--backend", default="serial",
                    help="serving executor: serial | thread[:N] | shm[:N]")
    p8.add_argument("--max-batch", dest="max_batch", type=int, default=256,
                    help="coalescing cap in source rows per batch")
    p8.add_argument("--max-wait-us", dest="max_wait_us", type=int, default=2000,
                    help="coalescing window in microseconds")
    p8.add_argument("--queue-limit", dest="queue_limit", type=int, default=1024,
                    help="admitted-but-unfinished requests before shedding (429)")
    p8.add_argument("--timeout-ms", dest="timeout_ms", type=float, default=30000.0,
                    help="default per-request timeout")
    p8.add_argument("--row-cache", dest="row_cache", type=int, default=1024,
                    help=_cfg_help("row_cache"))
    p8.add_argument("--shards", type=int, default=0, help=_cfg_help("shards"))
    p8.add_argument("-v", "--verbose", action="count", default=0,
                    help="serving-path logging: -v INFO, -vv DEBUG")
    _add_cache_flags(p8)
    _add_refine_flags(p8)
    _add_mode_flags(p8)
    p8.set_defaults(fn=_cmd_serve)

    p10 = sub.add_parser(
        "reweight", help="hot-swap a running server to new edge weights"
    )
    p10.add_argument("--socket", default=None,
                     help="unix-socket path of the running server")
    p10.add_argument("--host", default="127.0.0.1")
    p10.add_argument("--port", type=int, default=7470)
    p10.add_argument("--weights", default=None,
                     help="file with the full weight vector in edge order "
                          "(.npy, or whitespace-separated text)")
    p10.add_argument("--edge", action="append", default=[], metavar="ID=WEIGHT",
                     help="sparse absolute assignment (repeatable); the server "
                          "replays only the touched leaves' root paths")
    p10.add_argument("--timeout-ms", dest="timeout_ms", type=float, default=120000.0,
                     help="client timeout for the RPC")
    p10.set_defaults(fn=_cmd_reweight)

    p9 = sub.add_parser("cache", help="manage the augmentation build cache")
    p9.add_argument("action", choices=["ls", "stats", "clear"])
    p9.add_argument("--cache-dir", dest="cache_dir", default=None,
                    help="store directory (default REPRO_CACHE_DIR or ~/.cache/repro/aug)")
    p9.set_defaults(fn=_cmd_cache)

    p6 = sub.add_parser("selftest", help="end-to-end install verification")
    p6.add_argument("--seed", type=int, default=0)
    p6.set_defaults(fn=_cmd_selftest)

    p5 = sub.add_parser("report", help="aggregate benchmarks/results into one document")
    p5.add_argument("--results", default="benchmarks/results")
    p5.add_argument("--output", default="")
    p5.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
