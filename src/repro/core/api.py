"""High-level facade: :class:`ShortestPathOracle`.

One object bundles the whole paper pipeline: separator decomposition (given
or computed), augmentation E⁺ (Algorithm 4.1 or 4.3), the §3.2 phase
schedule, and query methods for distances, trees, paths and reachability —
with PRAM work/depth accounting throughout.

    >>> from repro import OracleConfig, ShortestPathOracle
    >>> from repro.workloads.generators import grid_digraph
    >>> import numpy as np
    >>> g = grid_digraph((16, 16), np.random.default_rng(0))
    >>> oracle = ShortestPathOracle.build(g, config=OracleConfig(separator="auto"))
    >>> d = oracle.distances([0, 5])          # (2, 256) distance matrix
    >>> tree = oracle.shortest_path_tree(0)   # parent array
"""

from __future__ import annotations

import copy
import dataclasses
import time

import numpy as np

from ..pram.machine import Ledger
from .augment import Augmentation
from .config import OracleConfig
from .digraph import WeightedDigraph
from .doubling import augment_doubling
from .leaves_up import augment_leaves_up
from .negcycle import has_negative_cycle
from .paths import reconstruct_path, shortest_path_tree
from .scheduler import PhaseSchedule
from .semiring import Semiring
from .septree import SeparatorTree, build_separator_tree
from .sssp import measured_diameter, sssp_naive, sssp_scheduled

__all__ = ["ShortestPathOracle", "DIRECT_GATE"]

#: Separability threshold of ``mode="auto"``: a best first-pass tree scoring
#: below it (:func:`repro.separators.quality.separability_score`; grids score
#: near 1, expanders near 0) is served by the direct tier, at or above it by
#: the exact E⁺ build.
DIRECT_GATE = 0.5


def _resolve_tree(
    graph: WeightedDigraph,
    tree,
    separator,
    leaf_size: int,
) -> SeparatorTree:
    if tree is not None:
        return tree
    if callable(separator):
        return build_separator_tree(graph, separator, leaf_size=leaf_size)
    from ..separators import decompose

    return decompose(graph, separator, leaf_size=leaf_size)


def _auto_gate(
    graph: WeightedDigraph, tree: SeparatorTree | None, leaf_size: int
) -> tuple[SeparatorTree | None, dict]:
    """``mode="auto"``: score the given tree (or the best first-pass one)
    and pick a tier.  Returns the scored tree and the decision record —
    ``mode``, ``why`` and, when a tree was scored, ``separability``,
    ``gate`` and the per-engine ``candidates``.

    The first pass runs with ``budget = n²``: an engine stops recursing
    once its clique terms pass n², where the separability score is
    already exactly 0.0, so every verdict, score and exact-tier tree is
    the unbudgeted one.  A gate at or below 0 could pick a 0.0 tree for
    the exact tier, so only a positive gate sets the budget."""
    from ..separators import quality

    if tree is None:
        budget = max(1, graph.n) ** 2 if DIRECT_GATE > 0 else None
        try:
            _, tree = quality.best_first_pass(graph, leaf_size=leaf_size, budget=budget)
        except Exception as exc:  # noqa: BLE001 — any engine may reject
            return None, {
                "mode": "direct",
                "gate": DIRECT_GATE,
                "why": (
                    "every first-pass separator engine failed "
                    f"({type(exc).__name__}: {exc})"
                ),
            }
    score = quality.separability_score(tree)
    decision = {"gate": DIRECT_GATE, "separability": score}
    if tree.selection is not None:
        decision["candidates"] = tree.selection.get("candidates")
    if score < DIRECT_GATE:
        decision["mode"] = "direct"
        decision["why"] = (
            f"separability {score:.3f} below gate {DIRECT_GATE:g}: serving G directly"
        )
    else:
        decision["mode"] = "exact"
        decision["why"] = (
            f"separability {score:.3f} at or above gate {DIRECT_GATE:g}: "
            "building exact E⁺"
        )
    return tree, decision


def _derive_tree(
    graph: WeightedDigraph, tree: SeparatorTree | None, cfg: OracleConfig
) -> tuple[SeparatorTree, dict | None]:
    """The tree a build runs on and its tier decision (``None`` for a plain
    ``mode="exact"`` build).

    Tier dispatch: "direct" skips the separator machinery and serves G
    itself; "auto" scores the best first-pass tree against DIRECT_GATE;
    "exact" (the default) is the historical path, bit-for-bit."""
    decision = None
    if cfg.mode == "direct":
        decision = {"mode": "direct", "why": "mode='direct' requested"}
    elif cfg.mode == "auto":
        tree, decision = _auto_gate(graph, tree, cfg.leaf_size)
    if decision is not None and decision["mode"] == "direct":
        from .direct import trivial_tree

        tree = trivial_tree(graph.n)
    else:
        given_tree = tree is not None
        tree = _resolve_tree(graph, tree, cfg.separator, cfg.leaf_size)
        # Post-pass flow refinement — applies to supplied trees too;
        # skipped when separator="flow" just built an already-refined tree.
        if cfg.refine_separators and (given_tree or cfg.separator != "flow"):
            from ..separators.flow import refine_tree

            tree, _ = refine_tree(graph, tree, max_nodes=cfg.refine_max_nodes)
    if decision is not None:
        # A shallow copy carries the record, so a caller's tree reused
        # across builds never shows another build's decision.
        tree = copy.copy(tree)
        tree.selection = {**(tree.selection or {}), "mode_decision": decision}
    return tree, decision


class ShortestPathOracle:
    """Preprocessed multi-source shortest-path oracle for a digraph with a
    separator decomposition (the paper's end-to-end system)."""

    def __init__(
        self,
        graph: WeightedDigraph,
        tree: SeparatorTree,
        augmentation: Augmentation,
        schedule: PhaseSchedule,
        *,
        preprocess_ledger: Ledger,
        config: OracleConfig | None = None,
    ) -> None:
        self.graph = graph
        self.tree = tree
        self.augmentation = augmentation
        self.schedule = schedule
        self.preprocess_ledger = preprocess_ledger
        self.query_ledger = Ledger()
        #: The resolved build configuration — reused by :meth:`with_new_weights`
        #: so a rebuilt oracle carries it on (``reweight``/``validate``
        #: defaults, :meth:`shard_fleet`'s fallback, :meth:`save`'s archive
        #: header), and serializable for the server/CLI (``config.to_dict()``).
        self.config = config if config is not None else OracleConfig()
        #: How the augmentation cache participated in this build (see
        #: :mod:`repro.cache`): ``mode`` / ``status`` (the E⁺ entry's)
        #: always, plus ``tree`` (the tree entry's), ``key``, ``dir`` and
        #: timings once the store was consulted.  Surfaced by
        #: the server's ``stats`` op as the build-cache hit record.
        self.cache_info: dict = {"mode": self.config.cache, "status": "off"}
        #: Build provenance (:class:`~repro.core.reweight.ReweightPlan`)
        #: shared along a :meth:`with_new_weights` lineage — the plan an
        #: Algorithm 4.1 build ran, or captured on the first incremental
        #: reweight of a cache-loaded oracle, then reused by every
        #: reweight derived from this oracle.
        self._reweight_plan = None

    # -------------------------------------------------------------- #

    @classmethod
    def build(
        cls,
        graph: WeightedDigraph,
        tree: SeparatorTree | None = None,
        *,
        config: OracleConfig | None = None,
    ) -> "ShortestPathOracle":
        """Run the full preprocessing pipeline.

        Parameters
        ----------
        tree:
            A precomputed separator decomposition (paper comment (iv): it
            depends only on the skeleton and can be reused across weight /
            direction changes).  When omitted, ``config.separator`` selects
            an engine: ``"auto"``/``"spectral"``, ``"planar"``,
            ``"treewidth"``, ``"multilevel"``, ``"flow"``, or a callable
            oracle.
        config:
            Every knob (default: ``OracleConfig()``); see
            :class:`~repro.core.config.OracleConfig` for the inventory.
            ``mode``, ``method``, ``separator``, ``semiring``, ``leaf_size``,
            ``keep_node_distances``, ``validate``, the refinement fields
            and the cache fields are consumed here; ``executor`` and the
            serving fields ride along untouched for :meth:`query_engine`.
            ``config.cache`` selects the augmentation-cache mode (see
            :mod:`repro.cache`): ``"off"`` never touches the store;
            ``"read"`` loads a content-addressed hit but never writes;
            ``"readwrite"`` additionally persists a miss (under an
            ``O_EXCL`` build lock so concurrent builders of the same key
            produce one store entry).  A hit skips the whole §4
            construction *and* — when the entry's header records that
            validation already ran — the decomposition validity check.
            ``keep_node_distances=True`` bypasses the E⁺ entry (per-node
            matrices are not persisted).  When no ``tree`` is passed and
            a named spec derives it (``mode="auto"``'s gate, or a string
            ``separator``), the same modes read and write a *tree entry*
            keyed by the skeleton (:func:`repro.cache.tree_key`), so a
            hit skips the decomposition or gate as well;
            ``cache_info["tree"]`` reports ``"hit"``/``"miss"``/
            ``"stored"``/``"bypass"``.
        """
        cfg = config if config is not None else OracleConfig()
        cache_info: dict = {"mode": cfg.cache, "status": "off"}
        store = key = lock = None
        if cfg.cache != "off":
            from ..cache import AugmentationCache, augmentation_key, tree_key

            store = AugmentationCache(cfg.cache_dir)
            # A tree entry stands in for the decomposition (or auto gate)
            # a named spec would run: keyed by the skeleton, not the weights.
            tkey = tree_key(graph, cfg) if tree is None else None
            cache_info["tree"] = "bypass" if tkey is None else "miss"
            if tkey is not None:
                t0 = time.perf_counter()
                tree = store.load_tree(tkey)
                cache_info["tree_load_s"] = time.perf_counter() - t0
                if tree is not None:
                    cache_info["tree"] = "hit"
        if cache_info.get("tree") == "hit":
            decision = (tree.selection or {}).get("mode_decision")
        else:
            tree, decision = _derive_tree(graph, tree, cfg)
            if cache_info.get("tree") == "miss" and cfg.cache == "readwrite":
                if store.store_tree(tkey, tree):
                    cache_info["tree"] = "stored"
        ledger = Ledger()
        method = "direct" if decision is not None and decision["mode"] == "direct" else cfg.method
        if store is not None:
            if cfg.keep_node_distances:
                cache_info["status"] = "bypass"
                store = None
            else:
                key = augmentation_key(graph, tree, cfg.resolved_semiring, method)
                cache_info.update(key=key, dir=str(store.dir), status="miss")
                t0 = time.perf_counter()
                oracle = cls._from_cache(store, key, graph, tree, cfg, cache_info)
                if oracle is None and cfg.cache == "readwrite":
                    lock = store.try_lock(key)
                    if lock is None and store.wait_for_entry(key):
                        # A concurrent builder won the lock and finished:
                        # take its entry instead of rebuilding (no stampede).
                        oracle = cls._from_cache(store, key, graph, tree, cfg, cache_info)
                if oracle is not None:
                    if lock is not None:
                        lock.release()
                    cache_info["load_s"] = time.perf_counter() - t0
                    return oracle
        try:
            if cfg.validate:
                tree.validate(graph)
            if method == "direct":
                from .direct import direct_augmentation

                aug = direct_augmentation(graph, tree, cfg.resolved_semiring)
            else:
                if method == "doubling_shared":
                    from .doubling_shared import augment_doubling_shared as build_fn
                else:
                    build_fn = augment_leaves_up if method == "leaves_up" else augment_doubling
                aug = build_fn(
                    graph,
                    tree,
                    cfg.resolved_semiring,
                    ledger=ledger,
                    keep_node_distances=cfg.keep_node_distances,
                )
            oracle = cls(
                graph, tree, aug, aug.schedule(), preprocess_ledger=ledger, config=cfg
            )
            state = getattr(aug, "_reweight_state", None)
            if state is not None:
                # The schedule just compiled is the layout every reweight
                # of this lineage binds to.
                state.plan.ensure_schedule_cache(aug)
                oracle._reweight_plan = state.plan
            if store is not None and cfg.cache == "readwrite":
                t0 = time.perf_counter()
                wrote = store.store(key, aug, config=cfg, validated=cfg.validate)
                cache_info["status"] = "stored" if wrote else "miss"
                cache_info["store_s"] = time.perf_counter() - t0
            oracle.cache_info = cache_info
            return oracle
        finally:
            if lock is not None:
                lock.release()

    @classmethod
    def _from_cache(cls, store, key, graph, tree, cfg, cache_info) -> "ShortestPathOracle | None":
        """One load attempt against the store; ``None`` on a miss.

        ``key`` is a digest of ``graph`` and ``tree``, so a hit reuses the
        caller's objects and reads only the E⁺ arrays and the header.
        Validation already paid at store time (per the entry header) is
        *not* re-run — the ``validate`` fast path of a hit.
        """
        loaded = store.load(key, graph=graph, tree=tree)
        if loaded is None:
            return None
        aug, meta = loaded
        if cfg.validate and not meta.get("validated"):
            tree.validate(graph)
        oracle = cls(graph, tree, aug, aug.schedule(), preprocess_ledger=Ledger(), config=cfg)
        cache_info.update(
            status="hit",
            version=int(meta.get("version", 1)),
            validated=bool(meta.get("validated", False)),
        )
        oracle.cache_info = cache_info
        return oracle

    # -------------------------------------------------------------- #
    # Queries
    # -------------------------------------------------------------- #

    @property
    def semiring(self) -> Semiring:
        return self.augmentation.semiring

    @property
    def diameter_bound(self) -> int:
        """Theorem 3.1(ii) bound on diam(G⁺)."""
        return self.augmentation.diameter_bound

    def distances(self, sources, *, engine: str = "scheduled") -> np.ndarray:
        """Distance rows for each source (``(s, n)``, or ``(n,)`` for a bare
        int).  ``engine`` is ``"scheduled"`` (§3.2) or ``"naive"`` (A3)."""
        if engine == "scheduled":
            return sssp_scheduled(
                self.augmentation, sources, schedule=self.schedule, ledger=self.query_ledger
            )
        if engine == "naive":
            return sssp_naive(self.augmentation, sources, ledger=self.query_ledger)
        raise ValueError("engine must be 'scheduled' or 'naive'")

    def query_engine(self, config: OracleConfig | None = None):
        """A persistent :class:`~repro.core.query.QueryEngine` over this
        oracle's augmentation.

        ``config`` is passed straight through, so the two share one
        fallback, ``OracleConfig()`` with ``executor="serial"`` (``"shm"``
        is opt-in).  The engine reuses the oracle's cached G⁺ / relaxer /
        schedule and (on the ``"shm"`` backend) publishes the compiled
        phase arrays to shared memory once, so every subsequent batched
        query ships only row-range descriptors to a warm worker pool.
        Close it (or use it as a context manager) when done serving.
        """
        from .query import QueryEngine

        return QueryEngine(self.augmentation, config)

    def shard_fleet(
        self,
        k: int | None = None,
        *,
        config: OracleConfig | None = None,
    ):
        """A :class:`~repro.shard.ShardRouter` over this oracle's graph and
        separator tree — K in-process per-shard oracles routed through the
        boundary-clique spine instead of one engine over the whole graph.

        ``k`` overrides the ``shards`` field of ``config`` (defaulting to
        this oracle's build config, so cache mode, semiring and method
        carry over to the shard builds).  The router builds its own shard
        oracles from the graph; this oracle's augmentation is not reused —
        keep using :meth:`query_engine` for single-engine serving.  Close
        the router (or use it as a context manager) when done.
        """
        from ..shard import ShardRouter

        if self.augmentation.method == "direct":
            raise ValueError(
                "shard_fleet() cuts the separator tree into shard subtrees, "
                "but a direct-tier oracle has no separator decomposition "
                "(that is why it serves G directly); serve it with "
                "query_engine(), with executor='thread:N' or 'shm:N' to fan "
                "a batch's rows out across workers"
            )
        cfg = config if config is not None else self.config
        return ShardRouter(self.graph, self.tree, cfg, k=k)

    def distance(self, u: int, v: int) -> float:
        """Exact ``dist_G(u, v)`` (one scheduled pass from ``u``)."""
        return float(self.distances(int(u))[v])

    def distance_matrix(self, sources, targets) -> np.ndarray:
        """``(s, t)`` distances — one scheduled pass per source, columns
        selected (for many targets per source this beats pair queries)."""
        targets = np.asarray(targets, dtype=np.int64)
        return self.distances(sources)[:, targets]

    def nearest_source(self, sources) -> tuple[np.ndarray, np.ndarray]:
        """For every vertex, the closest of ``sources`` and its distance —
        the multi-depot assignment pattern (§1's s-source workload).
        Returns ``(assigned source id, distance)`` arrays of length n;
        unreachable vertices get source −1 and distance +inf."""
        srcs = np.asarray(list(sources), dtype=np.int64)
        dist = self.distances(srcs)
        best = np.argmin(dist, axis=0)
        d = dist[best, np.arange(self.graph.n)]
        assigned = srcs[best]
        assigned = np.where(np.isfinite(d), assigned, -1)
        return assigned, d

    def validate(self, **kwargs):
        """Run the consolidated invariant battery on this oracle's build
        (see :func:`repro.core.validation.validate_pipeline`)."""
        from .validation import validate_pipeline

        return validate_pipeline(self.augmentation, **kwargs)

    def shortest_path_tree(self, source: int) -> np.ndarray:
        """Parent array of a shortest-path tree in the *original* graph."""
        dist = self.distances(int(source))
        return shortest_path_tree(self.graph, int(source), dist)

    def shortest_path_forest(self, sources) -> np.ndarray:
        """Shortest-path trees from each source, shape ``(s, n)`` of parent
        ids — the paper's "shortest-path trees from s sources" deliverable
        (one O(m) tight-edge pass per source on top of the batched
        distance query)."""
        srcs = [int(s) for s in sources]
        dist = self.distances(srcs)
        return np.stack(
            [shortest_path_tree(self.graph, s, dist[i]) for i, s in enumerate(srcs)]
        )

    def with_new_weights(
        self,
        weight: np.ndarray | None = None,
        *,
        weight_delta=None,
        graph: WeightedDigraph | None = None,
        reweight: str | None = None,
        validate: bool | str | None = None,
    ) -> "ShortestPathOracle":
        """Refresh the oracle for new weights and/or edge directions while
        reusing the separator decomposition — paper comment (iv): "the
        separator decomposition ... depends only on the undirected
        unweighted skeleton of G, and hence needs to be computed only once
        for a group of instances which differ in the weights and direction
        on edges."

        Pass exactly one of:

        ``weight``
            Full weight vector in the original edge order (a reweighting).
        ``weight_delta``
            A *sparse* reweighting: either a ``{edge_id: new_weight}``
            mapping or an ``(edge_ids, new_weights)`` pair; untouched
            edges keep their current weight.  On the incremental path the
            sweep is further restricted to the root paths of the leaves
            containing the changed edges.
        ``graph``
            Any graph sharing the skeleton (e.g. ``self.graph.reverse()``).

        ``reweight`` (default: ``config.reweight``) picks the refresh
        strategy.  ``"auto"``/``"incremental"`` replay the captured build
        provenance leaves-up over the existing E⁺ *structure* — no
        separator recursion and no schedule rebuild (the §3.2 phase
        permutations are weight-independent and cloned) — which is an
        order of magnitude cheaper than a rebuild and bit-identical to
        one.  The replay path requires a ``leaves_up`` lineage and an
        unchanged skeleton (same ``src``/``dst`` arrays); ``"incremental"``
        raises when those do not hold, ``"auto"`` falls back to
        ``"rebuild"``.  Sparse deltas additionally need the lineage's
        retained heap state, which every Algorithm 4.1 build and every
        incremental reweight leaves on its augmentation; an oracle loaded
        from the cache or from a file has none and serves its first
        refresh densely.

        ``validate`` (default: ``config.validate``) on the incremental
        path checks shortcut *weights* only — :meth:`Augmentation.
        verify_edges` against ground-truth Bellman–Ford — because the
        structure (decomposition, E⁺ pairs, schedule) is inherited from a
        build that already vouched for it.  Pass ``validate="full"`` to
        additionally rerun the structural decomposition check.
        """
        given = [weight is not None, weight_delta is not None, graph is not None]
        if sum(given) != 1:
            raise ValueError("pass exactly one of weight=, weight_delta= or graph=")
        dirty_edges = None
        if weight_delta is not None:
            if isinstance(weight_delta, dict):
                idx = np.fromiter(weight_delta.keys(), dtype=np.int64, count=len(weight_delta))
                vals = np.fromiter(
                    (weight_delta[int(i)] for i in idx),
                    dtype=self.graph.weight.dtype,
                    count=idx.shape[0],
                )
            else:
                idx, vals = weight_delta
                idx = np.asarray(idx, dtype=np.int64)
                vals = np.asarray(vals, dtype=self.graph.weight.dtype)
            if idx.size and (idx.min() < 0 or idx.max() >= self.graph.m):
                raise ValueError("weight_delta edge ids out of range")
            w = self.graph.weight.copy()
            w[idx] = vals  # absolute assignment: applying a delta twice is a no-op
            dirty_edges = idx
            graph = WeightedDigraph(self.graph.n, self.graph.src, self.graph.dst, w)
        elif graph is None:
            graph = WeightedDigraph(self.graph.n, self.graph.src, self.graph.dst, weight)
        if graph.n != self.tree.n:
            raise ValueError("new graph must have the same vertex set")
        mode = self.config.reweight if reweight is None else reweight
        if mode not in ("auto", "incremental", "rebuild"):
            raise ValueError(f"reweight must be auto/incremental/rebuild, got {mode!r}")
        if validate is None:
            validate = self.config.validate
        method = self.augmentation.method
        if method not in ("leaves_up", "doubling", "doubling_shared", "direct"):
            method = "leaves_up"
        same_skeleton = (
            graph.m == self.graph.m
            and np.array_equal(graph.src, self.graph.src)
            and np.array_equal(graph.dst, self.graph.dst)
        )
        incremental_ok = method in ("leaves_up", "direct") and same_skeleton
        if mode == "incremental" and not incremental_ok:
            raise ValueError(
                "reweight='incremental' needs a leaves_up or direct lineage "
                "and an unchanged edge skeleton (same src/dst arrays); pass "
                "reweight='auto' to fall back to a rebuild"
            )
        if method == "direct":
            return self._reweight_direct(graph, mode != "rebuild" and incremental_ok)
        cfg = self.config.replace(
            method=method,
            semiring=self.semiring,
            keep_node_distances=bool(self.augmentation.node_distances),
        )
        if mode != "rebuild" and incremental_ok:
            return self._reweight_incremental(graph, dirty_edges, cfg, validate)
        # Rebuild with the *original* build config, which the new oracle
        # carries on (next reweight's defaults, shard_fleet(), save()),
        # updating only what the new instance dictates (method/semiring
        # follow the augmentation, keep_node_distances follows whether
        # matrices were retained).
        if validate == "full":
            cfg = cfg.replace(validate=True)
        oracle = ShortestPathOracle.build(graph, self.tree, config=cfg)
        # Reweighting bumps the lineage's weights epoch so any per-source
        # distance-row cache keyed against the old augmentation can tell the
        # two apart (see QueryEngine's row LRU).
        oracle.augmentation.weights_epoch = self.augmentation.weights_epoch + 1
        return oracle

    def _reweight_incremental(
        self, graph: WeightedDigraph, dirty_edges, cfg: OracleConfig, validate
    ) -> "ShortestPathOracle":
        """The provenance-replay path of :meth:`with_new_weights`."""
        from .reweight import ReweightPlan

        # A swept augmentation carries its plan; one without a retained
        # heap (e.g. loaded from the cache) captures it once per oracle.
        base_state = getattr(self.augmentation, "_reweight_state", None)
        plan = base_state.plan if base_state is not None else self._reweight_plan
        if plan is None:
            plan = ReweightPlan.capture(self.graph, self.tree)
        # Phase permutations are structure-only; record them once against
        # this lineage's E⁺ so every subsequent reweight clones instead of
        # rebuilding the schedule.
        plan.ensure_schedule_cache(self.augmentation)
        self._reweight_plan = plan
        if base_state is None:
            dirty_edges = None  # no retained heap: first refresh runs densely
        aug = plan.run(
            graph,
            self.semiring,
            base_state=base_state,
            dirty_edges=dirty_edges,
            keep_node_distances=cfg.keep_node_distances,
        )
        aug.weights_epoch = self.augmentation.weights_epoch + 1
        if validate:
            if validate == "full":
                self.tree.validate(graph)
            if self.semiring.name in ("min-plus", "hops"):
                # The baseline re-derivation (Bellman–Ford) may associate
                # float sums differently than the replayed kernels, so a
                # few ulps of deviation are healthy; the repo-wide 1e-9
                # threshold separates that from real corruption.
                dev = aug.verify_edges()
                if dev > 1e-9:
                    raise AssertionError(
                        f"reweighted shortcut weights deviate from ground "
                        f"truth by {dev!r}"
                    )
        oracle = ShortestPathOracle(
            graph,
            self.tree,
            aug,
            aug.schedule(),
            preprocess_ledger=Ledger(),
            config=cfg,
        )
        oracle.cache_info = {"mode": cfg.cache, "status": "reweight"}
        oracle._reweight_plan = plan
        return oracle

    def _reweight_direct(self, graph: WeightedDigraph, rebind: bool) -> "ShortestPathOracle":
        """A direct-tier lineage has nothing to replay: ``rebind`` binds the
        new weights to the prior G relaxer's layout (same skeleton), else
        the layout is laid out afresh.  Either way the epoch moves on."""
        from .direct import direct_augmentation

        aug = direct_augmentation(
            graph, self.tree, self.semiring,
            prior=self.augmentation if rebind else None,
        )
        aug.weights_epoch = self.augmentation.weights_epoch + 1
        oracle = ShortestPathOracle(
            graph, self.tree, aug, aug.schedule(),
            preprocess_ledger=Ledger(), config=self.config,
        )
        oracle.cache_info = {
            "mode": self.config.cache, "status": "reweight" if rebind else "rebuild"
        }
        return oracle

    def path(self, u: int, v: int) -> list[int] | None:
        """An explicit minimum-weight ``u→v`` path (original edges only)."""
        parent = self.shortest_path_tree(u)
        return reconstruct_path(parent, int(u), int(v))

    def measured_diameter(self) -> int:
        """Empirical diam(G⁺); validation-scale only."""
        return measured_diameter(self.augmentation)

    def stats(self) -> dict:
        """Key pipeline numbers: sizes, bounds, ledger work/depth."""
        s = self.augmentation.stats()
        s.setdefault("mode", "exact")
        s.update(
            preprocess_work=self.preprocess_ledger.work,
            preprocess_depth=self.preprocess_ledger.depth,
            schedule_phases=self.schedule.num_phases,
            schedule_edge_scans=self.schedule.edge_scans,
        )
        return s

    def save(self, path) -> None:
        """Persist graph + tree + E⁺ to one ``.npz`` (see :mod:`repro.io`);
        reload with :meth:`load` — the schedule is recompiled on load.  The
        build config travels in the archive header, so a loaded oracle
        keeps this build's ``executor`` / serving knobs."""
        from ..io import save_augmentation

        save_augmentation(
            path, self.augmentation, config=self.config, validated=self.config.validate
        )

    @classmethod
    def load(cls, path) -> "ShortestPathOracle":
        """Rebuild an oracle persisted with :meth:`save`.

        Per-node distance matrices are not persisted; use
        ``with_new_weights(weight=graph.weight)`` style rebuilds when the
        k-pair oracle is needed afterwards.  Format-2 archives restore the
        saved :class:`OracleConfig`; legacy archives fall back to defaults.
        """
        from ..io import load_augmentation

        aug, meta = load_augmentation(path, with_meta=True)
        saved = meta.get("config")
        if saved:
            known = {f.name for f in dataclasses.fields(OracleConfig)}
            cfg = OracleConfig.from_dict({k: v for k, v in saved.items() if k in known})
        else:
            cfg = OracleConfig()
        changes: dict = dict(
            semiring=aug.semiring,
            keep_node_distances=bool(aug.node_distances),
        )
        if aug.method == "direct":
            # A direct-tier artifact: cfg.method stays whatever the build
            # used (it names the E⁺ algorithm, which did not run).
            changes["mode"] = "direct"
        elif aug.method in ("leaves_up", "doubling", "doubling_shared"):
            changes["method"] = aug.method
        else:
            changes["method"] = "leaves_up"
        cfg = cfg.replace(**changes)
        return cls(
            aug.graph, aug.tree, aug, aug.schedule(),
            preprocess_ledger=Ledger(), config=cfg,
        )

    def close(self) -> None:
        """Idempotent no-op, kept for callers that close an oracle: the
        oracle owns no pools or shared memory (a :class:`~repro.core.query.
        QueryEngine` owns its own and is closed on its own)."""

    def check_no_negative_cycle(self) -> bool:
        """Independent Bellman–Ford certificate (the build already raises on
        a negative cycle; this is the cross-check)."""
        return not has_negative_cycle(self.graph)
