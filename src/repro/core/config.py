"""One configuration object for the whole pipeline: :class:`OracleConfig`.

Every knob of the build and serve surface lives on one frozen dataclass that
travels intact through ``ShortestPathOracle.build(graph, tree, config=...)`` →
``oracle.query_engine(config)`` → the socket server → the CLI.  ``config=`` is
the only way in: there are no per-knob keyword arguments beside it.

``executor`` names the pool a :class:`~repro.core.query.QueryEngine`
fans a batch's rows out on (``"serial" | "thread[:N]" | "shm[:N]"``, or an
executor instance) per :func:`repro.pram.executor.get_executor`; builds
ignore it.  See ``docs/KNOBS.md`` for the one-page reference.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

from .semiring import MIN_PLUS, SEMIRINGS, Semiring

__all__ = ["OracleConfig"]

_MODES = ("exact", "direct", "auto")


def _mode_error(name: object) -> ValueError:
    """A helpful error for an unknown distance mode: names every valid mode
    (same pattern as the separator registry's ``_engine_error``)."""
    have = ", ".join(_MODES)
    retired = (
        "mode='approx' (the (1+eps) hopset) was removed; use 'direct', which "
        "answers exactly. " if name == "approx" else ""
    )
    return ValueError(
        f"{retired}unknown mode {name!r}; valid modes: {have} ('exact' builds "
        f"E⁺ over a separator tree, 'direct' relaxes G itself with no "
        f"preprocessing, 'auto' picks one by separator quality; select via "
        f"OracleConfig(mode=...) or --mode)"
    )


#: Retired fields, and where their job went.
_RETIRED = {
    "hopset_beta": "the hopset it sized is gone, and mode='direct' has no knobs",
    "approx_gate": "mode='auto' gates on the constant repro.core.api.DIRECT_GATE",
    **dict.fromkeys(
        ("replicas", "max_replicas", "autoscale_target_p99_ms"),
        "the shard replica tier measured 0.92-1.06x of one worker per shard "
        "on a 2-CPU host; use shards=K",
    ),
    "engine": "queries run the exact §3.2 schedule only; sssp_naive stays the "
    "A3 reference",
    "source_block": "rows are blocked by the constant repro.core.sssp.SOURCE_BLOCK",
    "admission_queue_limit": "the server's admission cap is ServerConfig.queue_limit "
    "(serve --queue-limit), which this field only overrode",
    **dict.fromkeys(
        ("shard_backend", "shard_pin"),
        "the one-process-per-shard fleet won no E-shard cell against the "
        "engine's own executor='shm:N' or 'thread:N', which fan a batch out; "
        "shards=K serves the in-process route",
    ),
    "method": "the exact tier always builds E⁺ with Algorithm 4.1 (leaves-up), "
    "which beat Algorithm 4.3 and Remark 4.4 on every A2-wallclock graph "
    "(grid 40²: 0.04 s against 1.3 s and 0.5 s); augment_doubling and "
    "augment_doubling_shared stay as library functions",
    "reweight": "with_new_weights replays the build provenance whenever the "
    "skeleton is unchanged, bit-identical to a rebuild, and rebuilds only "
    "when it changed",
}

_CACHE_MODES = ("off", "read", "readwrite")


@dataclass(frozen=True)
class OracleConfig:
    """Frozen bundle of every pipeline knob (build + serve).

    Attributes
    ----------
    mode:
        Distance tier: ``"exact"`` builds E⁺ over a separator tree with
        Algorithm 4.1;
        ``"direct"`` skips all preprocessing and relaxes G itself with
        frontier Bellman–Ford (:mod:`repro.core.direct`) — the fit for
        dense digraphs, expanders and other graphs with no small
        separator; ``"auto"`` scores the best first-pass separator tree
        (:func:`repro.separators.quality.separability_score`) and takes the
        direct tier below :data:`repro.core.api.DIRECT_GATE`.  The first
        pass stops each engine once its clique terms reach n², where the
        score is already exactly 0, so the gate costs little even on
        expanders.  Every mode answers exactly.
    eps:
        Distance tolerance: a served ``d_hat`` must satisfy
        ``d <= d_hat <= (1+eps)*d``.  Every mode meets it exactly
        (``d_hat = d``); it stays a field so configs that set it stay valid.
    separator:
        Decomposition engine when no tree is supplied: ``"auto"`` /
        ``"spectral"``, ``"planar"``, ``"treewidth"``, ``"multilevel"``,
        ``"flow"`` (max-flow refinement of the best first-pass engine), or
        a callable separator oracle.
    semiring:
        A :class:`~repro.core.semiring.Semiring` or its registry name
        (``"min_plus"``, ``"boolean"``, …); names keep the config
        JSON-serializable for the server and CLI.
    leaf_size:
        Decomposition recursion stops below this node size.
    executor:
        Pool that fans a query batch's rows out, a spec per
        :func:`repro.pram.executor.get_executor`; builds ignore it.
    keep_node_distances:
        Retain per-node distance matrices after the build (needed by the
        k-pair witness oracle; costs memory).
    validate:
        Run the decomposition validity check before augmenting.
    cache:
        Augmentation-cache mode for :meth:`ShortestPathOracle.build`:
        ``"off"`` (never touch the store), ``"read"`` (load a hit, never
        write), ``"readwrite"`` (load a hit, persist a miss).  See
        :mod:`repro.cache`.
    cache_dir:
        Store directory override (``None`` → ``REPRO_CACHE_DIR`` or
        ``~/.cache/repro/aug``).
    row_cache:
        Capacity (in source rows) of the per-source distance-row LRU of
        :class:`~repro.core.query.QueryEngine`; ``0`` disables it.
        A repeated source is answered from the cache without relaxation —
        bit-identical because relaxation is deterministic.
    shards:
        Shard count for the three-leg shard route (:mod:`repro.shard`):
        ``0`` serves with a single engine, ``k >= 1`` cuts the separator
        tree into ``k`` in-process shard oracles routed through the
        boundary-clique spine.
    refine_separators:
        Post-pass flow refinement of the separator tree: after the tree is
        resolved (built *or* supplied), re-solve every node's cut as a
        minimum vertex cut (:mod:`repro.separators.flow`), falling back
        per-node/per-tree whenever balance or validity would suffer.
        Smaller |S(t)| compounds through |E⁺|, the shard spine, and every
        query; costs extra build time. No-op when ``separator="flow"``
        already refined the tree.
    refine_max_nodes:
        Guardrail for the refiner: tree nodes whose subgraph exceeds this
        many vertices keep their unrefined cut, bounding the extra
        preprocessing the flow solver may spend.
    """

    mode: str = "exact"
    eps: float = 0.1
    separator: str | Callable | None = "auto"
    semiring: str | Semiring = MIN_PLUS
    leaf_size: int = 8
    executor: Any = "serial"
    keep_node_distances: bool = False
    validate: bool = False
    cache: str = "off"
    cache_dir: str | None = None
    row_cache: int = 0
    shards: int = 0
    refine_separators: bool = False
    refine_max_nodes: int = 20_000

    def __new__(cls, *args, **kwargs):
        gone = sorted(_RETIRED.keys() & kwargs.keys())
        if gone:
            raise TypeError("; ".join(
                f"OracleConfig.{k} was removed: {_RETIRED[k]}" for k in gone
            ))
        return super().__new__(cls)

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise _mode_error(self.mode)
        if float(self.eps) < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps!r}")
        if isinstance(self.semiring, str) and self.semiring not in SEMIRINGS:
            raise ValueError(
                f"unknown semiring {self.semiring!r}; known: {sorted(SEMIRINGS)}"
            )
        if self.cache not in _CACHE_MODES:
            raise ValueError(f"cache must be one of {_CACHE_MODES}, got {self.cache!r}")
        if int(self.row_cache) < 0:
            raise ValueError(f"row_cache must be >= 0, got {self.row_cache!r}")
        if int(self.shards) < 0:
            raise ValueError(f"shards must be >= 0, got {self.shards!r}")
        if int(self.refine_max_nodes) < 1:
            raise ValueError(
                f"refine_max_nodes must be >= 1, got {self.refine_max_nodes!r}"
            )

    # -------------------------------------------------------------- #

    @property
    def resolved_semiring(self) -> Semiring:
        """The :class:`Semiring` instance (resolving a registry name)."""
        if isinstance(self.semiring, str):
            return SEMIRINGS[self.semiring]
        return self.semiring

    @classmethod
    def field_docs(cls) -> dict[str, str]:
        """Per-field documentation parsed from this class's numpy-style
        ``Attributes`` docstring section — the single source the CLI's
        ``--help`` text is generated from (so flag help can never drift
        from the dataclass docs)."""
        lines = (cls.__doc__ or "").splitlines()
        try:
            start = (
                next(i for i, ln in enumerate(lines) if ln.strip() == "Attributes")
                + 2
            )
        except StopIteration:  # pragma: no cover - docstring always present
            return {}
        names = {f.name for f in dataclasses.fields(cls)}
        docs: dict[str, list[str]] = {}
        current: str | None = None
        for line in lines[start:]:
            stripped = line.strip()
            if stripped.endswith(":") and stripped[:-1] in names:
                current = stripped[:-1]
                docs[current] = []
            elif current is not None and stripped:
                docs[current].append(stripped)
        return {k: " ".join(v) for k, v in docs.items()}

    @classmethod
    def field_doc(cls, name: str) -> str:
        """First sentence of :meth:`field_docs` for ``name``, stripped of
        rst markup — sized for an ``argparse`` help string."""
        text = cls.field_docs().get(name, "")
        for role in (":class:", ":meth:", ":mod:", ":func:", ":data:"):
            text = text.replace(role, "")
        text = text.replace("``", "").replace("`~", "").replace("`", "")
        head, _, _ = text.partition(". ")
        return head.rstrip(".") if head else name

    def replace(self, **changes) -> "OracleConfig":
        """A copy with the given fields changed (frozen-friendly)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able dict (semiring by name; non-string separators and
        executor instances are rejected — they cannot cross a socket)."""
        d = dataclasses.asdict(self)
        d["semiring"] = self.resolved_semiring.name
        if callable(self.separator):
            raise TypeError("callable separator is not serializable; pass a name")
        if not (self.executor is None or isinstance(self.executor, str)):
            raise TypeError("executor instance is not serializable; pass a spec string")
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "OracleConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected loudly
        (retired ones with the reason)."""
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(d) - known - _RETIRED.keys()
        if extra:
            raise ValueError(f"unknown OracleConfig keys: {sorted(extra)}")
        return cls(**d)
