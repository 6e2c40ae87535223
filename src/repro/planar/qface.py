"""The q-face pipeline (paper §6): hammocks → G′ → separator oracle.

For a planar digraph whose vertices lie on ``q`` faces, with a hammock
decomposition:

1. per hammock ``H``: exact distances between its ≤4 attachment vertices
   *within* ``H`` (outerplanar ⇒ the μ = 0 machinery), plus the
   attachment→all / all→attachment vectors used to answer endpoint queries;
2. ``G′``: the digraph on all attachment vertices with one complete
   weighted digraph per hammock — distances in ``G′`` between attachments
   equal distances in ``G`` (any path decomposes into hammock traversals);
3. a separator decomposition + augmentation of ``G′`` (the paper routes
   through a planarized ``G″`` into Gazit–Miller; we hand ``G′`` to the
   spectral engine — DESIGN.md §5);
4. queries: ``dist(u, v) = min(within-hammock term, attachment-route
   term)``, the attachment route being ``u →(H_u) a₁ →(G′) a₂ →(H_v) v``.

The paper's shape to reproduce: preprocessing ~ Õ(n + q^{1.5}), per-source
work ~ Õ(n + q) — i.e. the hammock count ``q``, not ``n``, pays the
separator costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.api import ShortestPathOracle
from ..core.digraph import WeightedDigraph
from ..core.semiring import MIN_PLUS
from ..kernels.floyd_warshall import floyd_warshall
from ..pram.machine import Ledger
from ..separators.spectral import decompose_spectral
from .hammock import HammockDecomposition

__all__ = ["QFaceOracle"]


@dataclass
class _HammockTables:
    vertices: np.ndarray  # global ids, sorted
    attachments: np.ndarray  # global ids, sorted (subset of vertices)
    att_to_all: np.ndarray  # (a, k): dist within hammock, attachment → vertex
    all_to_att: np.ndarray  # (k, a): vertex → attachment
    apsp: np.ndarray  # (k, k) within-hammock all-pairs


class QFaceOracle:
    """Distance oracle for q-face planar digraphs via hammocks + G′."""

    def __init__(
        self,
        graph: WeightedDigraph,
        decomposition: HammockDecomposition,
        tables: list[_HammockTables],
        attachments: np.ndarray,
        gprime: WeightedDigraph,
        gprime_oracle: ShortestPathOracle,
        ledger: Ledger,
    ) -> None:
        self.graph = graph
        self.decomposition = decomposition
        self._tables = tables
        self.attachments = attachments  # global ids, sorted
        self.gprime = gprime
        self.gprime_oracle = gprime_oracle
        self.ledger = ledger
        self._att_index = {int(a): i for i, a in enumerate(attachments.tolist())}
        self._hammocks_of: dict[int, list[int]] = {}
        for hi, t in enumerate(tables):
            for v in t.vertices.tolist():
                self._hammocks_of.setdefault(v, []).append(hi)
        #: distances in G′ between all attachment pairs (q is small).
        self._dprime = gprime_oracle.distances(np.arange(gprime.n))

    # -------------------------------------------------------------- #

    @classmethod
    def build(
        cls,
        graph: WeightedDigraph,
        decomposition: HammockDecomposition,
        *,
        leaf_size: int = 8,
    ) -> "QFaceOracle":
        ledger = Ledger()
        attachments = decomposition.attachment_vertices()
        att_pos = {int(a): i for i, a in enumerate(attachments.tolist())}
        tables: list[_HammockTables] = []
        src_p, dst_p, w_p = [], [], []
        with ledger.parallel("hammock-tables") as region:
            for h in decomposition.hammocks:
                branch = region.branch()
                sub, mapping = graph.induced_subgraph(h.vertices)
                local_att = np.searchsorted(mapping, h.attachments)
                # Within-hammock APSP: hammocks are outerplanar hence small
                # treewidth; dense FW is exact and (for bench accounting)
                # charged as the μ=0 alternative would be.
                apsp = floyd_warshall(sub.dense_weights(), MIN_PLUS, ledger=branch)
                att_to_all = apsp[local_att, :]
                all_to_att = apsp[:, local_att]
                tables.append(
                    _HammockTables(
                        vertices=mapping,
                        attachments=h.attachments,
                        att_to_all=att_to_all,
                        all_to_att=all_to_att,
                        apsp=apsp,
                    )
                )
                # G′ edges: complete digraph on this hammock's attachments.
                a = h.attachments.shape[0]
                for x in range(a):
                    for y in range(a):
                        if x == y or not np.isfinite(att_to_all[x, local_att[y]]):
                            continue
                        src_p.append(att_pos[int(h.attachments[x])])
                        dst_p.append(att_pos[int(h.attachments[y])])
                        w_p.append(float(att_to_all[x, local_att[y]]))
        gprime = WeightedDigraph(
            attachments.shape[0],
            np.array(src_p, dtype=np.int64),
            np.array(dst_p, dtype=np.int64),
            np.array(w_p),
        )
        tree = decompose_spectral(gprime, leaf_size=leaf_size)
        oracle = ShortestPathOracle.build(gprime, tree)
        ledger.merge_parallel([oracle.preprocess_ledger], label="gprime-augmentation")
        return cls(graph, decomposition, tables, attachments, gprime, oracle, ledger)

    # -------------------------------------------------------------- #

    def _endpoint_tables(self, v: int) -> list[tuple[_HammockTables, int]]:
        """(tables, local index) for every hammock containing ``v``."""
        out = []
        for hi in self._hammocks_of.get(int(v), []):
            t = self._tables[hi]
            out.append((t, int(np.searchsorted(t.vertices, v))))
        return out

    def distance(self, u: int, v: int) -> float:
        """Exact ``dist_G(u, v)``."""
        best = np.inf
        u_tabs = self._endpoint_tables(u)
        v_tabs = self._endpoint_tables(v)
        # Same-hammock direct term.
        for tu, iu in u_tabs:
            for tv, iv in v_tabs:
                if tu is tv:
                    best = min(best, float(tu.apsp[iu, iv]))
        # Attachment route.
        for tu, iu in u_tabs:
            a1 = np.array([self._att_index[int(a)] for a in tu.attachments.tolist()])
            head = tu.all_to_att[iu, :]  # u → att(H_u) within H_u
            for tv, iv in v_tabs:
                a2 = np.array([self._att_index[int(a)] for a in tv.attachments.tolist()])
                mid = self._dprime[np.ix_(a1, a2)]
                tail = tv.att_to_all[:, iv]
                cand = (head[:, None] + mid + tail[None, :]).min(initial=np.inf)
                best = min(best, float(cand))
        return best

    def distances_from(self, source: int) -> np.ndarray:
        """Full distance vector from one source (the §6 s-source shape:
        O(n + q log q)-ish work after preprocessing)."""
        n = self.graph.n
        out = np.full(n, np.inf)
        out[source] = 0.0
        # Distances from the source to every attachment (via G′).
        d_att = np.full(self.attachments.shape[0], np.inf)
        for tu, iu in self._endpoint_tables(source):
            a1 = np.array([self._att_index[int(a)] for a in tu.attachments.tolist()])
            head = tu.all_to_att[iu, :]
            cand = head[:, None] + self._dprime[a1, :]
            np.minimum(d_att, cand.min(axis=0), out=d_att)
            # Same-hammock direct rows.
            np.minimum.at(out, tu.vertices, tu.apsp[iu, :])
        # Push attachment distances into every hammock.
        for t in self._tables:
            a2 = np.array([self._att_index[int(a)] for a in t.attachments.tolist()])
            rows = d_att[a2][:, None] + t.att_to_all
            np.minimum.at(out, t.vertices, rows.min(axis=0))
        return out

    def shortest_path_tree(self, source: int) -> np.ndarray:
        """Parent array of a shortest-path tree from ``source`` in the
        original graph (§6: "shortest-paths trees from s sources") — one
        O(m) tight-edge pass over the exact distance vector."""
        from ..core.paths import shortest_path_tree

        return shortest_path_tree(self.graph, int(source), self.distances_from(int(source)))

    def apsp_encoding(self) -> dict:
        """Frederickson's "alternate encoding of all-pairs shortest-paths":
        per-hammock APSP tables plus APSP on G′ — O(n + q²) numbers instead
        of n².  Returned as the structures this oracle already maintains."""
        return {
            "hammock_apsp": [(t.vertices, t.apsp) for t in self._tables],
            "attachments": self.attachments,
            "gprime_apsp": self._dprime,
        }

    def stats(self) -> dict:
        """Pipeline sizes: q, attachments, G′, preprocessing work."""
        return {
            "n": self.graph.n,
            "q": self.decomposition.q,
            "attachments": int(self.attachments.shape[0]),
            "gprime_edges": self.gprime.m,
            "preprocess_work": self.ledger.work,
            "gprime_eplus": self.gprime_oracle.augmentation.size,
        }
