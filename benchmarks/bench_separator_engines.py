"""E-engines — every registered separator engine, judged by what queries pay.

The paper takes the decomposition as *input* (comment iv), so an engine is
worth keeping only for the tree it hands to E⁺ and to the §3.2 schedule.
Each engine runs on every family below, including its home family
(``treewidth``: a random tree; the planar engines: Delaunay and the grid;
``spectral``/``multilevel``/``flow``: the μ-programmed family), next to the
family's reference tree where one exists (the grid's box tree, the μ
family's programmed tree).  Per (family, tree) the columns are:

* ``separator s`` — the decomposition's wall, quartiles of
  ``SEP_ROUNDS`` rotating rounds over the family's trees;
* ``|E⁺|``, ``phases`` and ``scans/row`` — the augmentation's size and the
  compiled schedule's phase count and edge scans per source row;
* ``1 row`` / ``64 rows`` — a warmed serial :class:`QueryEngine` batch,
  quartiles of ``QUERY_ROUNDS`` rotating rounds over the family's trees.

A tree *wins a cell* when its count is strictly the family's lowest, or
when its median wall is the lowest and its upper quartile lies below every
other tree's lower quartile.  The bench asserts that every engine in
:func:`repro.separators.available_engines` wins at least one cell, so an
engine that no row justifies fails here.  ``BENCH_engines.json`` keeps the
``engines`` record of this run and, under ``retired``, the run that
measured the deleted engines before they went; the markdown shows both."""

from __future__ import annotations

import json

import numpy as np

from repro.analysis.tables import render_table
from repro.core.api import ShortestPathOracle
from repro.core.config import OracleConfig
from repro.core.septree import DecompositionError
from repro.separators import available_engines, decompose
from repro.separators.grid import decompose_grid
from repro.workloads.generators import (
    delaunay_digraph,
    grid_digraph,
    overlap_digraph,
    random_tree_digraph,
)
from repro.workloads.synthetic import separator_programmable_family

SEP_ROUNDS = 3
QUERY_ROUNDS = 7
#: back-to-back calls per 1-row sample, so one sample spans ~10 ms
ROW1_CALLS = 10
BATCH = 64
MU_N = 600
SERIAL = OracleConfig(executor="serial")

#: (label, value key, timed?) — the cells a tree can win.
COLUMNS = (
    ("separator s", "separator_s", True),
    ("|E⁺|", "eplus", False),
    ("phases", "phases", False),
    ("scans/row", "scans_per_row", False),
    ("1 row ms", "row1_ms", True),
    ("64 rows ms", "rows64_ms", True),
)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _grid():
    g = grid_digraph((40, 40), _rng(0))
    return g, {"grid": lambda: decompose_grid(g, (40, 40))}, {}


def _mu(mu: float, seed: int):
    g, tree = separator_programmable_family(MU_N, mu, _rng(seed))
    return g, {}, {"programmed": tree}


#: family label → ``() -> (graph, timed reference builders, given trees)``.
FAMILIES = {
    "Delaunay n=2000": lambda: (delaunay_digraph(2000, _rng(0))[0], {}, {}),
    "grid 40²": _grid,
    **{
        f"μ={mu:.2f} n={MU_N} seed {seed}": (lambda mu=mu, seed=seed: _mu(mu, seed))
        for mu in (0.33, 0.5, 0.67) for seed in (0, 1)
    },
    "overlap n=2000": lambda: (overlap_digraph(2000, _rng(0))[0], {}, {}),
    "random tree n=2000": lambda: (random_tree_digraph(2000, _rng(0)), {}, {}),
}


def _attempt(build):
    """``build`` as a side that returns its failure instead of raising, so
    an engine that cannot decompose a family still takes its turns."""

    def side():
        try:
            return build()
        except DecompositionError as exc:
            return exc

    return side


def measure_family(timed, label: str) -> dict:
    """Every column for every tree of one family."""
    g, references, given = FAMILIES[label]()
    g.skeleton  # built once, before any engine's turn
    builders = {e: (lambda e=e: decompose(g, e)) for e in available_engines()}
    builders.update(references)
    seps = timed({name: _attempt(b) for name, b in builders.items()}, SEP_ROUNDS, warmup=0)
    trees, rows = dict(given), {}
    for name in builders:
        out = seps.outputs[name]
        if isinstance(out, Exception):
            rows[name] = {"failed": f"{type(out).__name__}: {out}"}
        else:
            trees[name] = out
            rows[name] = {"separator_s": seps.quartiles(name)}
    engines, want = {}, None
    sources = _rng(1).choice(g.n, size=BATCH, replace=False)
    for name, tree in trees.items():
        oracle = ShortestPathOracle.build(g, tree)
        rows.setdefault(name, {}).update(
            eplus=int(oracle.augmentation.size),
            phases=int(oracle.schedule.num_phases),
            scans_per_row=int(oracle.schedule.edge_scans),
        )
        engines[name] = oracle.query_engine(SERIAL)
        got = engines[name].query(sources)
        if want is None:
            want = got
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9), (label, name)
    try:
        one = timed({name: (lambda e=e: e.query(sources[:1])) for name, e in engines.items()},
                    QUERY_ROUNDS, calls=ROW1_CALLS)
        batch = timed({name: (lambda e=e: e.query(sources)) for name, e in engines.items()},
                      QUERY_ROUNDS)
    finally:
        for e in engines.values():
            e.close()
    for name in engines:
        rows[name].update(row1_ms=one.quartiles(name, 1e3), rows64_ms=batch.quartiles(name, 1e3))
    return {"family": label, "n": g.n, "m": g.m, "trees": rows}


def cell_winner(rows: dict, key: str, timed_column: bool) -> str | None:
    """The tree that wins column ``key`` of one family, or ``None``."""
    vals = {name: r[key] for name, r in rows.items() if r.get(key) is not None}
    if len(vals) < 2:
        return None
    if timed_column:
        best = min(vals, key=lambda name: vals[name][1])
        beaten = all(vals[best][2] < q[0] for name, q in vals.items() if name != best)
        return best if beaten else None
    low = min(vals.values())
    best = [name for name, v in vals.items() if v == low]
    return best[0] if len(best) == 1 else None


def wins_of(families: list[dict]) -> dict[str, list[str]]:
    """Tree name → the ``"family: column"`` cells it wins."""
    wins: dict[str, list[str]] = {}
    for fam in families:
        for column, key, timed_column in COLUMNS:
            best = cell_winner(fam["trees"], key, timed_column)
            if best is not None:
                wins.setdefault(best, []).append(f"{fam['family']}: {column}")
    return wins


def _cell(row: dict, key: str, won: bool, digits: int) -> str:
    v = row.get(key)
    if v is None:
        return "—"
    text = (f"{v[1]:.{digits}f} [{v[0]:.{digits}f}–{v[2]:.{digits}f}]"
            if isinstance(v, list) else f"{v:,}")
    return f"**{text}**" if won else text


def render(families: list[dict], *, title: str, deleted: set | None = None) -> str:
    """The per-(family, tree) table; won cells in bold, failed builds say
    why.  With ``deleted``, a family shows only those trees and its cell
    winners."""
    lines = []
    for fam in families:
        winners = {key: cell_winner(fam["trees"], key, t) for _, key, t in COLUMNS}
        for name, row in fam["trees"].items():
            if deleted is not None and name not in deleted | set(winners.values()):
                continue
            if "failed" in row:
                lines.append([fam["family"], name, f"failed: {row['failed']}"] + [""] * 5)
                continue
            lines.append([fam["family"], name] + [
                _cell(row, key, winners[key] == name, 3 if key == "separator_s" else 2)
                for _, key, _ in COLUMNS
            ])
    return render_table(["family", "tree"] + [c for c, _, _ in COLUMNS], lines, title=title)


def render_wins(wins: dict[str, list[str]], names) -> str:
    return "\n".join(
        f"- `{name}`: " + ("; ".join(wins[name]) if wins.get(name) else "no cell")
        for name in names
    )


def test_engine_comparison(timed, report, record_json, results_dir, provenance):
    families = [measure_family(timed, label) for label in FAMILIES]
    wins = wins_of(families)
    record = {
        "revision": provenance["revision"],
        "engines": list(available_engines()),
        "rounds": {"separator": SEP_ROUNDS, "query": QUERY_ROUNDS, "row1_calls": ROW1_CALLS},
        "families": families,
        "wins": wins,
    }
    record_json("BENCH_engines.json", "engines", record)
    retired = json.loads((results_dir / "BENCH_engines.json").read_text()).get("retired")
    trees = sorted({name for fam in families for name in fam["trees"]})
    text = [
        render(families, title="E-engines: separator trees judged by what queries pay "
               "(bold = the cell's winner; walls are median [q1–q3])"),
        "",
        "Cells won (a count strictly lowest; a wall's median lowest with its q3 "
        "below every other tree's q1):",
        "",
        render_wins(wins, trees),
        "",
        provenance["line"],
    ]
    if retired is not None:
        text += [
            "",
            render(retired["families"], deleted=set(retired["deleted"]),
                   title=f"E-engines, retirement run at revision {retired['revision']}: "
                         "the deleted engines' rows beside each family's cell winners"),
            "",
            "Cells won in that run:",
            "",
            render_wins(retired["wins"], sorted({n for f in retired["families"]
                                                 for n in f["trees"]})),
        ]
    report("E-engines", "\n".join(text))
    unjustified = [e for e in available_engines() if not wins.get(e)]
    assert not unjustified, f"registered engines that win no cell: {unjustified}"
