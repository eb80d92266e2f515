"""Top-level matching algorithm: MWU phases with a deficiency cutoff,
deterministic rounding of congested path collections, and an exact finishing
phase of single augmenting paths.

The binary search over the optimum is replaced by running to exhaustion: the
exact final phase terminates at the true maximum regardless of how productive
the MWU phases were, so the result is always optimal.  A ``target`` mode
implements the guessed-optimum contract for benchmark parity.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .constants import Constants
from .graph_core import (BipartiteGraph, Matching, S_ID, T_ID, WellStructuredGraph,
                         augment, bfs_tree, residual_graph, tree_path)
from .mwu import mwu_run


@dataclass
class DriverConfig:
    constants: Constants = field(default_factory=Constants.desk)
    backend: str = "reference"          # "reference" | "full"
    delta_star: int | None = None       # override of n^(5/3)/m^(2/3)
    target: int | None = None           # stop once the matching reaches this size
    checked: bool = False


@dataclass
class PhaseRecord:
    delta: int
    collected: int
    rounded: int
    fallback: bool
    millis: float


@dataclass
class RunReport:
    phases: list[PhaseRecord] = field(default_factory=list)
    exact_augmentations: int = 0
    fallback_phases: int = 0
    matching_size: int = 0
    max_congestion: int = 0
    cuts_emitted: int = 0
    backend_stats: dict = field(default_factory=dict)

    def phase_count(self) -> int:
        return len(self.phases)


def _delta_star(n: int, m: int) -> int:
    if m == 0:
        return 1
    return max(1, round(n ** (5 / 3) / m ** (2 / 3)))


def find_augmenting_path(h: WellStructuredGraph) -> list[int] | None:
    """BFS for any s-t path in the residual graph; returns the vertex sequence."""
    parent = bfs_tree(S_ID, h.g, target=T_ID)
    return tree_path(parent, T_ID)[0] if T_ID in parent else None


class _FlowArcs:
    """adj[u] of the residual network of a unit flow over some edges of g:
    flow-free edges forward in id order, then flow edges backward in id order."""

    def __init__(self, g, flow: list[int]):
        self.g = g
        self.flow = flow

    def __getitem__(self, u: int) -> list[tuple[int, int]]:
        g, flow = self.g, self.flow
        return ([(e, g.head[e]) for e in g.out_adj[u] if flow[e] == 0]
                + [(e, g.tail[e]) for e in g.in_adj[u] if flow[e] == 1])


def disjoint_paths(h: WellStructuredGraph, eids) -> list[list[int]]:
    """A maximum set of edge-disjoint s-t paths over the edges eids of h.

    Edmonds-Karp over unit capacities, then a decomposition of the flow that
    follows each vertex's flow edges in id order.  In a residual graph every
    L vertex has one in-edge and every R vertex one out-edge, so the paths
    are internally vertex-disjoint as well.
    """
    g = h.g
    flow = [-1] * len(g.tail)  # -1: not offered
    for eid in eids:
        flow[eid] = 0
    arcs = _FlowArcs(g, flow)
    while True:
        parent = bfs_tree(S_ID, arcs, target=T_ID)
        if T_ID not in parent:
            break
        for eid in tree_path(parent, T_ID)[1]:
            flow[eid] ^= 1

    remaining: dict[int, list[int]] = {}
    for eid, f in enumerate(flow):
        if f == 1:
            remaining.setdefault(g.tail[eid], []).append(eid)
    paths: list[list[int]] = []
    while remaining.get(S_ID):
        verts = [S_ID]
        while verts[-1] != T_ID:
            eid = remaining[verts[-1]].pop(0)
            if not remaining[verts[-1]]:
                del remaining[verts[-1]]
            verts.append(g.head[eid])
        paths.append(verts)
    return paths


def round_to_disjoint(h: WellStructuredGraph, path_edge_lists: list[list[int]]
                      ) -> list[list[int]]:
    """Round a congested path collection to internally vertex-disjoint paths.

    Takes disjoint_paths over the support of the collection.  Output
    cardinality is at least ceil(|P| / max-congestion).
    """
    if not path_edge_lists:
        return []
    usage: dict[int, int] = {}
    for pe in path_edge_lists:
        for eid in pe:
            if not h.g.alive[eid]:
                raise ValueError(f"path edge {eid} is not alive in the host graph")
            usage[eid] = usage.get(eid, 0) + 1
    eta = max(usage.values())
    paths = disjoint_paths(h, usage)
    floor = math.ceil(len(path_edge_lists) / eta)
    if len(paths) < floor:
        raise AssertionError(
            f"rounding produced {len(paths)} paths, below |P|/congestion = {floor}"
        )
    seen: set[int] = set()
    for verts in paths:
        for v in verts[1:-1]:
            if v in seen:
                raise AssertionError("rounded paths share an internal vertex")
            seen.add(v)
    return paths


def max_matching(g: BipartiteGraph, cfg: DriverConfig | None = None
                 ) -> tuple[Matching, RunReport]:
    cfg = cfg or DriverConfig()
    cnst = cfg.constants
    report = RunReport()
    matching = Matching()
    cap = min(g.n_left, g.n_right)
    if cfg.target is not None:
        if cfg.target < 0:
            raise ValueError("target must be nonnegative")
        cap = min(cap, cfg.target)
    delta_star = cfg.delta_star if cfg.delta_star is not None else _delta_star(
        g.n, max(1, len(g.edges))
    )

    while True:
        delta_hat = cap - len(matching)
        if delta_hat <= 0:
            break
        h = residual_graph(g, matching)
        m = h.g.live_m
        if (delta_hat < delta_star or m < cnst.mwu_min_edges
                or delta_hat < cnst.mwu_gate(m)):
            break
        t0 = time.perf_counter()
        result = mwu_run(h, delta_hat, backend=cfg.backend, cnst=cnst,
                         checked=cfg.checked)
        report.max_congestion = max(report.max_congestion, result.max_usage())
        report.cuts_emitted += result.backend_stats.get("cuts", 0)
        for key, val in result.backend_stats.items():
            if isinstance(val, int):
                report.backend_stats[key] = report.backend_stats.get(key, 0) + val
        disjoint = round_to_disjoint(h, result.paths)
        fallback = False
        if not disjoint:
            fallback = True
            report.fallback_phases += 1
            disjoint = disjoint_paths(h, h.g.live_edges())
            if not disjoint:
                break  # matching is maximum; exact phase will confirm
        matching = augment(g, matching, disjoint)
        report.phases.append(PhaseRecord(
            delta=delta_hat,
            collected=len(result.paths),
            rounded=len(disjoint),
            fallback=fallback,
            millis=(time.perf_counter() - t0) * 1e3,
        ))

    # exact finishing phase
    while len(matching) < cap:
        h = residual_graph(g, matching)
        path = find_augmenting_path(h)
        if path is None:
            break
        matching = augment(g, matching, [path])
        report.exact_augmentations += 1

    report.matching_size = len(matching)
    return matching, report
