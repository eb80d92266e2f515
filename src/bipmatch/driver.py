"""Top-level matching algorithm: MWU phases with a deficiency cutoff,
deterministic rounding of congested path collections, and one finishing
maximum flow over the residual graph.

Rounding and the finishing flow share one unit-capacity blocking-flow
routine, disjoint_paths, which reads a DirectedGraph in place: the support
of a path collection, or the residual graph itself.  Its Dinic phases (one
level BFS, then a current-arc DFS along every shortest path) are, over a
residual graph, Hopcroft-Karp's O(sqrt n) phases, and its arc order makes
it return exactly the paths of one Edmonds-Karp BFS per path.

The binary search over the optimum is replaced by running to exhaustion: the
finishing flow reaches the true maximum regardless of how productive the MWU
phases were, so the result is always optimal.  A ``target`` mode
implements the guessed-optimum contract for benchmark parity.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .constants import Constants
from .graph_core import (BipartiteGraph, DirectedGraph, Matching, S_ID, T_ID,
                         WellStructuredGraph, augment, bfs_tree, residual_graph, tree_path)
from .maintain_cluster import ClusterContractError
from .mwu import MwuResult, mwu_run


BACKENDS = ("reference", "full")


@dataclass
class DriverConfig:
    constants: Constants = field(default_factory=Constants.desk)
    backend: str = "reference"          # one of BACKENDS
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
    backend_failures: int = 0
    matching_size: int = 0
    max_congestion: int = 0
    backend_stats: dict = field(default_factory=dict)

    def phase_count(self) -> int:
        return len(self.phases)


def _delta_star(n: int, m: int) -> int:
    if m == 0:
        return 1
    return max(1, round(n ** (5 / 3) / m ** (2 / 3)))


def find_augmenting_path(h: WellStructuredGraph) -> list[int] | None:
    """BFS for any s-t path in the residual graph; returns the vertex sequence.

    max_matching does not use it; its one caller is the warm-repair tail of
    the benchmark harness (perfbench/run.py).
    """
    parent = bfs_tree(S_ID, h, target=T_ID)
    return tree_path(parent, T_ID)[0] if T_ID in parent else None


def phase_levels(g: DirectedGraph, flow: list[int]) -> list[int] | None:
    """BFS levels of one blocking-flow phase, or None if t is unreachable.

    The residual arcs of the unit flow (flow[e] is 0 or 1) over g's edges
    are the flow-free out-edges forward and the flow-carrying in-edges
    backward.  level[v] is the distance from s to v over them, -1 if v was
    not reached.  The search stops at t, when every nearer vertex has its level.
    """
    out_adj, in_adj, tail, head = g.out_adj, g.in_adj, g.tail, g.head
    level = [-1] * g.n
    level[S_ID] = 0
    queue = [S_ID]
    for u in queue:  # grows while it is read: a FIFO queue
        lv = level[u] + 1
        for e in out_adj[u]:
            if flow[e] == 0:
                v = head[e]
                if level[v] < 0:
                    level[v] = lv
                    if v == T_ID:
                        return level
                    queue.append(v)
        for e in in_adj[u]:
            if flow[e] == 1:
                v = tail[e]
                if level[v] < 0:
                    level[v] = lv
                    if v == T_ID:
                        return level
                    queue.append(v)
    return None


def disjoint_paths(g: DirectedGraph) -> list[list[int]]:
    """A maximum set of edge-disjoint s-t paths over the edges of g, which
    has no deleted edge: the support of an MWU path collection, or the whole
    residual graph in max_matching's finishing flow.

    Dinic's blocking flow over unit capacities: each phase levels the
    residual arcs with one BFS (phase_levels), then a depth-first search
    with a current-arc pointer per vertex augments along shortest s-t paths
    until none is left.  The flow is then decomposed by following each
    vertex's flow edges in id order.  In a residual graph every L vertex has
    one in-edge and every R vertex one out-edge, so the paths are internally
    vertex-disjoint as well.

    From a vertex u the search tries its flow-free out-edges forward, then
    its flow-carrying in-edges backward, each in id order: the order of
    g.out_adj and g.in_adj.  So it finds the lexicographically smallest
    shortest s-t path, the one an Edmonds-Karp FIFO BFS trying the arcs in
    the same order takes.  An augmentation along a shortest path keeps the
    order of the other arcs and adds only arcs that go back a level, so each
    later path of the phase is again the smallest shortest one.  The
    augmenting paths, the flow and its decomposition are Edmonds-Karp's.
    """
    if g.live_m != len(g.tail):
        raise ValueError("disjoint_paths needs a graph with no deleted edges")
    out_adj, in_adj, tail, head = g.out_adj, g.in_adj, g.tail, g.head
    flow = [0] * len(tail)

    while True:
        level = phase_levels(g, flow)
        if level is None:
            break
        # ptr[u]: u's current arc, an index into out_adj[u] + in_adj[u]; no
        # arc before it starts a shortest path to t in this phase any more
        ptr = [0] * g.n
        stack, arcs = [S_ID], []  # the search path and its edges
        augmented = False
        while stack:
            u = stack[-1]
            if u == T_ID:
                for e in arcs:
                    flow[e] ^= 1
                stack, arcs = [S_ID], []
                augmented = True
                continue
            outs, ins = out_adj[u], in_adj[u]
            lv = level[u] + 1
            i, n_out, v = ptr[u], len(outs), -1
            while i < n_out:
                e = outs[i]
                if flow[e] == 0 and level[head[e]] == lv:
                    v = head[e]
                    break
                i += 1
            else:
                n_arcs = n_out + len(ins)
                while i < n_arcs:
                    e = ins[i - n_out]
                    if flow[e] == 1 and level[tail[e]] == lv:
                        v = tail[e]
                        break
                    i += 1
            ptr[u] = i
            if v >= 0:
                stack.append(v)
                arcs.append(e)
            else:  # a dead end: back out, and the arc that led here is spent
                stack.pop()
                if stack:
                    arcs.pop()
                    ptr[stack[-1]] += 1
        if not augmented:
            raise AssertionError("a blocking-flow phase reached t but found no path")

    # the decomposition: each walk leaves a vertex by its next flow edge in
    # id order; nxt[u] indexes out_adj[u]
    nxt = [0] * g.n
    paths: list[list[int]] = []
    for e in out_adj[S_ID]:
        if flow[e] != 1:
            continue
        verts = [S_ID]
        u = head[e]
        while u != T_ID:
            verts.append(u)
            outs, i = out_adj[u], nxt[u]
            while flow[outs[i]] != 1:
                i += 1
            nxt[u] = i + 1
            u = head[outs[i]]
        verts.append(T_ID)
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
            if not h.alive[eid]:
                raise ValueError(f"path edge {eid} is not alive in the host graph")
            usage[eid] = usage.get(eid, 0) + 1
    eta = max(usage.values())
    support = sorted(usage)  # increasing id keeps every arc's relative order
    paths = disjoint_paths(DirectedGraph(h.n, [h.tail[e] for e in support],
                                         [h.head[e] for e in support]))
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
    if cfg.backend not in BACKENDS:
        raise ValueError(f"unknown backend {cfg.backend!r}")
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
        # live edges of the residual graph: one per graph edge, plus s->u and
        # v->t for each free vertex
        m = len(g.edges) + g.n - 2 * len(matching)
        if (delta_hat < delta_star or m < cnst.mwu_min_edges
                or delta_hat < cnst.mwu_gate(m)):
            break
        h = residual_graph(g, matching)
        if h.live_m != m:
            raise AssertionError(f"residual graph has {h.live_m} edges, expected {m}")
        t0 = time.perf_counter()
        try:
            result = mwu_run(h, delta_hat, backend=cfg.backend, cnst=cnst,
                             checked=cfg.checked)
        except ClusterContractError:
            # the backend broke its contract: the phase collects no path and
            # falls back to the finishing flow
            report.backend_failures += 1
            result = MwuResult([], [], {}, lam=0, m=m)
        report.max_congestion = max(report.max_congestion, result.max_usage())
        for key, val in result.backend_stats.items():
            if isinstance(val, int):
                report.backend_stats[key] = report.backend_stats.get(key, 0) + val
        disjoint = round_to_disjoint(h, result.paths)
        if disjoint:
            matching = augment(g, matching, disjoint)
        else:
            report.fallback_phases += 1
        report.phases.append(PhaseRecord(
            delta=delta_hat,
            collected=len(result.paths),
            rounded=len(disjoint),
            fallback=not disjoint,
            millis=(time.perf_counter() - t0) * 1e3,
        ))
        if not disjoint:
            break  # the finishing flow below finds this phase's paths

    # finishing step: one maximum flow over every live residual edge
    if len(matching) < cap:
        h = residual_graph(g, matching)
        paths = disjoint_paths(h)[:cap - len(matching)]
        matching = augment(g, matching, paths)
        report.exact_augmentations += len(paths)

    report.matching_size = len(matching)
    return matching, report
