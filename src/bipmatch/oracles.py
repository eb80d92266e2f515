"""Baselines and brute-force verifiers.

Deliberately naive and independent of the main pipeline: no code is shared
with the shortest-path or expander machinery, so differential tests have an
honest second opinion.
"""

from __future__ import annotations

import heapq
from collections import deque

from .graph_core import BipartiteGraph, DirectedGraph, Matching

INF = float("inf")


def hopcroft_karp(g: BipartiteGraph) -> tuple[Matching, int]:
    """Maximum matching plus the number of BFS/DFS phases executed."""
    adj: list[list[int]] = [[] for _ in range(g.n_left)]
    for u, v in sorted(g.edges):
        adj[u].append(v)
    match_l: list[int | None] = [None] * g.n_left
    match_r: list[int | None] = [None] * g.n_right
    phases = 0

    def bfs() -> bool:
        nonlocal dist
        dist = [INF] * g.n_left
        q = deque()
        for u in range(g.n_left):
            if match_l[u] is None:
                dist[u] = 0
                q.append(u)
        found = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w is None:
                    found = True
                elif dist[w] is INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = match_r[v]
            if w is None or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = INF
        return False

    dist: list[float] = []
    while bfs():
        phases += 1
        for u in range(g.n_left):
            if match_l[u] is None:
                dfs(u)
    pairs = [(u, v) for u, v in enumerate(match_l) if v is not None]
    return Matching(pairs), phases


def ford_fulkerson_matching(g: BipartiteGraph) -> Matching:
    """One augmenting path at a time, BFS in an adjacency-map residual."""
    match_l: list[int | None] = [None] * g.n_left
    match_r: list[int | None] = [None] * g.n_right
    adj: list[list[int]] = [[] for _ in range(g.n_left)]
    for u, v in sorted(g.edges):
        adj[u].append(v)

    def augment_from(start: int) -> bool:
        parent: dict[tuple[str, int], tuple[str, int] | None] = {("L", start): None}
        q = deque([("L", start)])
        while q:
            side, x = q.popleft()
            if side == "L":
                for v in adj[x]:
                    if ("R", v) not in parent:
                        parent[("R", v)] = ("L", x)
                        if match_r[v] is None:
                            cur: tuple[str, int] | None = ("R", v)
                            while cur is not None:
                                _, rv = cur
                                prev = parent[cur]
                                if prev is None:
                                    raise AssertionError("augmenting path lost its parent")
                                _, lu = prev
                                match_l[lu], match_r[rv] = rv, lu
                                cur = parent[prev]
                            return True
                        q.append(("R", v))
            else:
                w = match_r[x]
                if w is not None and ("L", w) not in parent:
                    parent[("L", w)] = ("R", x)
                    q.append(("L", w))
        return False

    for u in range(g.n_left):
        if match_l[u] is None:
            augment_from(u)
    return Matching([(u, v) for u, v in enumerate(match_l) if v is not None])


def exhaustive_max_matching_size(g: BipartiteGraph) -> int:
    """Brute force by recursion over the edge list (small graphs only)."""
    if g.n > 24:
        raise ValueError("exhaustive oracle limited to 24 vertices")
    edges = sorted(g.edges)

    def rec(i: int, used_l: int, used_r: int) -> int:
        if i == len(edges):
            return 0
        best = rec(i + 1, used_l, used_r)
        u, v = edges[i]
        if not (used_l >> u) & 1 and not (used_r >> v) & 1:
            best = max(best, 1 + rec(i + 1, used_l | (1 << u), used_r | (1 << v)))
        return best

    return rec(0, 0, 0)


def dijkstra(g: DirectedGraph, s: int) -> list[float]:
    """Exact single-source distances over alive edges."""
    dist = [INF] * g.n
    dist[s] = 0
    heap = [(0, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for eid in g.out_adj[u]:
            if not g.alive[eid]:
                continue
            v = g.head[eid]
            nd = d + g.length[eid]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def bicriteria_path_oracle(g: DirectedGraph, s: int, t: int, d: int, gamma: int) -> bool:
    """True iff some s-t path has total length <= d and total weight <= gamma.

    Label-correcting search over Pareto-optimal (length, weight) labels.
    Edges with no weight count as weight 0.
    """
    labels: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]

    def dominated(v: int, ln: int, wt: int) -> bool:
        return any(l2 <= ln and w2 <= wt for l2, w2 in labels[v])

    def insert(v: int, ln: int, wt: int) -> None:
        labels[v] = [(l2, w2) for l2, w2 in labels[v] if not (ln <= l2 and wt <= w2)]
        labels[v].append((ln, wt))

    heap: list[tuple[int, int, int]] = [(0, 0, s)]
    insert(s, 0, 0)
    while heap:
        ln, wt, u = heapq.heappop(heap)
        if dominated(u, ln, wt) and (ln, wt) not in labels[u]:
            continue
        if u == t:
            return True
        for eid in g.out_adj[u]:
            if not g.alive[eid]:
                continue
            v = g.head[eid]
            nl = ln + g.length[eid]
            nw = wt + (g.weight[eid] or 0)
            if nl > d or nw > gamma or dominated(v, nl, nw):
                continue
            insert(v, nl, nw)
            heapq.heappush(heap, (nl, nw, v))
    return any(ln <= d and wt <= gamma for ln, wt in labels[t])


def cut_sparsity(edges: list[tuple[int, int]], side_a: set[int], side_b: set[int]) -> float:
    crossing = sum(1 for u, v in edges if u in side_a and v in side_b)
    return crossing / min(len(side_a), len(side_b))


def enumerate_all_cuts_sparsity(g: DirectedGraph) -> float:
    """Minimum directed cut sparsity over all 2^n-2 vertex bipartitions."""
    if g.n > 16:
        raise ValueError("cut enumeration limited to 16 vertices")
    edges = [(g.tail[e], g.head[e]) for e in g.live_edges()]
    best = INF
    for mask in range(1, (1 << g.n) - 1):
        a = {v for v in range(g.n) if (mask >> v) & 1}
        b = {v for v in range(g.n) if not (mask >> v) & 1}
        best = min(best, cut_sparsity(edges, a, b))
    return best
