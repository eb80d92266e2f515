"""Decremental single-source shortest-path tree for weighted directed graphs.

The classical tree of Even and Shiloach (1981), over the live edges of a
given DirectedGraph: it maintains exact distances from a root up to a depth
bound d under edge deletions and edge length increases; levels are monotone
non-decreasing.  Repair uses the classic per-vertex scan pointer: an
orphaned vertex resumes scanning its in-edges for a parent realizing its
current level, and only when the pointer wraps does it recompute its level
from scratch and cascade to its tree children.  Each vertex therefore pays
at most two passes over its in-edges per level value, keeping total scan
work within a small multiple of m*d.

Every parent is the smallest-id in-edge realizing its head's level, so runs
are bit-reproducible: an edge the pointer passed cannot become tight again
at the same level, since tail levels and lengths only grow.
"""

from __future__ import annotations

import heapq
import math

from .graph_core import DirectedGraph, dijkstra_tree, edge_chain

INF = math.inf


class EsTree:
    """Shortest-path tree over the edges of the graph g it is built on.

    The tree reads g's edges in place and keeps its own copy of their
    lengths, so lengthening an edge leaves g as it is; deleting an edge
    through the tree tombstones it in g.  Either repairs the levels.  g must
    gain no edges while the tree is in use.
    """

    def __init__(self, g: DirectedGraph, root: int, depth: int):
        self.length = list(g.length)
        for ln in self.length:
            if ln < 1 or ln != int(ln):
                raise ValueError("edge lengths must be integers >= 1")
        self.g = g
        self.root = root
        self.depth = depth
        self.level, self.parent_edge, self.scan_steps = dijkstra_tree(g, root, self.length,
                                                                      depth)
        self.children: list[set[int]] = [set() for _ in range(g.n)]
        for v, eid in enumerate(self.parent_edge):
            if eid is not None:
                self.children[g.tail[eid]].add(v)
        self.ptr = [0] * g.n

    # ---------------------------------------------------------------- queries

    def path_to(self, v: int) -> list[int] | None:
        """Vertex sequence root..v of exact total length level(v), or None."""
        eids = self.path_edges_to(v)
        return None if eids is None else [self.root] + [self.g.head[e] for e in eids]

    def path_edges_to(self, v: int) -> list[int] | None:
        if self.level[v] == INF:
            return None
        return edge_chain(self.parent_edge, self.g.tail, self.root, v)

    # ----------------------------------------------- deletion and lengthening

    def delete_edges(self, eids: list[int]) -> None:
        orphans: list[int] = []
        for eid in eids:
            self.g.delete_edge(eid)
            self._orphan_head(eid, orphans)
        if orphans:
            self._repair(orphans)

    def increase_lengths(self, updates: list[tuple[int, int]]) -> None:
        """Set each live edge eid of the (eid, length) pairs to a longer length.

        Like a deletion this can only raise levels, and only through the heads
        of tree edges, so it orphans those heads and runs the same repair."""
        orphans: list[int] = []
        for eid, ln in updates:
            if not self.g.alive[eid]:
                raise ValueError(f"edge {eid} is deleted")
            if ln <= self.length[eid] or ln != int(ln):
                raise ValueError(f"edge {eid} length {self.length[eid]} -> {ln} is not "
                                 "an integer increase")
            self.length[eid] = ln
            self._orphan_head(eid, orphans)
        if orphans:
            self._repair(orphans)

    def _orphan_head(self, eid: int, orphans: list[int]) -> None:
        v = self.g.head[eid]
        if self.parent_edge[v] == eid:
            self.parent_edge[v] = None
            self.children[self.g.tail[eid]].discard(v)
            orphans.append(v)

    def _repair(self, seeds: list[int]) -> None:
        tail, alive, length = self.g.tail, self.g.alive, self.length
        heap: list[tuple[float, int]] = []
        pending: set[int] = set()
        for v in seeds:
            pending.add(v)
            heapq.heappush(heap, (self.level[v], v))
        while heap:
            lv, v = heapq.heappop(heap)
            if v not in pending or self.level[v] != lv:
                continue
            pending.discard(v)
            adj = self.g.in_adj[v]
            # resume pointer scan for a parent realizing the current level
            attached = False
            while self.ptr[v] < len(adj):
                eid = adj[self.ptr[v]]
                self.scan_steps += 1
                if alive[eid] and self.level[tail[eid]] + length[eid] == lv:
                    self.parent_edge[v] = eid
                    self.children[tail[eid]].add(v)
                    attached = True
                    break
                self.ptr[v] += 1
            if attached:
                continue
            # pointer wrapped: recompute the level from scratch
            best = INF
            best_eid = None
            for eid in adj:
                self.scan_steps += 1
                if not alive[eid]:
                    continue
                cand = self.level[tail[eid]] + length[eid]
                if cand < best or (cand == best and (best_eid is None or eid < best_eid)):
                    best = cand
                    best_eid = eid
            for c in sorted(self.children[v]):
                self.parent_edge[c] = None
                if c not in pending:
                    pending.add(c)
                    heapq.heappush(heap, (self.level[c], c))
            self.children[v].clear()
            if best > self.depth:
                self.level[v] = INF
                continue
            self.level[v] = best
            self.ptr[v] = 0
            if best_eid is None:
                raise AssertionError(f"vertex {v} has a finite level but no parent edge")
            self.parent_edge[v] = best_eid
            self.children[tail[best_eid]].add(v)

    def scan_budget(self) -> int:
        return 16 * max(1, len(self.g.tail)) * (self.depth + 1) + 64
