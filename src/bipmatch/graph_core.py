"""Graph representations, residual construction, augmentation and validation.

Vertex ids are dense integers.  In every residual graph the source is vertex 0
and the sink is vertex 1; left vertex i of the bipartite input maps to 2+i and
right vertex j to 2+n_left+j.  Edge deletion everywhere is tombstoning, so the
stable edge ids can be held by long-lived index structures.

A Matching is its two mate maps.  residual_graph is the one model of the
residual arcs; augment checks a path with the matching's own add and discard
checks, which accept exactly the residual paths (see augment).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .constants import log2c

S_ID = 0
T_ID = 1


@dataclass(frozen=True)
class BipartiteGraph:
    """Simple undirected bipartite graph; edges are (left, right) index pairs."""

    n_left: int
    n_right: int
    edges: tuple[tuple[int, int], ...]
    edge_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_left < 0 or self.n_right < 0:
            raise ValueError(f"negative side size ({self.n_left},{self.n_right})")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n_left and 0 <= v < self.n_right):
                raise ValueError(f"edge ({u},{v}) out of range")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        object.__setattr__(self, "edge_set", frozenset(seen))

    @property
    def n(self) -> int:
        return self.n_left + self.n_right


class Matching:
    """A set of (left, right) pairs in which no vertex repeats, held as the
    two maps _left[u] = v and _right[v] = u."""

    def __init__(self, pairs=()):
        self._left: dict[int, int] = {}
        self._right: dict[int, int] = {}
        for u, v in pairs:
            self.add(u, v)

    @property
    def pairs(self) -> set[tuple[int, int]]:
        return set(self._left.items())

    def add(self, u: int, v: int) -> None:
        if u in self._left or v in self._right:
            raise ValueError(f"vertex reused by pair ({u},{v})")
        self._left[u] = v
        self._right[v] = u

    def discard(self, u: int, v: int) -> None:
        if (u, v) not in self:
            raise ValueError(f"pair ({u},{v}) not in matching")
        del self._left[u]
        del self._right[v]

    def __len__(self) -> int:
        return len(self._left)

    def __contains__(self, pair) -> bool:
        u, v = pair
        return u in self._left and self._left[u] == v

    def copy(self) -> "Matching":
        result = Matching()
        result._left = dict(self._left)
        result._right = dict(self._right)
        return result

    def validate(self, g: BipartiteGraph) -> None:
        for u, v in self._left.items():
            if (u, v) not in g.edge_set:
                raise ValueError(f"matched pair ({u},{v}) is not a graph edge")


class DirectedGraph:
    """Directed multigraph with stable edge ids and tombstone deletion.

    Deleting a vertex first deletes its live incident edges, so a live edge
    always joins two live vertices.  Edge ids grow by one per added edge and
    adjacency lists are only ever appended to, so out_adj[u], in_adj[v] and
    every live-edge iterator run in increasing id order.  g[u] lists the live
    out-arcs (edge id, head) of u, the adjacency bfs_tree reads.

    DirectedGraph(n, tail, head, length) starts with the arcs tail[i] ->
    head[i] of length length[i] (default 1) as edges 0, 1, ..., all live, as
    if added one by one; add_edges appends such a batch to any graph.
    """

    def __init__(self, n: int, tail=(), head=(), length=None):
        self.n = n
        self.vertex_alive = [True] * n
        self.live_n = n
        self.tail: list[int] = []
        self.head: list[int] = []
        self.length: list[int] = []
        self.weight: list[int | None] = []
        self.alive: list[bool] = []
        self.out_adj: list[list[int]] = [[] for _ in range(n)]
        self.in_adj: list[list[int]] = [[] for _ in range(n)]
        self.live_m = 0
        DirectedGraph.add_edges(self, tail, head, length)

    def add_vertex(self) -> int:
        self.out_adj.append([])
        self.in_adj.append([])
        self.vertex_alive.append(True)
        self.live_n += 1
        self.n += 1
        return self.n - 1

    def add_edge(self, u: int, v: int, length: int = 1, weight: int | None = None) -> int:
        if length <= 0:
            raise ValueError("edge lengths must be positive")
        eid = len(self.tail)
        self.tail.append(u)
        self.head.append(v)
        self.length.append(length)
        self.weight.append(weight)
        self.alive.append(True)
        self.out_adj[u].append(eid)
        self.in_adj[v].append(eid)
        self.live_m += 1
        return eid

    def add_edges(self, tail, head, length=None, weight=None) -> range:
        """Append the arcs tail[i] -> head[i] of length length[i] (default 1)
        and weight weight[i] (default None) as the next edge ids, all live,
        as add_edge would one by one; returns their ids.  Nothing is added
        if the batch is malformed."""
        tail, head = list(tail), list(head)
        k = len(tail)
        if len(head) != k:
            raise ValueError(f"{k} tails for {len(head)} heads")
        if length is None:
            length = [1] * k
        else:
            length = list(length)
            if len(length) != k:
                raise ValueError(f"{len(length)} lengths for {k} edges")
            if length and min(length) <= 0:
                raise ValueError("edge lengths must be positive")
        weight = [None] * k if weight is None else list(weight)
        if len(weight) != k:
            raise ValueError(f"{len(weight)} weights for {k} edges")
        m = len(self.tail)
        self.tail += tail
        self.head += head
        self.length += length
        self.weight += weight
        self.alive += [True] * k
        for adj, ends in ((self.out_adj, tail), (self.in_adj, head)):
            for eid, x in enumerate(ends, m):
                adj[x].append(eid)
        self.live_m += k
        return range(m, m + k)

    def delete_edge(self, eid: int) -> None:
        if not self.alive[eid]:
            raise ValueError(f"edge {eid} already deleted")
        self.alive[eid] = False
        self.live_m -= 1

    def delete_vertex(self, v: int) -> None:
        if not self.vertex_alive[v]:
            raise ValueError(f"vertex {v} already deleted")
        self.vertex_alive[v] = False
        self.live_n -= 1
        for eid in self.out_adj[v] + self.in_adj[v]:
            if self.alive[eid]:
                self.delete_edge(eid)

    def live_vertices(self) -> list[int]:
        return [v for v in range(self.n) if self.vertex_alive[v]]

    def live_edges(self):
        for eid in range(len(self.tail)):
            if self.alive[eid]:
                yield eid

    def out_live(self, u: int):
        for eid in self.out_adj[u]:
            if self.alive[eid]:
                yield eid

    def in_live(self, v: int):
        for eid in self.in_adj[v]:
            if self.alive[eid]:
                yield eid

    def __getitem__(self, u: int) -> list[tuple[int, int]]:
        return [(eid, self.head[eid]) for eid in self.out_adj[u] if self.alive[eid]]


class WellStructuredGraph(DirectedGraph):
    """Residual graph: source S_ID, sink T_ID, then n_left L vertices and
    n_right R vertices.  Its special edges, the reverses of matched pairs,
    are exactly its R->L edges."""

    def __init__(self, n_left: int, n_right: int, tail=(), head=(), length=None):
        super().__init__(2 + n_left + n_right, tail, head, length)
        self.n_left = n_left
        self.n_right = n_right

    def is_left(self, v: int) -> bool:
        return 2 <= v < 2 + self.n_left

    def is_right(self, v: int) -> bool:
        return 2 + self.n_left <= v < self.n


def residual_graph(g: BipartiteGraph, m_set: Matching) -> WellStructuredGraph:
    """Residual graph of g with respect to m_set.

    Unmatched edge (u,v) contributes the regular edge u->v; a matched edge
    contributes only the special edge v->u.  The source feeds unmatched left
    vertices and unmatched right vertices feed the sink; edges into the source
    and out of the sink are never materialized.
    """
    m_set.validate(g)
    n_left = g.n_left
    mate_of_left, mate_of_right = m_set._left, m_set._right
    tail: list[int] = []
    head: list[int] = []
    for u in range(n_left):
        if u not in mate_of_left:
            tail.append(S_ID)
            head.append(2 + u)
    for u, v in sorted(g.edges):
        if mate_of_left.get(u) == v:
            tail.append(2 + n_left + v)
            head.append(2 + u)
        else:
            tail.append(2 + u)
            head.append(2 + n_left + v)
    for v in range(g.n_right):
        if v not in mate_of_right:
            tail.append(2 + n_left + v)
            head.append(T_ID)
    return WellStructuredGraph(n_left, g.n_right, tail, head)


def validate_well_structured(h: WellStructuredGraph) -> list[str]:
    """Return one message per violated structural requirement (empty = valid).

    The parallel-copy bound is taken against m = h.live_m (at least 2)."""
    report: list[str] = []
    m = max(2, h.live_m)

    def side_of(v: int) -> str:
        if v == S_ID:
            return "s"
        if v == T_ID:
            return "t"
        return "L" if h.is_left(v) else "R"

    pair_counts: dict[tuple[int, int], int] = {}
    r_out_heads: dict[int, set[int]] = {}
    l_in_tails: dict[int, set[int]] = {}
    for eid in h.live_edges():
        u, v = h.tail[eid], h.head[eid]
        pair_counts[(u, v)] = pair_counts.get((u, v), 0) + 1
        if v == S_ID:
            report.append(f"edge {eid} enters the source")
        if u == T_ID:
            report.append(f"edge {eid} leaves the sink")
        if u == S_ID and not h.is_left(v):
            report.append(f"source edge {eid} does not point into L")
        if v == T_ID and not h.is_right(u):
            report.append(f"sink edge {eid} does not come from R")
        if u == S_ID or v == T_ID:
            continue
        core_u, core_v = side_of(u), side_of(v)
        if {core_u, core_v} != {"L", "R"}:
            report.append(f"core edge {eid} ({core_u}->{core_v}) is not bipartite")
            continue
        if core_u == "R":  # special: the reverse of a matched pair
            r_out_heads.setdefault(u, set()).add(v)
            l_in_tails.setdefault(v, set()).add(u)

    for u, heads in r_out_heads.items():
        if len(heads) > 1:
            report.append(f"R vertex {u} has out-degree {len(heads)} ignoring parallels")
    for v, tails in l_in_tails.items():
        if len(tails) > 1:
            report.append(f"L vertex {v} has in-degree {len(tails)} ignoring parallels")
    cap = log2c(m)
    for (u, v), cnt in pair_counts.items():
        if cnt - 1 > cap - 1:
            report.append(f"pair ({u},{v}) has {cnt - 1} parallel copies > log m - 1 = {cap - 1}")
    return report


def augment(g: BipartiteGraph, m_set: Matching, paths: list[list[int]]) -> Matching:
    """Symmetric-difference m_set with a set of internally disjoint s-t paths.

    Paths are vertex sequences in the residual graph of (g, m_set); they must
    be simple, start at the source, end at the sink, and share no internal
    vertex.  Returns a new matching of size len(m_set) + len(paths) and
    leaves m_set as it was.

    A residual s-t path reads s, l1, r1, ..., lk, rk, t, and its arcs
    need: l1 free (s->l1), (li, ri) an unmatched graph edge (li->ri),
    (l(i+1), ri) matched (ri->l(i+1)) and rk free (rk->t).  The matching's
    own checks test exactly that.  Every (l(i+1), ri) is dropped first, and
    discard fails unless it is matched.  Then every (li, ri), checked
    against g's edges, is added, and add fails unless both ends are free.
    The drops free every internal vertex but l1 and rk, and no other path
    touches those, so they must have been free.  A matched (li, ri) fails
    the drop at li, or leaves l1 taken.
    """
    m_set.validate(g)
    n_left, edge_set = g.n_left, g.edge_set
    seen_internal: set[int] = set()
    to_add: list[tuple[int, int]] = []
    to_drop: list[tuple[int, int]] = []
    for path in paths:
        if len(path) < 4 or len(path) % 2 or path[0] != S_ID or path[-1] != T_ID:
            raise ValueError(f"path {path} is not an s-t path through L-R pairs")
        if len(set(path)) != len(path):
            raise ValueError(f"path {path} is not simple")
        for i in range(1, len(path) - 1, 2):
            a, b = path[i], path[i + 1]
            if a in seen_internal or b in seen_internal:
                raise ValueError(f"paths share internal vertex {a if a in seen_internal else b}")
            seen_internal.add(a)
            seen_internal.add(b)
            u, v = a - 2, b - 2 - n_left
            if (u, v) not in edge_set:
                raise ValueError(f"edge ({a},{b}) not present in residual graph")
            if i > 1:
                to_drop.append((u, prev_v))
            to_add.append((u, v))
            prev_v = v
    result = m_set.copy()
    for u, v in to_drop:
        result.discard(u, v)
    for u, v in to_add:
        result.add(u, v)
    if len(result) != len(m_set) + len(paths):
        raise AssertionError("augmentation did not grow the matching as expected")
    return result


class CoreGraph(DirectedGraph):
    """Simple directed bipartite core (no s/t): unit lengths, special = R->L.

    The expander machinery and cluster maintenance operate on this view.
    Vertices carry a side tag; live edges are simple and join opposite sides.
    """

    def __init__(self, n: int, side: list[str]):
        super().__init__(n)
        self.side = side  # "L" or "R" per vertex
        self.pair_to_eid: dict[tuple[int, int], int] = {}

    def add_edge(self, u: int, v: int) -> int:
        if (u, v) in self.pair_to_eid and self.alive[self.pair_to_eid[(u, v)]]:
            raise ValueError(f"duplicate core edge ({u},{v})")
        if self.side[u] == self.side[v]:
            raise ValueError(f"core edge ({u},{v}) is not bipartite")
        eid = super().add_edge(u, v)
        self.pair_to_eid[(u, v)] = eid
        return eid

    def is_special(self, eid: int) -> bool:
        return self.side[self.tail[eid]] == "R"


def shortcut_to_simple(segments) -> tuple[list[int], list[int]]:
    """Join a walk given as (verts, eids) segments and cut every loop out.

    In each segment eids[i] joins verts[i] and verts[i+1], and each segment
    must start where the previous one ended.  On revisiting a vertex the
    walk drops back to its first visit, so the result is a simple path with
    the walk's endpoints.
    """
    simple_v: list[int] = []
    simple_e: list[int] = []
    pos: dict[int, int] = {}
    for verts, eids in segments:
        if len(eids) != len(verts) - 1:
            raise ValueError("segment edge/vertex count mismatch")
        if not simple_v:
            pos[verts[0]] = 0
            simple_v.append(verts[0])
        elif verts[0] != simple_v[-1]:
            raise ValueError(f"segment starts at {verts[0]}, the walk is at {simple_v[-1]}")
        for vtx, eid in zip(verts[1:], eids):
            if vtx in pos:
                keep = pos[vtx]
                for dropped in simple_v[keep + 1:]:
                    pos.pop(dropped)
                del simple_v[keep + 1:]
                del simple_e[keep:]
            else:
                pos[vtx] = len(simple_v)
                simple_e.append(eid)
                simple_v.append(vtx)
    return simple_v, simple_e


def bfs_tree(root, adj, target=None, max_depth: int | None = None) -> dict:
    """Breadth-first search tree from root, as parent[v] = (u, edge).

    adj[u] is the ordered sequence of (edge, v) pairs tried from u, so the
    first pair to reach v decides its parent; a DirectedGraph is its own adj.
    The search stops once target is reached and expands at most max_depth
    layers.  parent[root] is None; unreached vertices have no entry.
    """
    parent = {root: None}
    if root == target:
        return parent
    frontier = [root]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        nxt = []
        for u in frontier:
            for e, v in adj[u]:
                if v not in parent:
                    parent[v] = (u, e)
                    if v == target:
                        return parent
                    nxt.append(v)
        frontier = nxt
        depth += 1
    return parent


def edge_chain(parent_edge, tail, root: int, v: int) -> list[int]:
    """Edge ids of the path root..v in the tree given by parent_edge[x] (the
    id of the edge into x, None at the root) and tail[edge]."""
    eids: list[int] = []
    while v != root:
        eid = parent_edge[v]
        if eid is None:
            raise AssertionError(f"tree vertex {v} has no parent edge")
        eids.append(eid)
        v = tail[eid]
    eids.reverse()
    return eids


def dijkstra_tree(g: DirectedGraph, root: int, length, bound=None):
    """Shortest-path tree from root over g's live edges, length[eid] each.

    Returns (dist, parent_edge, scans).  Relaxations past bound are dropped;
    unreached vertices keep dist math.inf (that object) and parent None.  A
    vertex's parent is the smallest-id edge realizing its distance, and scans
    counts every out_adj entry of every settled vertex, dead edges included.
    """
    dist: list[float] = [math.inf] * g.n
    parent: list[int | None] = [None] * g.n
    dist[root] = 0
    scans = 0
    heap = [(0, root)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for eid in g.out_adj[v]:
            scans += 1
            if not g.alive[eid]:
                continue
            w = g.head[eid]
            nd = d + length[eid]
            if bound is not None and nd > bound:
                continue
            if nd < dist[w]:
                dist[w] = nd
                parent[w] = eid
                heapq.heappush(heap, (nd, w))
            elif nd == dist[w] and parent[w] is not None and eid < parent[w]:
                parent[w] = eid
    return dist, parent, scans


def tree_path(parent: dict, v) -> tuple[list, list]:
    """Vertices and edges of the bfs_tree path from the root to v."""
    verts, edges = [v], []
    step = parent[v]
    while step is not None:
        u, e = step
        verts.append(u)
        edges.append(e)
        step = parent[u]
    verts.reverse()
    edges.reverse()
    return verts, edges


# ------------------------------------------------------------- text format

def parse_graph_text(text: str) -> BipartiteGraph:
    """Parse the benchmark text format: `p bm <nL> <nR> <m>` then `e u v` lines."""
    n_left = n_right = m_declared = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            if len(tokens) != 5 or tokens[1] != "bm":
                raise ValueError(f"line {lineno}: bad problem line {raw!r}")
            if n_left is not None:
                raise ValueError(f"line {lineno}: second problem line")
            try:
                n_left, n_right, m_declared = (int(t) for t in tokens[2:])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from None
            if n_left < 0 or n_right < 0:
                raise ValueError(f"line {lineno}: negative side size in {raw!r}")
        elif tokens[0] == "e":
            if n_left is None:
                raise ValueError(f"line {lineno}: edge before problem line")
            if len(tokens) != 3:
                raise ValueError(f"line {lineno}: bad edge line {raw!r}")
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from None
            if not (1 <= u <= n_left and 1 <= v <= n_right):
                raise ValueError(f"line {lineno}: edge ({u},{v}) out of range")
            e = (u - 1, v - 1)
            if e in seen:
                raise ValueError(f"line {lineno}: duplicate edge ({u},{v})")
            seen.add(e)
            edges.append(e)
        else:
            raise ValueError(f"line {lineno}: unknown record {tokens[0]!r}")
    if n_left is None:
        raise ValueError("missing problem line")
    if m_declared is not None and m_declared != len(edges):
        raise ValueError(f"declared {m_declared} edges, found {len(edges)}")
    return BipartiteGraph(n_left, n_right, tuple(edges))


def write_graph_text(g: BipartiteGraph) -> str:
    lines = [f"p bm {g.n_left} {g.n_right} {len(g.edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
