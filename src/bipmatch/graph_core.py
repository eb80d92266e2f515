"""Graph representations, residual construction, augmentation and validation.

Vertex ids are dense integers.  In every residual graph the source is vertex 0
and the sink is vertex 1; left vertex i of the bipartite input maps to 2+i and
right vertex j to 2+n_left+j.  Edge deletion everywhere is tombstoning, so the
stable edge ids can be held by long-lived index structures.
"""

from __future__ import annotations

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
    """A set of (left, right) pairs in which no vertex repeats."""

    def __init__(self, pairs=()):
        self.pairs: set[tuple[int, int]] = set()
        self._left: dict[int, int] = {}
        self._right: dict[int, int] = {}
        for u, v in pairs:
            self.add(u, v)

    def add(self, u: int, v: int) -> None:
        if u in self._left or v in self._right:
            raise ValueError(f"vertex reused by pair ({u},{v})")
        self.pairs.add((u, v))
        self._left[u] = v
        self._right[v] = u

    def discard(self, u: int, v: int) -> None:
        if (u, v) not in self.pairs:
            raise ValueError(f"pair ({u},{v}) not in matching")
        self.pairs.remove((u, v))
        del self._left[u]
        del self._right[v]

    def right_of(self, u: int):
        return self._left.get(u)

    def left_of(self, v: int):
        return self._right.get(v)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def copy(self) -> "Matching":
        return Matching(self.pairs)

    def validate(self, g: BipartiteGraph) -> None:
        for u, v in self.pairs:
            if (u, v) not in g.edge_set:
                raise ValueError(f"matched pair ({u},{v}) is not a graph edge")


class DirectedGraph:
    """Directed multigraph with stable edge ids and tombstone deletion.

    Deleting a vertex first deletes its live incident edges, so a live edge
    always joins two live vertices.  Edge ids grow by one per added edge and
    adjacency lists are only ever appended to, so out_adj[u], in_adj[v] and
    every live-edge iterator run in increasing id order.  g[u] lists the live
    out-arcs (edge id, head) of u, the adjacency bfs_tree reads.
    """

    def __init__(self, n: int):
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
        self.live_out: list[int] = [0] * n
        self.live_in: list[int] = [0] * n
        self.live_m = 0

    def add_vertex(self) -> int:
        self.out_adj.append([])
        self.in_adj.append([])
        self.live_out.append(0)
        self.live_in.append(0)
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
        self.live_out[u] += 1
        self.live_in[v] += 1
        self.live_m += 1
        return eid

    def delete_edge(self, eid: int) -> None:
        if not self.alive[eid]:
            raise ValueError(f"edge {eid} already deleted")
        self.alive[eid] = False
        self.live_out[self.tail[eid]] -= 1
        self.live_in[self.head[eid]] -= 1
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


class WellStructuredGraph:
    """Residual graph with source/sink, L/R bipartition and special-edge tags."""

    def __init__(self, n_core_left: int, n_core_right: int, size_m: int):
        self.g = DirectedGraph(2 + n_core_left + n_core_right)
        self.n_left = n_core_left
        self.n_right = n_core_right
        self.size_m = max(2, size_m)
        self.special: list[bool] = []

    @property
    def n(self) -> int:
        return self.g.n

    def is_left(self, v: int) -> bool:
        return 2 <= v < 2 + self.n_left

    def is_right(self, v: int) -> bool:
        return 2 + self.n_left <= v < self.n

    def add_edge(self, u: int, v: int, length: int = 1, special: bool = False) -> int:
        eid = self.g.add_edge(u, v, length)
        self.special.append(special)
        return eid

    def side_of(self, v: int) -> str:
        if v == S_ID:
            return "s"
        if v == T_ID:
            return "t"
        return "L" if self.is_left(v) else "R"


def left_id(g: BipartiteGraph, u: int) -> int:
    return 2 + u


def right_id(g: BipartiteGraph, v: int) -> int:
    return 2 + g.n_left + v


def residual_graph(g: BipartiteGraph, m_set: Matching) -> WellStructuredGraph:
    """Residual graph of g with respect to m_set.

    Unmatched edge (u,v) contributes the regular edge u->v; a matched edge
    contributes only the special edge v->u.  The source feeds unmatched left
    vertices and unmatched right vertices feed the sink; edges into the source
    and out of the sink are never materialized.
    """
    m_set.validate(g)
    n_edges_estimate = len(g.edges) + g.n_left + g.n_right
    h = WellStructuredGraph(g.n_left, g.n_right, max(2, n_edges_estimate))
    for u in range(g.n_left):
        if m_set.right_of(u) is None:
            h.add_edge(S_ID, left_id(g, u))
    for u, v in sorted(g.edges):
        if (u, v) in m_set:
            h.add_edge(right_id(g, v), left_id(g, u), special=True)
        else:
            h.add_edge(left_id(g, u), right_id(g, v))
    for v in range(g.n_right):
        if m_set.left_of(v) is None:
            h.add_edge(right_id(g, v), T_ID)
    h.size_m = max(2, h.g.live_m)
    return h


def validate_well_structured(h: WellStructuredGraph) -> list[str]:
    """Return one message per violated structural requirement (empty = valid)."""
    report: list[str] = []
    g = h.g
    m = h.size_m
    if g.live_m > m * log2c(m):
        report.append(f"edge count {g.live_m} exceeds m*log m = {m * log2c(m)}")

    pair_counts: dict[tuple[int, int], int] = {}
    special_partner: dict[int, set[int]] = {}
    r_out_heads: dict[int, set[int]] = {}
    l_in_tails: dict[int, set[int]] = {}
    for eid in g.live_edges():
        u, v = g.tail[eid], g.head[eid]
        pair_counts[(u, v)] = pair_counts.get((u, v), 0) + 1
        if v == S_ID:
            report.append(f"edge {eid} enters the source")
        if u == T_ID:
            report.append(f"edge {eid} leaves the sink")
        if u == S_ID and not h.is_left(v):
            report.append(f"source edge {eid} does not point into L")
        if v == T_ID and not h.is_right(u):
            report.append(f"sink edge {eid} does not come from R")
        if u in (S_ID,) or v in (T_ID,):
            if h.special[eid]:
                report.append(f"source/sink edge {eid} marked special")
            continue
        core_u, core_v = h.side_of(u), h.side_of(v)
        if {core_u, core_v} != {"L", "R"}:
            report.append(f"core edge {eid} ({core_u}->{core_v}) is not bipartite")
            continue
        if h.special[eid] != (core_u == "R"):
            report.append(f"edge {eid} direction/special tag mismatch")
        if h.special[eid]:
            special_partner.setdefault(u, set()).add(v)
            special_partner.setdefault(v, set()).add(u)
        if core_u == "R":
            r_out_heads.setdefault(u, set()).add(v)
        if core_v == "L":
            l_in_tails.setdefault(v, set()).add(u)

    for v, partners in special_partner.items():
        if len(partners) > 1:
            report.append(f"vertex {v} has special edges to several partners")
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


def _in_residual(g: BipartiteGraph, m_set: Matching, a: int, b: int) -> bool:
    """Whether a->b is an edge of residual_graph(g, m_set), without building it."""
    nl, nr = g.n_left, g.n_right
    if a == S_ID:
        return 0 <= b - 2 < nl and m_set.right_of(b - 2) is None
    if b == T_ID:
        return 0 <= a - 2 - nl < nr and m_set.left_of(a - 2 - nl) is None
    if 0 <= a - 2 < nl:
        pair = (a - 2, b - 2 - nl)
        return pair in g.edge_set and pair not in m_set
    return (b - 2, a - 2 - nl) in m_set


def augment(g: BipartiteGraph, m_set: Matching, paths: list[list[int]]) -> Matching:
    """Symmetric-difference m_set with a set of internally disjoint s-t paths.

    Paths are vertex sequences in the residual graph of (g, m_set); they must
    be simple, start at the source, end at the sink, and share no internal
    vertex.  Returns a new matching of size len(m_set) + len(paths).
    """
    m_set.validate(g)
    seen_internal: set[int] = set()
    to_add: list[tuple[int, int]] = []
    to_drop: list[tuple[int, int]] = []
    for path in paths:
        if len(path) < 2 or path[0] != S_ID or path[-1] != T_ID:
            raise ValueError(f"path {path} is not an s-t path")
        if len(set(path)) != len(path):
            raise ValueError(f"path {path} is not simple")
        for v in path[1:-1]:
            if v in seen_internal:
                raise ValueError(f"paths share internal vertex {v}")
            seen_internal.add(v)
        for a, b in zip(path, path[1:]):
            if not _in_residual(g, m_set, a, b):
                raise ValueError(f"edge ({a},{b}) not present in residual graph")
            if a == S_ID or b == T_ID:
                continue
            if a < 2 + g.n_left:
                to_add.append((a - 2, b - 2 - g.n_left))
            else:
                to_drop.append((b - 2, a - 2 - g.n_left))
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


def shortcut_to_simple(verts: list[int], eids: list[int]) -> tuple[list[int], list[int]]:
    """Cut every loop out of a walk; eids[i] joins verts[i] and verts[i+1].

    On revisiting a vertex the walk drops back to its first visit, so the
    result is a simple path with the walk's endpoints.
    """
    simple_v: list[int] = []
    simple_e: list[int] = []
    pos: dict[int, int] = {}
    for i, vtx in enumerate(verts):
        if vtx in pos:
            keep = pos[vtx]
            for dropped in simple_v[keep + 1:]:
                pos.pop(dropped)
            del simple_v[keep + 1:]
            del simple_e[keep:]
        else:
            pos[vtx] = len(simple_v)
            if i > 0:
                simple_e.append(eids[i - 1])
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            if len(tokens) != 5 or tokens[1] != "bm":
                raise ValueError(f"line {lineno}: bad problem line {raw!r}")
            n_left, n_right, m_declared = (int(t) for t in tokens[2:])
        elif tokens[0] == "e":
            if n_left is None:
                raise ValueError(f"line {lineno}: edge before problem line")
            if len(tokens) != 3:
                raise ValueError(f"line {lineno}: bad edge line {raw!r}")
            u, v = int(tokens[1]), int(tokens[2])
            if not (1 <= u <= n_left and 1 <= v <= n_right):
                raise ValueError(f"line {lineno}: edge ({u},{v}) out of range")
            edges.append((u - 1, v - 1))
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
