"""Expander and cut subroutines: explicit expanders, ball growing, cut
chaining, and the cut-matching game.  The game's cuts are well-structured
as they come, so the well-structured cut conversion is kept only as a
tested building block of the analysis.

All operations are pure functions of their inputs plus a Constants handle.
Cuts carry the claimed sparsity bound so callers and tests can recount
them; embeddings carry declared length, congestion and fake-edge
caps and can verify themselves against the host graph.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .constants import Constants, log2c
from .es_tree import EsTree
from .graph_core import (CoreGraph, DirectedGraph, bfs_tree, dijkstra_tree,
                         shortcut_to_simple, tree_path)


@dataclass
class Cut:
    """Ordered cut (a, b); crossing counts edges directed from a to b."""

    a: list[int]
    b: list[int]
    crossing: int
    sparsity_bound: float | None = None

    def min_side(self) -> int:
        return min(len(self.a), len(self.b))

    def sparsity(self) -> float:
        return self.crossing / self.min_side()

    def smaller(self) -> list[int]:
        """The smaller side, a on a tie."""
        return self.a if len(self.a) <= len(self.b) else self.b


@dataclass
class Embedding:
    """An expander over a subset of host vertices, embedded via host paths.

    ``edges[i]`` is a directed pair of host vertex ids; ``fake`` holds the
    indices of edges carrying no path.  For every other index,
    ``path_vertices[i]`` / ``path_edges[i]`` give a simple directed host path
    between the images of the endpoints.
    """

    vertices: list[int]
    edges: list[tuple[int, int]]
    fake: set[int]
    path_vertices: dict[int, list[int]]
    path_edges: dict[int, list[int]]
    length_cap: int
    congestion_cap: int
    fake_cap: int
    rounds_played: int = 0

    def verify(self, core: CoreGraph) -> list[str]:
        """Recount every declared invariant; returns violation messages."""
        problems: list[str] = []
        if len(self.fake) > self.fake_cap:
            problems.append(f"|F|={len(self.fake)} exceeds cap {self.fake_cap}")
        usage: dict[int, int] = {}
        for idx, (u, v) in enumerate(self.edges):
            if idx in self.fake:
                continue
            verts = self.path_vertices.get(idx)
            eids = self.path_edges.get(idx)
            if verts is None or eids is None:
                problems.append(f"edge {idx} has no embedding path")
                continue
            if verts[0] != u or verts[-1] != v:
                problems.append(f"path {idx} connects {verts[0]}->{verts[-1]}, edge is ({u},{v})")
            if len(set(verts)) != len(verts):
                problems.append(f"path {idx} is not simple")
            if len(eids) > self.length_cap:
                problems.append(f"path {idx} length {len(eids)} exceeds cap {self.length_cap}")
            if len(eids) != len(verts) - 1:
                problems.append(f"path {idx} edge/vertex count mismatch")
                continue
            for eid, (a, b) in zip(eids, zip(verts, verts[1:])):
                if core.tail[eid] != a or core.head[eid] != b:
                    problems.append(f"path {idx} edge {eid} does not match its vertices")
                usage[eid] = usage.get(eid, 0) + 1
        if usage and max(usage.values()) > self.congestion_cap:
            problems.append(f"congestion {max(usage.values())} exceeds cap {self.congestion_cap}")
        return problems


# ---------------------------------------------------------------- expanders

def _gabber_galil(q: int) -> set[tuple[int, int]]:
    edges = set()
    for x in range(q):
        for y in range(q):
            u = x * q + y
            for nx, ny in (
                ((x + 2 * y) % q, y),
                ((x + 2 * y + 1) % q, y),
                (x, (y + 2 * x) % q),
                (x, (y + 2 * x + 1) % q),
            ):
                v = nx * q + ny
                if u != v:
                    edges.add((u, v))
                    edges.add((v, u))
    return edges


def expander_pairs(n: int, cnst: Constants | None = None) -> list[tuple[int, int]]:
    """Sorted directed edges of an explicit constant-degree expander on n vertices.

    Gabber-Galil 8-regular base on q^2 >= n vertices, bidirected, with the
    q^2-n surplus vertices merged pairwise into retained ones; the merge at
    most doubles degrees, staying within the configured degree bound.
    """
    cnst = cnst or Constants.desk()
    if n <= 1:
        raise ValueError("expander needs at least 2 vertices")
    if n <= 3:
        return [(u, v) for u in range(n) for v in range(n) if u != v]
    q = math.isqrt(n)
    if q * q < n:
        q += 1
    surplus = q * q - n
    if surplus > n:
        raise AssertionError("surplus exceeds the vertex count")

    def collapse(v: int) -> int:
        # vertex q^2-1-i is merged into vertex i, for i < surplus
        if v >= n:
            return q * q - 1 - v
        return v

    pairs = set()
    for u, v in _gabber_galil(q):
        cu, cv = collapse(u), collapse(v)
        if cu != cv:
            pairs.add((cu, cv))
    out_deg = [0] * n
    in_deg = [0] * n
    for u, v in pairs:
        out_deg[u] += 1
        in_deg[v] += 1
    for v in range(n):
        if out_deg[v] > cnst.degree_bound or in_deg[v] > cnst.degree_bound:
            raise AssertionError(f"expander degree bound violated at vertex {v}")
    return sorted(pairs)


def construct_expander(n: int, cnst: Constants | None = None) -> DirectedGraph:
    """The expander of expander_pairs as a graph; edge ids follow the sorted pairs."""
    pairs = expander_pairs(n, cnst)
    return DirectedGraph(n, [u for u, _ in pairs], [v for _, v in pairs])


# -------------------------------------------------------------- ball growing

def ball_layers(g: DirectedGraph, root: int, forward: bool = True, inside=None):
    """Grow a ball from root one BFS layer at a time over g's live edges.

    A forward ball follows the edges leaving it, a reverse ball the edges
    entering it; with inside given, only edges with both ends in inside
    count.  Yields (ball, crossing edge ids) for {root}, then for the ball
    after each layer; the first layer that adds nothing is yielded once
    more, then the generator stops.  The ball is one set, grown in place.
    """
    def far(eid):
        return g.head[eid] if forward else g.tail[eid]

    ball = {root}
    layer = [root]
    while True:
        crossing = [eid for v in layer
                    for eid in (g.out_live(v) if forward else g.in_live(v))
                    if far(eid) not in ball and (inside is None or far(eid) in inside)]
        yield ball, crossing
        layer = list(dict.fromkeys(map(far, crossing)))
        ball.update(layer)
        if not layer:
            yield ball, crossing
            return


def ball_grow(g: DirectedGraph, vertices, x: int, y: int, d: int, cnst: Constants) -> Cut:
    """Two-sided ball growing: a cut of sparsity ball_coeff*delta_max*log(n)/d.

    Works on g's live edges with both ends in vertices; delta_max is the
    largest in+out degree among them.  Grows a forward ball from x and a
    reverse ball from y, one layer each in turn, accepting the first layer
    whose directed boundary is phi-sparse relative to the smaller side of
    the induced cut.  Requires dist(x,y) >= d; if no layer within d/4 steps
    is acceptable the call is rejected.
    """
    inside = set(vertices)
    if x == y or x not in inside or y not in inside:
        raise ValueError("ball growing requires distinct endpoints among vertices")
    n = len(inside)
    delta = max(1, max(sum(g.head[e] in inside for e in g.out_live(v))
                       + sum(g.tail[e] in inside for e in g.in_live(v)) for v in inside))
    if d < cnst.ball_pre_coeff * delta * log2c(n):
        raise ValueError(f"distance budget d={d} below configured threshold")
    phi = cnst.ball_coeff * delta * log2c(n) / d
    # each ball is first tested after one layer: skip {x} and {y}
    balls = [ball_layers(g, x, True, inside), ball_layers(g, y, False, inside)]
    for layers in balls:
        next(layers)
    for _ in range(max(1, d // 4)):
        for forward, layers in zip((True, False), balls):
            ball, crossing = next(layers, (set(), []))
            small = min(len(ball), n - len(ball))
            if small > 0 and len(crossing) <= phi * small:
                rest = sorted(inside - ball)
                if forward:
                    return Cut(sorted(ball), rest, len(crossing), sparsity_bound=phi)
                return Cut(rest, sorted(ball), len(crossing), sparsity_bound=phi)
    raise ValueError("no sparse layer found; dist(x,y) >= d precondition violated")


# ------------------------------------------------------------- cut chaining

def chain_to_balanced(
    edges: list[tuple[int, int]],
    clusters: list[list[int]],
    budgets,
) -> Cut:
    """Convert a chain of one-directionally sparse prefix cuts into a single
    balanced cut.

    clusters = (X_1..X_k) must partition the vertex set.  budgets is either a
    scalar phi (budget phi*|X_i| per cluster) or a list of per-cluster edge
    budgets; for every i < k, X_i -> suffix or suffix -> X_i must stay within
    its budget.  The returned cut has both sides of size at least
    min((1-alpha)/2*n, n/4) where alpha*n is the largest cluster, crossed by
    at most the summed budgets.
    """
    n = sum(len(x) for x in clusters)
    k = len(clusters)
    if k < 2:
        raise ValueError("need at least two clusters")
    owner: dict[int, int] = {}
    for i, cluster in enumerate(clusters):
        if not cluster:
            raise ValueError("empty cluster")
        for v in cluster:
            if v in owner:
                raise ValueError(f"vertex {v} in two clusters")
            owner[v] = i
    if isinstance(budgets, (int, float)):
        budgets = [budgets * len(clusters[i]) for i in range(k)]

    fwd = [0] * k
    bwd = [0] * k
    for u, v in edges:
        iu, iv = owner[u], owner[v]
        if iu == iv:
            continue
        if iu < iv:
            fwd[iu] += 1
        else:
            bwd[iv] += 1

    removed = 0.0
    left: list[int] = []
    right: list[int] = []
    for i in range(k - 1):
        if fwd[i] <= budgets[i]:
            right.insert(0, i)
            removed += fwd[i]
        elif bwd[i] <= budgets[i]:
            left.append(i)
            removed += bwd[i]
        else:
            raise ValueError(f"cluster {i} is not one-directionally sparse")
    order = left + [k - 1] + right

    sizes = [len(clusters[i]) for i in order]
    alpha_i = max(range(len(order)), key=lambda j: (sizes[j], -j))
    alpha = sizes[alpha_i] / n
    if alpha >= 0.25:
        before = sum(sizes[:alpha_i])
        if before >= (1 - alpha) / 2 * n:
            b_idx = order[:alpha_i]
        else:
            b_idx = order[: alpha_i + 1]
    else:
        acc = 0
        cutpos = 0
        for j, sz in enumerate(sizes):
            acc += sz
            if acc >= n / 4:
                cutpos = j + 1
                break
        b_idx = order[:cutpos]
    b_set = set(v for i in b_idx for v in clusters[i])
    a_set = set(owner) - b_set
    if not a_set or not b_set:
        raise ValueError("degenerate balanced cut")
    crossing = sum(1 for u, v in edges if u in a_set and v in b_set)
    return Cut(sorted(a_set), sorted(b_set), crossing)


# ------------------------------------------- well-structured cut conversion

def sparse_to_well_structured(core: CoreGraph, cut: Cut) -> Cut:
    """Convert a sparse cut into one crossed by special edges only.

    Every A-vertex with a regular edge into B moves to B; the only new
    crossing edges are the movers' incoming specials, so sparsity at most
    doubles.  Rejects cuts of sparsity above 1/4.  No pipeline code calls
    it: embed_or_cut's cuts are crossed by special edges only already.
    """
    phi = cut.sparsity()
    if phi > 0.25:
        raise ValueError(f"cut sparsity {phi:.3f} exceeds 0.25")
    a_set = set(cut.a)
    b_set = set(cut.b)
    movers = set()
    for u in cut.a:
        for eid in core.out_live(u):
            if core.head[eid] in b_set and not core.is_special(eid):
                movers.add(u)
                break
    a_new = a_set - movers
    b_new = b_set | movers
    if not a_new:
        raise ValueError("conversion emptied the A side")
    crossing = 0
    for u in a_new:
        for eid in core.out_live(u):
            if core.head[eid] in b_new:
                if not core.is_special(eid):
                    raise AssertionError("regular edge survived conversion")
                crossing += 1
    return Cut(sorted(a_new), sorted(b_new), crossing,
               sparsity_bound=max(2 * phi, 1e-12))


# ------------------------------------------------------------ matching player

@dataclass
class MatchingPaths:
    paths: list[tuple[list[int], list[int]]]  # (vertex seq, core edge ids)
    congestion: int
    congestion_cap: int


def matching_player(
    core: CoreGraph,
    side_a: list[int],
    side_b: list[int],
    d_prime: int,
    z: int,
    cnst: Constants,
    exclude: int | None = None,
):
    """Route length-bounded paths from A to B, or find a sparse cut.

    Returns ("paths", MatchingPaths) with at least |A|-z paths of at most
    2*d'+1 edges and pairwise-distinct endpoints, or ("cut", Cut) crossed by
    at most 2n/d' edges with both sides of size >= z.  Lengths follow the
    multiplicative doubling scheme over an implicit d'-fold parallel graph,
    tracked as per-special-edge exponent histograms; the oracle is a
    depth-bounded decremental shortest-path tree on an auxiliary graph with
    one edge per live core edge, source edge and sink edge, each at its
    cheapest copy's length: 2^j for a special edge whose lowest populated
    level is j and for the core edges into its tail, 2^j + 1 for the source
    edge into its tail.
    """
    if len(side_a) != len(side_b) or set(side_a) & set(side_b):
        raise ValueError("A and B must be disjoint and of equal size")
    if z < 1:
        raise ValueError("z must be at least 1")
    n_half = len(side_a)
    n_game = 2 * n_half
    n_host = core.live_n
    if not (4 <= d_prime <= max(4, 2 * n_host)):
        raise ValueError(f"d'={d_prime} out of range")
    q = max(1, math.ceil(math.log2(d_prime)))

    live = [v for v in core.live_vertices() if v != exclude]
    live_set = set(live)
    a_left = set(side_a)
    b_left = set(side_b)

    # greedy phase: disjoint single regular edges from A to B
    q1: list[tuple[list[int], list[int]]] = []
    for eid in core.live_edges():
        if core.is_special(eid):
            continue
        u, v = core.tail[eid], core.head[eid]
        if u in a_left and v in b_left:
            q1.append(([u, v], [eid]))
            a_left.discard(u)
            b_left.discard(v)

    # doubling state: level_count[spec][j] = copies of the special edge at
    # length 2^j/d' in the implicit parallel graph
    spec_of_tail: dict[int, int] = {}
    for eid in core.live_edges():
        if core.is_special(eid) and core.tail[eid] in live_set and core.head[eid] in live_set:
            if core.tail[eid] in spec_of_tail:
                raise ValueError(
                    f"vertex {core.tail[eid]} has several special out-edges; "
                    "the graph is not well-structured"
                )
            spec_of_tail[core.tail[eid]] = eid
    level_count: dict[int, list[int]] = {
        eid: [d_prime] + [0] * q for eid in spec_of_tail.values()
    }

    s_node = core.n
    t_node = core.n + 1
    aux = DirectedGraph(core.n + 2)
    h_kind: list[tuple[str, int]] = []  # (kind, core_eid)
    # special edge -> its tree edge and the tree edges into its tail, which
    # all sit at its lowest populated level
    mirrors: dict[int, list[int]] = {}

    def push(u, v, ln, kind, ce, spec=None):
        hid = aux.add_edge(u, v, ln)
        h_kind.append((kind, ce))
        if spec is not None:
            mirrors.setdefault(spec, []).append(hid)
        return hid

    for eid in core.live_edges():
        u, v = core.tail[eid], core.head[eid]
        if u not in live_set or v not in live_set:
            continue
        if core.is_special(eid):
            push(u, v, 1, "spec", eid, spec=eid)
        else:
            sp = spec_of_tail.get(v)
            push(u, v, 1, "reg_mirror" if sp is not None else "reg_plain", eid, spec=sp)
    s_edge_of: dict[int, int] = {}
    for a in sorted(a_left):
        sp = spec_of_tail.get(a)
        if sp is not None:
            s_edge_of[a] = push(s_node, a, 2, "s_mirror", -1, spec=sp)
        else:
            s_edge_of[a] = push(s_node, a, 1, "s_plain", -1)
    t_edge_of: dict[int, int] = {}
    for b in sorted(b_left):
        ln = 2 if core.side[b] == "L" else 1
        t_edge_of[b] = push(b, t_node, ln, "t_edge", -1)

    tree = EsTree(aux, s_node, 2 * d_prime + 3)
    q2: list[tuple[list[int], list[int]]] = []

    while a_left and tree.level[t_node] <= 2 * d_prime + 3:
        h_path = tree.path_edges_to(t_node)
        verts = tree.path_to(t_node)
        if h_path is None or verts is None:
            raise AssertionError("sink within depth but without a tree path")
        a_end, b_end = verts[1], verts[-2]
        if a_end not in a_left or b_end not in b_left:
            raise AssertionError("tree path ends at an already routed vertex")
        core_eids = []
        to_kill = [s_edge_of[a_end], t_edge_of[b_end]]
        raised: list[tuple[int, int]] = []
        for hid in h_path:
            kind, ce = h_kind[hid]
            if kind in ("spec", "reg_mirror", "reg_plain"):
                core_eids.append(ce)
            if kind == "spec":
                # the tree edge stands for the cheapest live copy, at level j
                j = tree.length[hid].bit_length() - 1
                counts = level_count[ce]
                if counts[j] <= 0:
                    raise AssertionError("path used an unpopulated copy")
                counts[j] -= 1
                if j + 1 <= q:
                    counts[j + 1] += 1
                if counts[j] == 0 and j + 1 <= q:
                    raised += [(h, 2 ** (j + 1) + (h_kind[h][0] == "s_mirror"))
                               for h in mirrors[ce]]
                elif counts[j] == 0:
                    to_kill += mirrors[ce]
        q2.append((verts[1:-1], core_eids))
        a_left.discard(a_end)
        b_left.discard(b_end)
        # a's source edge may also mirror a special edge whose top level ran out
        tree.delete_edges([h for h in dict.fromkeys(to_kill) if aux.alive[h]])
        tree.increase_lengths([(h, ln) for h, ln in raised if aux.alive[h]])

    paths = q1 + q2
    if len(paths) >= n_half - z:
        usage: dict[int, int] = {}
        for _, eids in paths:
            for e in eids:
                usage[e] = usage.get(e, 0) + 1
        cong = max(usage.values(), default=0)
        cap = cnst.matching_congestion_cap(d_prime)
        if cong > cap:
            raise AssertionError(f"matching congestion {cong} exceeds cap {cap}")
        for vs, _ in paths:
            if len(vs) - 1 > 2 * d_prime + 1:
                raise AssertionError("matching path too long")
        return "paths", MatchingPaths(paths, cong, cap)

    # cut extraction over the equalized lengths: distances from a super-source
    # with length-0 arcs to the unrouted A vertices; regular edges have length
    # 0 and a special edge with no populated copy is unusable
    tails, heads, length = [], [], []
    for eid in core.live_edges():
        u, v = core.tail[eid], core.head[eid]
        if u not in live_set or v not in live_set:
            continue
        ln = 0
        if core.is_special(eid):
            lvl = next((j for j, c in enumerate(level_count[eid]) if c > 0), None)
            ln = math.inf if lvl is None else 2**lvl
        tails.append(u)
        heads.append(v)
        length.append(ln)
    if sum(ln for ln in length if ln < math.inf) > 2 * n_game:
        raise AssertionError("doubling potential exceeded 2n")
    sources = sorted(a_left)
    dist = dijkstra_tree(
        DirectedGraph(core.n + 1, tails + [core.n] * len(sources), heads + sources),
        core.n, length + [0] * len(sources))[0]

    # edge u -> v crosses the threshold cut at k for dist[u] <= k < dist[v];
    # take the first k in [0, d') that minimizes the crossing count
    diff = [0] * (d_prime + 1)
    for u, v in zip(tails, heads):
        hi = min(dist[v], d_prime)
        if dist[u] < hi:
            diff[dist[u]] += 1
            diff[hi] -= 1
    cross = list(itertools.accumulate(diff[:d_prime]))
    best_cross = min(cross)
    best_k = cross.index(best_cross)
    x_side = sorted(v for v in live if dist[v] <= best_k)
    y_side = sorted(v for v in live if dist[v] > best_k)
    if best_cross > 2 * n_game / d_prime:
        raise AssertionError("cut extraction exceeded the 2n/d' bound")
    if len(x_side) < z or len(y_side) < z:
        raise AssertionError("cut sides smaller than z")
    return "cut", Cut(x_side, y_side, best_cross)


# ---------------------------------------------------------------- cut player

def _greedy_embed(vertices, w_edges, d_tilde, eta, cnst):
    """Greedily embed an explicit expander into the W multigraph induced on
    vertices; returns (expander edge pairs, fake index set, paths idx -> W
    edge ids, that multigraph in W order with its saturated edges deleted)."""
    exp_edges = [(vertices[a], vertices[b]) for a, b in expander_pairs(len(vertices), cnst)]
    vset = set(vertices)
    w_of = [wid for wid, (u, v) in enumerate(w_edges) if u in vset and v in vset]
    g = DirectedGraph(max(vertices) + 1, [w_edges[w][0] for w in w_of],
                      [w_edges[w][1] for w in w_of])
    mu = [0] * len(w_of)
    fake: set[int] = set()
    paths: dict[int, list[int]] = {}
    for idx, (u, v) in enumerate(exp_edges):
        parent = bfs_tree(u, g, target=v, max_depth=d_tilde)
        if v not in parent:
            fake.add(idx)
            continue
        path_ids = tree_path(parent, v)[1]
        paths[idx] = [w_of[e] for e in path_ids]
        for e in path_ids:
            mu[e] += 1
            if mu[e] >= eta:
                g.delete_edge(e)
    return exp_edges, fake, paths, g


def cut_player_inner(vertices, w_edges, cnst: Constants, relaxed=False):
    """Either embed an explicit expander into the W multigraph induced on
    vertices or return a moderately balanced sparse cut of it.  The two
    branches are exhaustive."""
    n = len(vertices)
    if n < 2:
        raise ValueError("inner cut player needs at least 2 vertices")
    d_tilde = max(4, n) if relaxed else cnst.cut_player_dtilde(n)
    eta = math.inf if relaxed else cnst.cut_player_eta(n)
    k = cnst.expander_fake_budget(n)

    exp_edges, fake, paths, g = _greedy_embed(vertices, w_edges, d_tilde, eta, cnst)
    if len(fake) <= k:
        return "embed", (list(vertices), exp_edges, fake, paths)

    alive = set(vertices)
    removed: list[list[int]] = []
    removed_budget: list[int] = []
    fake_pairs = sorted({exp_edges[i] for i in fake})
    while len(alive) > n - k / 2 and len(alive) >= 2:
        pair = next(((a, b) for a, b in fake_pairs if a in alive and b in alive), None)
        if pair is None:
            break
        cut = ball_grow(g, alive, pair[0], pair[1], d_tilde, cnst)
        small = cut.smaller()
        removed.append(sorted(small))
        removed_budget.append(cut.crossing)
        alive -= set(small)
    if not removed:
        raise AssertionError("cut phase made no progress")
    clusters = removed + [sorted(alive)]
    cut = chain_to_balanced([(g.tail[e], g.head[e]) for e in g.live_edges()], clusters,
                            removed_budget + [0])
    # recount against the full multigraph (saturated edges included)
    a_set, b_set = set(cut.a), set(cut.b)
    crossing = sum(1 for u, v in w_edges if u in a_set and v in b_set)
    return "cut", Cut(cut.a, cut.b, crossing)


def cut_player(vertices, w_edges, cnst: Constants):
    """Outer cut player: embed an expander into at least a quarter of W, or
    return a balanced sparse cut of W."""
    n = len(vertices)
    alive = sorted(vertices)
    removed: list[list[int]] = []
    removed_budget: list[int] = []
    while len(alive) >= n / 4 and len(alive) >= 2:
        kind, payload = cut_player_inner(alive, w_edges, cnst)
        if kind == "embed":
            return "embed", payload
        cut = payload
        small = cut.smaller()
        removed.append(sorted(small))
        removed_budget.append(cut.crossing)
        alive = sorted(set(alive) - set(small))
    clusters = removed + [alive]
    cut = chain_to_balanced(w_edges, clusters, removed_budget + [0])
    if cut.min_side() < cnst.outer_side_frac * n:
        raise AssertionError("outer cut sides below the configured fraction")
    return "cut", cut


# --------------------------------------------------------------- embed or cut

def embed_or_cut(core: CoreGraph, d_prime: int, cnst: Constants):
    """Run the cut-matching game on the live core graph.

    Returns ("cut", Cut) crossed by special edges only, with crossing at
    most 2n/d'+1 and both sides at least the configured minimum, or
    ("embed", Embedding) of an expander on at least an eighth of the live
    vertices.
    """
    live_all = core.live_vertices()
    n_all = len(live_all)
    if n_all < 2:
        raise ValueError("graph too small for the cut-matching game")
    if not (4 <= d_prime <= max(4, 2 * n_all)):
        raise ValueError(f"d'={d_prime} out of range")
    v0 = None
    vertices = list(live_all)
    if n_all % 2 == 1:
        v0 = vertices[-1]
        vertices = vertices[:-1]
    n = len(vertices)
    z = cnst.matching_z(n)

    w_edges: list[tuple[int, int]] = []
    w_fake: set[int] = set()
    w_paths: dict[int, tuple[list[int], list[int]]] = {}

    def reinsert(cut: Cut) -> Cut:
        if v0 is None:
            return cut
        if core.side[v0] == "R":
            a, b = sorted(cut.a + [v0]), cut.b
        else:
            a, b = cut.a, sorted(cut.b + [v0])
        a_set, b_set = set(a), set(b)
        crossing = sum(
            1 for eid in core.live_edges()
            if core.tail[eid] in a_set and core.head[eid] in b_set
        )
        return Cut(a, b, crossing)

    rounds = 0
    for _ in range(cnst.cmg_rounds(n)):
        rounds += 1
        kind, payload = cut_player(vertices, w_edges, cnst)
        if kind == "embed":
            return "embed", _compose(core, payload, w_fake, w_paths,
                                     d_prime, n, rounds, cnst)
        small = payload.smaller()
        small_set = set(small)
        fill = [v for v in vertices if v not in small_set]
        # the completion of the half-split is arbitrary; rotate it per round
        # so repeated cuts still contribute fresh matchings
        if fill:
            off = (rounds - 1) % len(fill)
            fill = fill[off:] + fill[:off]
        a_half = sorted(sorted(small) + fill[: n // 2 - len(small)])
        a_set = set(a_half)
        b_half = sorted(v for v in vertices if v not in a_set)
        matchings = []
        hit_cut = None
        for src, dst in ((a_half, b_half), (b_half, a_half)):
            res_kind, res = matching_player(core, src, dst, d_prime, z, cnst, exclude=v0)
            if res_kind == "cut":
                hit_cut = res
                break
            matchings.append((src, dst, res))
        if hit_cut is not None:
            out = reinsert(hit_cut)
            if out.crossing > 2 * n / d_prime + 1:
                raise AssertionError("embed_or_cut cut bound violated")
            return "cut", out
        for src, dst, mp in matchings:
            used_src, used_dst = set(), set()
            for verts, eids in mp.paths:
                wid = len(w_edges)
                w_edges.append((verts[0], verts[-1]))
                w_paths[wid] = (verts, eids)
                used_src.add(verts[0])
                used_dst.add(verts[-1])
            spare_src = sorted(set(src) - used_src)
            spare_dst = sorted(set(dst) - used_dst)
            if not len(spare_src) == len(spare_dst) <= z:
                raise AssertionError("unrouted endpoints unbalanced or more than z")
            for a, b in zip(spare_src, spare_dst):
                wid = len(w_edges)
                w_edges.append((a, b))
                w_fake.add(wid)

    kind, payload = cut_player_inner(vertices, w_edges, cnst, relaxed=True)
    if kind == "embed":
        return "embed", _compose(core, payload, w_fake, w_paths,
                                 d_prime, n, rounds, cnst)
    raise RuntimeError("cut-matching game did not converge")


def _compose(core, inner_payload, w_fake, w_paths, d_prime, n, rounds, cnst):
    """Thread the inner embedding (into W) through the matching paths (into
    the core graph), shortcutting loops so every path is simple."""
    exp_vertices, exp_edges, fake_idx, inner_paths = inner_payload
    fake = set(fake_idx)
    path_vertices: dict[int, list[int]] = {}
    path_edges: dict[int, list[int]] = {}
    for idx in range(len(exp_edges)):
        if idx in fake:
            continue
        wids = inner_paths[idx]
        if any(w in w_fake for w in wids):
            fake.add(idx)
            continue
        path_vertices[idx], path_edges[idx] = shortcut_to_simple([w_paths[w] for w in wids])
    emb = Embedding(
        vertices=sorted(exp_vertices),
        edges=exp_edges,
        fake=fake,
        path_vertices=path_vertices,
        path_edges=path_edges,
        length_cap=cnst.embed_length_cap(n, d_prime),
        congestion_cap=cnst.embed_congestion_cap(n, d_prime, rounds),
        fake_cap=cnst.embed_fake_cap(n, rounds),
        rounds_played=rounds,
    )
    if len(emb.vertices) < max(1, n // 8):
        raise AssertionError("embedded expander covers too few vertices")
    problems = emb.verify(core)
    if problems:
        raise AssertionError("embedding verification failed: " + "; ".join(problems))
    return emb
