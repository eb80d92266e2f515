"""Serve bounded-length path queries inside one expander-like cluster,
emitting well-structured sparse cuts as the cluster degrades.

One instance owns an induced well-structured core graph with unit lengths.
Every cut goes to the owner as sink(state, cut, kind): a Cut whose side a is
the tail side of the special edges crossing it and whose sparsity_bound is
the bound claimed for it; the smaller side is then deleted.  Work proceeds
in phases: each phase embeds an expander into the live graph (emitting the
cut-matching game's cut, crossed by special edges only, for every failed
attempt), then maintains two depth-bounded shortest-path trees rooted at the
expander plus a reverse index from host edges to the expander edges
embedded through them.  A cleanup pass runs after every batch of deletions
and restores three facts: every live vertex reaches / is reached by the
expander within d, the expander core stays shallow, and the damage tally
plus the fake edges stays within the union cap.

Queries are answered by routing through the expander: host path to an
expander vertex, a BFS route inside the expander expanded via the embedding,
and a host path back, shortcut to a simple path.  If the expanded route
overshoots d*, a direct BFS fallback is used (counted); if even that fails,
ClusterContractError is raised and the owner may dissolve the cluster.
"""

from __future__ import annotations

from .constants import Constants
from .es_tree import EsTree, INF
from .expander_tools import Cut, ball_grow, ball_layers, embed_or_cut
from .graph_core import CoreGraph, DirectedGraph, bfs_tree, shortcut_to_simple, tree_path


class ClusterHalted(Exception):
    """The cluster shrank below half its initial size and terminated."""


class ClusterContractError(Exception):
    """No path within the contract bound exists for a query."""


class ClusterState:
    def __init__(self, core: CoreGraph, d_star: int, delta: int, cut_sink,
                 cnst: Constants | None = None, checked: bool = False):
        if d_star < 1 or delta < 1:
            raise ValueError("d* and Delta must be positive")
        self.core = core
        self.d_star = d_star
        self.delta = delta
        self.sink = cut_sink
        self.cnst = cnst or Constants.desk()
        self.checked = checked
        self.n0 = core.live_n
        if self.n0 < 2:
            raise ValueError("cluster needs at least 2 vertices")
        self.d = self.cnst.cluster_d(self.n0, d_star)
        self.d_hat = self.cnst.cluster_d_hat(self.n0)
        self.n_budget = self.cnst.cluster_query_budget(self.n0, d_star)
        self.halted = False
        self.needs_rebuild = False
        self.phase_active = False
        self.last_path_edges: set[int] = set()
        self.stats = {
            "phases": 0, "cuts_emitted": 0, "queries": 0, "rebases": 0,
            "bfs_fallbacks": 0, "type1_fixes": 0, "type2_fixes": 0,
            "es_scans": 0, "emitted_cut_edges": 0,
        }
        self._establish()

    # ------------------------------------------------------------ lifecycle

    def _check_halt(self) -> bool:
        if self.core.live_n < (self.n0 + 1) // 2 or self.core.live_n < 2:
            self.halted = True
        return self.halted

    def _establish(self) -> None:
        while not self._check_halt():
            self.phase_active = False
            emb = self._step1_embed()
            if emb is None:
                return  # halted during step 1
            self._init_phase(emb)
            self.phase_active = True
            if self._cleanup():
                return
        self.phase_active = False

    def _step1_embed(self):
        core = self.core
        while not self._check_halt():
            d_embed = max(4, min(self.d, 2 * core.live_n))
            kind, payload = embed_or_cut(core, d_embed, self.cnst)
            if kind == "embed":
                return payload
            # the matching player's threshold cut gives regular edges length
            # 0, and the odd vertex joins the side where its edges are
            # special, so only special edges cross the cut
            b_set = set(payload.b)
            if any(core.head[eid] in b_set and not core.is_special(eid)
                   for u in payload.a for eid in core.out_live(u)):
                raise AssertionError("embed_or_cut cut is crossed by a regular edge")
            self._emit_and_delete(payload, kind="step1")
        return None

    def _init_phase(self, emb) -> None:
        self.stats["phases"] += 1
        if hasattr(self, "t_out"):
            self.stats["es_scans"] += self.t_out.scan_steps + self.t_in.scan_steps
        self.emb = emb
        self.exp_vertices: set[int] = set(emb.vertices)
        # edge i of exp and exp_rev is emb.edges[i] and its reverse; a fake
        # edge carries no route, but counts as damage once when it dies
        tails, heads = [u for u, _ in emb.edges], [w for _, w in emb.edges]
        self.exp = DirectedGraph(self.core.n, tails, heads)
        self.exp_rev = DirectedGraph(self.core.n, heads, tails)
        for idx in emb.fake:
            self.exp.delete_edge(idx)
            self.exp_rev.delete_edge(idx)
        self.uncounted_fake = set(emb.fake)
        self.s_index: dict[int, set[int]] = {}
        for idx, eids in emb.path_edges.items():
            for eid in eids:
                self.s_index.setdefault(eid, set()).add(idx)
        self.n2 = len(self.exp_vertices)
        self.shrink_floor = self.cnst.cluster_shrink_threshold(self.core.live_n, self.n0)
        self.damage = 0
        self.union_cap = self.cnst.cluster_union_cap(self.n2)
        self.phase_queries = 0
        self._build_trees()

    def _build_trees(self) -> None:
        core = self.core
        self.s_node = core.n
        live = list(core.live_edges())
        self.core2es: dict[int, int] = {eid: i for i, eid in enumerate(live)}
        exp = sorted(self.exp_vertices)
        self.s_edge: dict[int, int] = {w: len(live) + i for i, w in enumerate(exp)}
        tails = [core.tail[eid] for eid in live]
        heads = [core.head[eid] for eid in live]
        roots = [self.s_node] * len(exp)
        self.t_out = EsTree(DirectedGraph(core.n + 1, tails + roots, heads + exp),
                            self.s_node, self.d + 1)
        self.t_in = EsTree(DirectedGraph(core.n + 1, heads + roots, tails + exp),
                           self.s_node, self.d + 1)

    # -------------------------------------------------------------- plumbing

    def _kill_exp_edges(self, idxs: set[int]) -> None:
        for idx in idxs:
            if idx in self.uncounted_fake:
                self.uncounted_fake.discard(idx)
                self.damage += 1
            elif self.exp.alive[idx]:
                self.exp.delete_edge(idx)
                self.exp_rev.delete_edge(idx)
                self.damage += 1
                for eid in self.emb.path_edges[idx]:
                    self.s_index[eid].discard(idx)

    def _remove_exp_vertices(self, verts: set[int]) -> None:
        dead_out, dead_in = [], []
        affected: set[int] = set()
        for v in sorted(verts):
            self.exp_vertices.discard(v)
            se = self.s_edge[v]
            if self.t_out.g.alive[se]:
                dead_out.append(se)
            if self.t_in.g.alive[se]:
                dead_in.append(se)
            affected.update(self.exp.out_adj[v], self.exp.in_adj[v])
        self._kill_exp_edges(affected)
        if dead_out:
            self.t_out.delete_edges(dead_out)
        if dead_in:
            self.t_in.delete_edges(dead_in)

    def _kill_core_edges(self, eids: list[int]) -> set[int]:
        """Delete core edges everywhere; returns the affected expander edges."""
        affected: set[int] = set()
        batch = []
        for eid in eids:
            if not self.core.alive[eid]:
                continue
            self.core.delete_edge(eid)
            batch.append(eid)
            affected |= self.s_index.get(eid, set())
        if batch:
            self.t_out.delete_edges([self.core2es[e] for e in batch])
            self.t_in.delete_edges([self.core2es[e] for e in batch])
        return affected

    def _delete_vertices(self, verts: list[int]) -> None:
        vset = set(verts)
        eids = []
        for v in verts:
            for eid in self.core.out_adj[v]:
                if self.core.alive[eid]:
                    eids.append(eid)
            for eid in self.core.in_adj[v]:
                if self.core.alive[eid] and self.core.tail[eid] not in vset:
                    eids.append(eid)
        affected = self._kill_core_edges(eids)
        self._kill_exp_edges(affected)
        for v in verts:
            self.core.delete_vertex(v)
        self._remove_exp_vertices(vset & self.exp_vertices)

    def _emit_and_delete(self, ws: Cut, kind: str) -> list[int]:
        """Emit a well-structured cut (a: the tail side) through the sink as
        sink(state, cut, kind), with its claimed bound or the contract bound,
        and delete its smaller side."""
        contract = self.cnst.cluster_cut_bound(self.n0, self.d_star)
        bound = ws.sparsity_bound or contract
        if ws.crossing > bound * ws.min_side() + 1e-9:
            raise AssertionError("emitted cut violates its claimed bound")
        if bound > contract + 1e-9:
            raise AssertionError(
                f"branch bound {bound:.4g} exceeds the module contract {contract:.4g}"
            )
        cut = Cut(ws.a, ws.b, ws.crossing, sparsity_bound=bound)
        small = cut.smaller()
        self.stats["cuts_emitted"] += 1
        self.stats["emitted_cut_edges"] += cut.crossing
        if self.sink is not None:
            self.sink(self, cut, kind)
        if self.phase_active:
            self._delete_vertices(list(small))
        else:
            # step 1: no phase structures yet; plain core deletion
            for v in small:
                self.core.delete_vertex(v)
        return small

    # --------------------------------------------------------------- cleanup

    def _find_tree_violation(self):
        for v in self.core.live_vertices():
            if self.t_in.level[v] == INF:
                return "to_exp", v
            if self.t_out.level[v] == INF:
                return "from_exp", v
        return None

    def _exp_diameter_violation(self):
        if len(self.exp_vertices) < 2:
            return None
        root = min(self.exp_vertices)
        near_fwd = bfs_tree(root, self.exp, max_depth=self.d_hat)
        for v in sorted(self.exp_vertices):
            if v not in near_fwd:
                return root, v
        near_rev = bfs_tree(root, self.exp_rev, max_depth=self.d_hat)
        for v in sorted(self.exp_vertices):
            if v not in near_rev:
                return v, root
        return None

    def _ball2(self, u: int, forward: bool) -> Cut:
        """Well-structured ball growing around u (forward: the ball's
        out-boundary is cut; reverse: its in-boundary).

        A ball is accepted once its boundary is special-only and within
        phi * min(|ball|, rest); growth is capped at d layers so the ball
        stays disjoint from the expander (dist(u, expander) > d).
        """
        core = self.core
        n_live = core.live_n
        phi = self.cnst.ball2_phi(self.n0, self.d)
        for _, (ball, crossing) in zip(range(self.d + 1), ball_layers(core, u, forward)):
            all_special = all(core.is_special(e) for e in crossing)
            small = min(len(ball), n_live - len(ball))
            if all_special and small > 0 and len(crossing) <= phi * small:
                if self.checked and ball & self.exp_vertices:
                    raise AssertionError("well-structured ball reached the expander")
                rest = sorted(set(core.live_vertices()) - ball)
                if forward:
                    return Cut(sorted(ball), rest, len(crossing), sparsity_bound=phi)
                return Cut(rest, sorted(ball), len(crossing), sparsity_bound=phi)
        raise ClusterContractError("well-structured ball growing found no sparse layer")

    def _cleanup(self) -> bool:
        """Restore the phase invariants; False when the phase must end."""
        while True:
            if self._check_halt():
                return False
            if self.core.live_n < self.shrink_floor:
                return False
            if not self.exp_vertices:
                return False
            if (len(self.exp_vertices) < max(1, self.n2 // 4)
                    or self.damage + len(self.emb.fake) > self.union_cap):
                # re-base the expander budget instead of abandoning the phase
                self.stats["rebases"] += 1
                self.n2 = len(self.exp_vertices)
                self.damage = 0
                self.union_cap = self.cnst.cluster_union_cap(max(1, self.n2))
            viol = self._find_tree_violation()
            if viol is not None:
                self.stats["type1_fixes"] += 1
                kind, u = viol
                cut = self._ball2(u, forward=(kind == "to_exp"))
                small = self._emit_and_delete(cut, kind="cleanup")
                if self.exp_vertices & set(small) or not self.exp_vertices:
                    return False  # the expander side was deleted: end the phase
                continue
            pair = self._exp_diameter_violation()
            if pair is not None:
                self.stats["type2_fixes"] += 1
                self._type2_fix(pair)
                continue
            return True

    def _type2_fix(self, pair) -> None:
        a, b = pair
        cut = ball_grow(self.exp, self.exp_vertices, a, b, self.d_hat, self.cnst)
        self.damage += cut.crossing
        self._remove_exp_vertices(set(cut.smaller()))

    # ---------------------------------------------------------------- public

    def flush_rebuild(self) -> None:
        if self.halted or not self.needs_rebuild:
            return
        self.needs_rebuild = False
        self._establish()

    def query(self, x: int, y: int, allow_rebuild: bool = True):
        """Simple x-y path of length <= d*, as (vertices, core edge ids)."""
        if self.halted:
            raise ClusterHalted("cluster has terminated")
        if allow_rebuild:
            self.flush_rebuild()
        if self.stats["queries"] >= self.delta:
            raise ValueError("query budget exhausted")
        if not (self.core.vertex_alive[x] and self.core.vertex_alive[y]):
            raise ValueError("query endpoint is not alive")
        self.phase_queries += 1
        self.stats["queries"] += 1

        verts, eids = self._route(x, y)
        if len(eids) > self.d_star:
            self.stats["bfs_fallbacks"] += 1
            fallback = self._bfs_route(x, y)
            if fallback is None or len(fallback[1]) > self.d_star:
                raise ClusterContractError(
                    f"no x-y path within d*={self.d_star} ({len(eids)} via expander)"
                )
            verts, eids = fallback
        if self.checked:
            if len(set(verts)) != len(verts):
                raise AssertionError("query path not simple")
            for eid, (a, b) in zip(eids, zip(verts, verts[1:])):
                if not self.core.alive[eid]:
                    raise AssertionError(f"query path edge {eid} is deleted")
                if self.core.tail[eid] != a or self.core.head[eid] != b:
                    raise AssertionError(f"query path edge {eid} does not join {a}->{b}")
        self.last_path_edges = set(eids)
        if self.phase_queries >= self.n_budget:
            self.needs_rebuild = True
        return verts, eids

    def _route(self, x: int, y: int):
        t_in_path = self.t_in.path_to(x)
        t_out_path = self.t_out.path_to(y)
        if t_in_path is None or t_out_path is None:
            raise AssertionError("cleanup invariant broken")
        head_v = t_in_path[:0:-1]  # x .. x' (expander vertex)
        tail_v = t_out_path[1:]    # y' (expander vertex) .. y
        # BFS route x' -> y' inside the expander core; the arcs of a vertex
        # are in expander edge order, which sorts them by head
        parent = bfs_tree(head_v[-1], self.exp, target=tail_v[0])
        if tail_v[0] not in parent:
            raise AssertionError("expander core disconnected despite cleanup")
        route = tree_path(parent, tail_v[0])[1]
        # host path to x', the route expanded through the embedding, host
        # path from y'
        return shortcut_to_simple(
            [(head_v, [self._core_eid_for(a, b) for a, b in zip(head_v, head_v[1:])])]
            + [(self.emb.path_vertices[idx], self.emb.path_edges[idx]) for idx in route]
            + [(tail_v, [self._core_eid_for(a, b) for a, b in zip(tail_v, tail_v[1:])])])

    def _core_eid_for(self, a: int, b: int) -> int:
        eid = self.core.pair_to_eid.get((a, b))
        if eid is None or not self.core.alive[eid]:
            raise AssertionError(f"no live core edge ({a},{b})")
        return eid

    def _bfs_route(self, x: int, y: int):
        parent = bfs_tree(x, self.core, target=y)
        return tree_path(parent, y) if y in parent else None

    def delete_edges(self, eids: list[int]) -> None:
        """Delete edges of the most recently returned path."""
        if self.halted:
            raise ClusterHalted("cluster has terminated")
        bad = [e for e in eids if e not in self.last_path_edges]
        if bad:
            raise ValueError(f"edges {bad} are not on the last returned path")
        if not eids:
            return
        affected = self._kill_core_edges(list(eids))
        self._kill_exp_edges(affected)
        self.last_path_edges -= set(eids)
        if not self._cleanup():
            self._establish()

    def total_es_scans(self) -> int:
        total = self.stats["es_scans"]
        if hasattr(self, "t_out"):
            total += self.t_out.scan_steps + self.t_in.scan_steps
        return total

