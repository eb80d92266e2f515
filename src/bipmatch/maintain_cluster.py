"""Serve bounded-length path queries inside one expander-like cluster,
emitting well-structured sparse cuts as the cluster degrades.

One instance owns an induced well-structured core graph with unit lengths.
Work proceeds in phases: each phase embeds an expander into the live graph
(emitting well-structured cuts for every failed attempt), then maintains two
depth-bounded shortest-path trees rooted at the expander plus a reverse index
from host edges to the expander edges embedded through them.  A cleanup pass
runs after every batch of deletions and restores three facts: every live
vertex reaches / is reached by the expander within d, the expander core stays
shallow, and the damage tallies stay within budget.

Queries are answered by routing through the expander: host path to an
expander vertex, a BFS route inside the expander expanded via the embedding,
and a host path back, shortcut to a simple path.  If the expanded route
overshoots d*, a direct BFS fallback is used (counted); if even that fails,
ClusterContractError is raised and the owner may dissolve the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import Constants
from .es_tree import EsTree, INF
from .expander_tools import Cut, ball_grow, embed_or_cut, sparse_to_well_structured
from .graph_core import CoreGraph, bfs_tree, shortcut_to_simple, tree_path


class ClusterHalted(Exception):
    """The cluster shrank below half its initial size and terminated."""


class ClusterContractError(Exception):
    """No path within the contract bound exists for a query."""


@dataclass
class EmittedCut:
    listed: list[int]          # smaller side, in the cluster's vertex-id space
    other: list[int]
    listed_is_tail_side: bool  # listed side is the tail side of the crossing specials
    crossing: int
    bound: float               # claimed sparsity bound
    kind: str

    def tail_side(self) -> list[int]:
        return self.listed if self.listed_is_tail_side else self.other

    def head_side(self) -> list[int]:
        return self.other if self.listed_is_tail_side else self.listed


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
        self.queries_total = 0
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
        cnst = self.cnst
        while not self._check_halt():
            n_live = self.core.live_n
            d_embed = max(4, min(self.d, 2 * n_live))
            attempt = d_embed
            while True:
                kind, payload = embed_or_cut(self.core, attempt, cnst)
                if kind == "embed":
                    return payload
                cut = payload
                if self._all_special(cut):
                    # threshold cuts arrive well-structured already
                    ws = Cut(cut.a, cut.b, cut.crossing,
                             sparsity_bound=cut.sparsity() or None,
                             source="step1")
                    break
                if cut.sparsity() <= 0.25:
                    ws = sparse_to_well_structured(self.core, cut)
                    break
                if attempt >= 2 * n_live:
                    raise ClusterContractError(
                        "embed_or_cut cut too dense to convert at maximum d'"
                    )
                attempt = min(2 * n_live, attempt * 2)
            self._emit_and_delete(ws, kind="step1")
        return None

    def _all_special(self, cut: Cut) -> bool:
        b_set = set(cut.b)
        for u in cut.a:
            for eid in self.core.out_live(u):
                if self.core.head[eid] in b_set and not self.core.is_special(eid):
                    return False
        return True

    def _init_phase(self, emb) -> None:
        self.stats["phases"] += 1
        if hasattr(self, "t_out"):
            self.stats["es_scans"] += self.t_out.scan_steps + self.t_in.scan_steps
        self.emb = emb
        self.exp_vertices: set[int] = set(emb.vertices)
        self.exp_alive: list[bool] = [True] * len(emb.edges)
        self.exp_fake: set[int] = set(emb.fake)
        self.s_index: dict[int, set[int]] = {}
        for idx, eids in emb.path_edges.items():
            for eid in eids:
                self.s_index.setdefault(eid, set()).add(idx)
        self.n2 = len(self.exp_vertices)
        self.phase_start_n = self.core.live_n
        self.shrink_floor = self.cnst.cluster_shrink_threshold(
            self.phase_start_n, self.n0
        )
        self.damage = 0
        self.damage_cap = self.cnst.cluster_damage_cap(self.n0)
        self.union_cap = self.cnst.cluster_union_cap(self.n2)
        self.phase_queries = 0
        self._build_trees()

    def _build_trees(self) -> None:
        core = self.core
        self.s_node = core.n
        out_edges: list[tuple[int, int, int]] = []
        in_edges: list[tuple[int, int, int]] = []
        self.core2es: dict[int, int] = {}
        for eid in core.live_edges():
            self.core2es[eid] = len(out_edges)
            out_edges.append((core.tail[eid], core.head[eid], 1))
            in_edges.append((core.head[eid], core.tail[eid], 1))
        self.s_edge: dict[int, int] = {}
        for w in sorted(self.exp_vertices):
            self.s_edge[w] = len(out_edges)
            out_edges.append((self.s_node, w, 1))
            in_edges.append((self.s_node, w, 1))
        self.t_out = EsTree(core.n + 1, out_edges, self.s_node, self.d + 1)
        self.t_in = EsTree(core.n + 1, in_edges, self.s_node, self.d + 1)

    # -------------------------------------------------------------- plumbing

    def _kill_exp_edges(self, idxs: set[int]) -> None:
        for idx in idxs:
            if self.exp_alive[idx]:
                self.exp_alive[idx] = False
                self.damage += 1
                for eid in self.emb.path_edges.get(idx, ()):
                    bucket = self.s_index.get(eid)
                    if bucket is not None:
                        bucket.discard(idx)

    def _remove_exp_vertices(self, verts: set[int]) -> None:
        dead_out, dead_in = [], []
        affected: set[int] = set()
        for v in sorted(verts):
            if v not in self.exp_vertices:
                continue
            self.exp_vertices.discard(v)
            se = self.s_edge.get(v)
            if se is not None and self.t_out.alive[se]:
                dead_out.append(se)
            if se is not None and self.t_in.alive[se]:
                dead_in.append(se)
        for idx, (u, w) in enumerate(self.emb.edges):
            if self.exp_alive[idx] and (u in verts or w in verts):
                affected.add(idx)
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
        """Emit a well-structured cut through the sink, delete its smaller side."""
        contract = self.cnst.cluster_cut_bound(self.n0, self.d_star)
        bound = ws.sparsity_bound if ws.sparsity_bound else contract
        if ws.crossing > bound * ws.min_side() + 1e-9:
            raise AssertionError("emitted cut violates its claimed bound")
        if bound > contract + 1e-9:
            raise AssertionError(
                f"branch bound {bound:.4g} exceeds the module contract {contract:.4g}"
            )
        listed_is_a = len(ws.a) <= len(ws.b)
        listed = ws.a if listed_is_a else ws.b
        other = ws.b if listed_is_a else ws.a
        emission = EmittedCut(
            listed=list(listed),
            other=list(other),
            listed_is_tail_side=listed_is_a,
            crossing=ws.crossing,
            bound=bound,
            kind=kind,
        )
        self.stats["cuts_emitted"] += 1
        self.stats["emitted_cut_edges"] += ws.crossing
        if self.sink is not None:
            self.sink(self, emission)
        if self.phase_active:
            self._delete_vertices(list(listed))
        else:
            # step 1: no phase structures yet; plain core deletion
            for v in listed:
                self.core.delete_vertex(v)
        return list(listed)

    # --------------------------------------------------------------- cleanup

    def _find_tree_violation(self):
        for v in self.core.live_vertices():
            if self.t_in.level[v] == INF:
                return "to_exp", v
            if self.t_out.level[v] == INF:
                return "from_exp", v
        return None

    def _exp_adjacency(self):
        """Live real expander arcs (idx, other end) per vertex, in idx order."""
        out: dict[int, list[tuple[int, int]]] = {v: [] for v in self.exp_vertices}
        inn: dict[int, list[tuple[int, int]]] = {v: [] for v in self.exp_vertices}
        for idx, (u, w) in enumerate(self.emb.edges):
            if not self.exp_alive[idx] or idx in self.exp_fake:
                continue
            if u in self.exp_vertices and w in self.exp_vertices:
                out[u].append((idx, w))
                inn[w].append((idx, u))
        return out, inn

    def _exp_diameter_violation(self):
        if len(self.exp_vertices) < 2:
            return None
        root = min(self.exp_vertices)
        out, inn = self._exp_adjacency()
        near_fwd = bfs_tree(root, out, max_depth=self.d_hat)
        for v in sorted(self.exp_vertices):
            if v not in near_fwd:
                return root, v
        near_rev = bfs_tree(root, inn, max_depth=self.d_hat)
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
        ball = {u}
        for _ in range(self.d + 1):
            crossing = []
            for v in ball:
                it = core.out_live(v) if forward else core.in_live(v)
                for eid in it:
                    other = core.head[eid] if forward else core.tail[eid]
                    if other not in ball:
                        crossing.append(eid)
            all_special = all(core.is_special(e) for e in crossing)
            small = min(len(ball), n_live - len(ball))
            if all_special and small > 0 and len(crossing) <= phi * small:
                if self.checked and ball & self.exp_vertices:
                    raise AssertionError("well-structured ball reached the expander")
                rest = sorted(set(core.live_vertices()) - ball)
                if forward:
                    return Cut(sorted(ball), rest, len(crossing),
                               sparsity_bound=phi, source="ball2")
                return Cut(rest, sorted(ball), len(crossing),
                           sparsity_bound=phi, source="ball2")
            grew = False
            for eid in crossing:
                other = core.head[eid] if forward else core.tail[eid]
                if other not in ball:
                    ball.add(other)
                    grew = True
            if not grew:
                break
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
                    or self.damage + len(self.exp_fake) > self.union_cap):
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
                listed = self._emit_and_delete(cut, kind="cleanup")
                if self.exp_vertices & set(listed) or not self.exp_vertices:
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
        edges = [e for idx, e in enumerate(self.emb.edges)
                 if self.exp_alive[idx] and idx not in self.exp_fake]
        cut = ball_grow(sorted(self.exp_vertices), edges, a, b, self.d_hat, self.cnst)
        small = cut.a if len(cut.a) <= len(cut.b) else cut.b
        self.damage += cut.crossing
        self._remove_exp_vertices(set(small))

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
        if self.queries_total >= self.delta:
            raise ValueError("query budget exhausted")
        if not (self.core.vertex_alive[x] and self.core.vertex_alive[y]):
            raise ValueError("query endpoint is not alive")
        self.queries_total += 1
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
        walk_v = list(reversed(t_in_path))[:-1]  # x .. x' (expander vertex)
        x_prime = walk_v[-1]
        out_adj, _ = self._exp_adjacency()
        y_prime = t_out_path[1]
        # BFS route x' -> y' inside the expander core; arcs are tried by
        # head, then by expander edge index
        by_head = {u: sorted(arcs, key=lambda arc: arc[1]) for u, arcs in out_adj.items()}
        parent = bfs_tree(x_prime, by_head, target=y_prime)
        if y_prime not in parent:
            raise AssertionError("expander core disconnected despite cleanup")
        route = tree_path(parent, y_prime)[1]
        # expand the route through the embedding
        full_v = list(walk_v)
        full_e: list[int] = []
        cur = x_prime
        for idx in route:
            pv = self.emb.path_vertices[idx]
            pe = self.emb.path_edges[idx]
            if pv[0] != cur:
                raise AssertionError("embedding path does not start at the route vertex")
            full_v.extend(pv[1:])
            full_e.extend(pe)
            cur = pv[-1]
        full_v.extend(t_out_path[2:])
        # stitch edge ids for the tree segments
        head_e = [self._core_eid_for(a, b) for a, b in zip(walk_v, walk_v[1:])]
        tail_e = [self._core_eid_for(a, b)
                  for a, b in zip(t_out_path[1:], t_out_path[2:])]
        all_e = head_e + full_e + tail_e
        if len(all_e) != len(full_v) - 1:
            raise AssertionError("route edge/vertex count mismatch")
        return shortcut_to_simple(full_v, all_e)

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

