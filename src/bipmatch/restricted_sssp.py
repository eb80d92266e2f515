"""Restricted decremental s-t shortest paths on a well-structured graph.

Answers up to Delta queries for a simple s-t path of total length at most
8*lambda, or legally FAILs; after each answer, edges of the returned path are
deleted.  Two implementations share the interface:

- RestrictedSssp: the full structure.  Part 1 maintains an evolving vertex
  partition into clusters, each holding a contiguous interval of positions
  (an approximate topological order); non-leaf clusters with at least one
  short edge inside run the cluster maintenance machinery over the
  unit-length simple short-edge graph, and every emitted cut splits an
  interval with the sparse direction placed right-to-left.  Leaf clusters,
  and clusters with no short edge inside, are shattered into singletons.
  Part 2 runs the DAG-like SSSP structure on the contracted graph, which
  holds one edge per crossing residual edge, in the least power-of-two
  weight class that bounds the position gap the edge skips; when a split
  widens that gap, the edge's class is raised in place.

- ReferenceSssp: plain decremental shortest path over one Even-Shiloach
  tree that reads the residual graph in place, failing exactly when
  dist(s,t) > 8*lambda; it anchors differential tests.

Both take the residual graph and lambda and keep its doubling graph
implicit: only the cheapest live copy of an edge matters, so each keeps one
current length per residual edge, exposed as `length`, which doubles when
the edge is used.  Paths come back, and are deleted, as residual edge ids.
Neither writes to the residual graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constants import Constants, log2c, raw_lambda
from .dag_sssp import DagSssp
from .es_tree import EsTree
from .graph_core import CoreGraph, WellStructuredGraph, S_ID, T_ID
from .maintain_cluster import ClusterContractError, ClusterState


def _min_exp(skip: int) -> int:
    """Smallest i with 2^i >= skip (skip >= 1)."""
    return (skip - 1).bit_length()


@dataclass
class ClusterRecord:
    members: set[int]
    start: int
    size: int
    sup: int = -1
    state: ClusterState | None = None
    local2global: list[int] = field(default_factory=list)
    global2local: dict[int, int] = field(default_factory=dict)
    d_star: int = 0
    origin_size: int = 0
    bad_edges: int = 0
    residual_eid: list[int] = field(default_factory=list)  # per core edge


def _skip_between(ru: ClusterRecord, rv: ClusterRecord) -> int:
    """The position gap an edge from cluster ru to cluster rv spans: from the
    end of ru's interval to the start of rv's, or back from ru's start to
    rv's end."""
    if ru.start + ru.size <= rv.start:
        return rv.start - (ru.start + ru.size - 1)
    return ru.start - (rv.start + rv.size - 1)


class RestrictedSssp:
    def __init__(self, graph: WellStructuredGraph, delta: int,
                 cnst: Constants | None = None, lam: int | None = None,
                 checked: bool = False):
        if delta < 1 or delta > graph.n:
            raise ValueError("Delta must be in [1, |V|]")
        if graph.live_m != len(graph.tail):
            raise ValueError("RestrictedSssp needs a graph without deleted edges")
        # copies are implicit, so a pair names one residual edge
        for adj in graph.out_adj:
            first: dict[int, int] = {}
            for eid in adj:
                prev = first.setdefault(graph.head[eid], eid)
                if prev != eid:
                    raise ValueError(f"parallel edges {prev} and {eid}: "
                                     "a residual graph is simple")
        self.graph = graph
        self.delta = delta
        self.cnst = cnst or Constants.desk()
        self.checked = checked
        m = max(2, graph.live_m)
        self.lam = lam if lam is not None else raw_lambda(m, delta)
        # each edge's current (cheapest live copy's) length; h is never written
        self.length = list(graph.length)
        self._validate_lengths()

        n = graph.n
        self.n = n
        self.d = self.cnst.rsssp_d(n, delta)
        # an edge is short while its length is below this
        self.long_threshold = self.lam / (64.0 * self.d * log2c(m))
        self.gamma = self.cnst.rsssp_gamma(n, self.d, delta)

        self.failed = False
        self.last_path: set[int] = set()
        self.stats = {
            "queries": 0, "fails": 0, "cuts": 0, "splits": 0, "shatters": 0,
            "emergency_shatters": 0, "over_2lam": 0,
            "cluster_queries": 0, "clusters_spawned": 0,
        }
        self._banked_es_scans = 0  # scans of cluster trees already torn down

        # approximate topological order
        self.cluster_of: list[int] = [-1] * n
        self.clusters: dict[int, ClusterRecord] = {}
        self._pending: list[int] = []
        self.dag: DagSssp | None = None
        self._skip_floor: dict[int, int] = {}
        self._span_ceiling: dict[int, int] = {}

        self._new_record({S_ID}, 0)
        self._new_record({T_ID}, n - 1)
        if n > 2:
            j_cid = self._new_record(set(range(2, n)), 1)
            self._pending.append(j_cid)
            self._resolve_pending()
        self._build_dag()
        if self.checked:
            self.check_invariants()

    # --------------------------------------------------------------- set-up

    def _validate_lengths(self) -> None:
        cap = 16 * self.lam
        for eid, ln in enumerate(self.length):
            if ln < 1 or (ln & (ln - 1)) != 0 or ln > cap:
                raise ValueError(
                    f"edge {eid} length {ln} is not a power of 2 in [1, {cap}]"
                )

    def _new_record(self, members: set[int], start: int) -> int:
        cid = len(self.clusters)  # records are never removed
        rec = ClusterRecord(members=set(members), start=start, size=len(members))
        self.clusters[cid] = rec
        for v in members:
            self.cluster_of[v] = cid
        return cid

    def _d_x(self, size: int) -> float:
        return (size / self.n) * self.d

    def _is_leaf(self, size: int) -> bool:
        return size < 2 or self._d_x(size) < self.cnst.leaf_threshold(size)

    def _short_edges_inside(self, members: set[int], tails):
        """Ids of the short edges out of tails with both ends in members."""
        g, length, cap = self.graph, self.length, self.long_threshold
        return (eid for u in tails for eid in g.out_adj[u]
                if length[eid] < cap and g.head[eid] in members)

    def _has_short_pair_inside(self, rec: ClusterRecord) -> bool:
        return any(self._short_edges_inside(rec.members, rec.members))

    def _drop_state(self, rec: ClusterRecord) -> None:
        """Bank the scans of a cluster's trees and tear its state down."""
        if rec.state is not None:
            self._banked_es_scans += rec.state.total_es_scans()
            rec.state = None

    def _retire(self, cid: int) -> None:
        """If cid's cluster state halted, drop it and queue cid again."""
        rec = self.clusters[cid]
        if rec.state is not None and rec.state.halted:
            self._drop_state(rec)
            self._pending.append(cid)

    def _resolve_pending(self) -> None:
        while self._pending:
            cid = self._pending.pop()
            rec = self.clusters[cid]
            if rec.size == 0:
                continue
            # a core without edges can only be cut into pieces that cross
            # nothing, so any order of its members is a valid one
            if self._is_leaf(rec.size) or not self._has_short_pair_inside(rec):
                self._shatter(cid)
                continue
            self._spawn_state(cid)
            self._retire(cid)

    def _spawn_state(self, cid: int) -> None:
        rec = self.clusters[cid]
        self.stats["clusters_spawned"] += 1
        rec.d_star = max(1, math.floor(self._d_x(rec.size)))
        rec.origin_size = rec.size
        rec.local2global = sorted(rec.members)
        rec.global2local = {g: i for i, g in enumerate(rec.local2global)}
        g = self.graph
        side = ["L" if g.is_left(v) else "R" for v in rec.local2global]
        core = CoreGraph(len(rec.local2global), side)
        # core edge i is residual edge residual_eid[i]: by tail in local
        # order, then by head
        rec.residual_eid = [eid for u in rec.local2global
                            for eid in sorted(self._short_edges_inside(rec.members, [u]),
                                              key=g.head.__getitem__)]
        for eid in rec.residual_eid:
            core.add_edge(rec.global2local[g.tail[eid]], rec.global2local[g.head[eid]])
        sink = lambda st, cut, kind, cid=cid: self._on_cut(cid, cut)
        rec.state = ClusterState(core, rec.d_star, self.delta, sink,
                                 cnst=self.cnst, checked=self.checked)

    # ----------------------------------------------------------- ATO updates

    def _on_cut(self, cid: int, cut) -> None:
        """Translate an emitted well-structured cut (a: the tail side) into an
        interval split that moves its smaller side out."""
        rec = self.clusters[cid]
        self.stats["cuts"] += 1
        small = cut.smaller()
        small_glob = {rec.local2global[i] for i in small}
        rec.bad_edges += cut.crossing
        # tail side goes right, head side goes left
        if small is cut.a:
            z_start = rec.start + rec.size - len(small_glob)
            rem_start = rec.start
        else:
            z_start = rec.start
            rem_start = rec.start + len(small_glob)
        rec.members -= small_glob
        rec.size = len(rec.members)
        rec.start = rem_start
        new_cid = self._new_record(small_glob, z_start)
        self.stats["splits"] += 1
        if self.dag is not None:
            self._rehome(cid, [new_cid])
        self._pending.append(new_cid)

    def _shatter(self, cid: int) -> None:
        """Replace a leaf cluster, or one with no short pair inside, by
        singletons, left side first."""
        rec = self.clusters[cid]
        self.stats["shatters"] += 1
        if rec.size == 1:
            rec.state = None
            return
        members = sorted(rec.members)
        lefts = [v for v in members if self.graph.is_left(v)]
        rights = [v for v in members if not self.graph.is_left(v)]
        order = lefts + rights
        # bad edges: the short special edges inside the cluster
        rec.bad_edges += sum(1 for _ in self._short_edges_inside(rec.members, rights))
        rec.members = {order[0]}
        rec.size = 1
        rec.state = None
        new_cids = [self._new_record({v}, pos)
                    for pos, v in enumerate(order[1:], rec.start + 1)]
        if self.dag is not None:
            self._rehome(cid, new_cids)

    # ------------------------------------------------------------ dag plumbing

    def _build_dag(self) -> None:
        n_hint = 2 * self.n + 4
        dag = DagSssp(s=0, t=1, d=self.lam, eps_inv=20, gamma=self.gamma,
                      n_hint=n_hint, checked=self.checked)
        # source first, sink second, then the rest in cid order
        s_cid = self.cluster_of[S_ID]
        t_cid = self.cluster_of[T_ID]
        rest = sorted(c for c in self.clusters if c not in (s_cid, t_cid))
        for cid in [s_cid, t_cid] + rest:
            self.clusters[cid].sup = dag.add_vertex()
        g = self.graph
        crossing = [eid for eid in range(len(g.tail))
                    if self.cluster_of[g.tail[eid]] != self.cluster_of[g.head[eid]]]
        self.residual_edge: dict[int, int] = {}  # DAG edge -> residual edge
        self.dag_edge = self._place_dag_edges(crossing, dag.add_edges)
        dag.finalize()
        self.dag = dag

    def _interval(self, v: int) -> tuple[int, int]:
        """First and last position of the interval of v's cluster."""
        rec = self.clusters[self.cluster_of[v]]
        return rec.start, rec.start + rec.size - 1

    def _skip(self, u: int, v: int) -> int:
        return _skip_between(self.clusters[self.cluster_of[u]],
                             self.clusters[self.cluster_of[v]])

    def _span(self, u: int, v: int) -> int:
        (u_lo, u_hi), (v_lo, v_hi) = self._interval(u), self._interval(v)
        if u_lo > v_hi:  # right-to-left
            return u_hi - v_lo
        return 0

    def _place_dag_edges(self, eids: list[int], create) -> dict[int, int]:
        """One DAG edge per edge of eids, between its endpoints' current
        supernodes, in weight class _min_exp(skip) and at the edge's current
        length: create(specs) makes the DAG edges from their (tail, head,
        length, weight) specs and returns their ids in order.  Returns each
        edge's DAG edge id."""
        g = self.graph
        clusters, cluster_of, length = self.clusters, self.cluster_of, self.length
        specs: list[tuple[int, int, int, int]] = []
        for eid in eids:
            ru = clusters[cluster_of[g.tail[eid]]]
            rv = clusters[cluster_of[g.head[eid]]]
            specs.append((ru.sup, rv.sup, length[eid],
                          1 << _min_exp(_skip_between(ru, rv))))
        created = create(specs)
        self.residual_edge.update(zip(created, eids))
        return dict(zip(eids, created))

    def _rehome(self, cid: int, new_cids: list[int]) -> None:
        """Split the supernodes of new_cids (ids dag.n, dag.n+1, ... in order)
        off cid's and give every edge that now crosses into or out of a new
        cluster a fresh DAG edge in place of its old one."""
        dag = self.dag
        if dag is None:
            raise AssertionError("contracted graph not built")
        g = self.graph
        new_sups = list(range(dag.n, dag.n + len(new_cids)))
        verts = set(self.clusters[cid].members)
        for nc, sup in zip(new_cids, new_sups):
            self.clusters[nc].sup = sup
            verts |= self.clusters[nc].members
        new_set = set(new_cids)
        touched = sorted({eid for v in verts for adj in (g.out_adj[v], g.in_adj[v])
                          for eid in adj})
        # skips may have grown for every edge touching the old cluster: raise
        # classes in one batch before the split, so moved edges keep mirrors
        raises, moved = [], []
        for eid in touched:
            u, v = g.tail[eid], g.head[eid]
            deid = self.dag_edge.get(eid)
            if deid is not None:
                weight = 1 << _min_exp(self._skip(u, v))
                if weight > dag.weight[deid]:
                    raises.append((deid, self.length[eid], weight))
            cu, cv = self.cluster_of[u], self.cluster_of[v]
            if cu != cv and (cu in new_set or cv in new_set):
                moved.append(eid)
        if raises:
            dag.increase_lengths(raises)
        old_sup = self.clusters[cid].sup
        fresh = self._place_dag_edges(
            moved, lambda specs: dag.split_vertex(old_sup, new_sups, specs))
        for eid, deid in fresh.items():
            old = self.dag_edge.get(eid)
            if old is not None:
                dag.delete_edge(old)
            self.dag_edge[eid] = deid
        if self.checked:
            dag.check_p1()

    # ---------------------------------------------------------------- queries

    def _flush_rebuilds(self) -> None:
        for cid in sorted(self.clusters):
            rec = self.clusters[cid]
            if rec.state is not None and rec.state.needs_rebuild:
                rec.state.flush_rebuild()
                self._retire(cid)
        self._resolve_pending()

    def query(self):
        """Simple s-t path as (vertices, edge ids) with total length <= 8*lam,
        or None (FAIL)."""
        if self.failed:
            return None
        if self.stats["queries"] >= self.delta:
            raise ValueError("query budget exhausted")
        self._flush_rebuilds()
        if self.dag is None:
            raise AssertionError("contracted graph not built")
        for _attempt in range(2 * self.n + 4):
            dag_path = self.dag.path_query()
            if dag_path is None:
                self.failed = True
                self.stats["fails"] += 1
                return None
            try:
                result = self._assemble(dag_path)
            except ClusterContractError:
                continue  # a cluster was dissolved; re-query the contracted graph
            self.stats["queries"] += 1
            verts, eids = result
            total = sum(self.length[e] for e in eids)
            if total > 8 * self.lam:
                raise AssertionError(f"assembled path length {total} > 8*lambda")
            if total > 2 * self.lam:
                self.stats["over_2lam"] += 1
            self.last_path = set(eids)
            return result
        raise ClusterContractError("query retries exhausted")

    def _assemble(self, dag_path: list[int]):
        g = self.graph
        verts: list[int] = [S_ID]
        eids: list[int] = []
        for geid in map(self.residual_edge.__getitem__, dag_path):
            u = g.tail[geid]
            if u != verts[-1]:
                vs, es = self._cluster_route(verts[-1], u)
                if vs[0] != verts[-1] or vs[-1] != u:
                    raise AssertionError("cluster route does not join the hop endpoints")
                verts.extend(vs[1:])
                eids.extend(es)
            verts.append(g.head[geid])
            eids.append(geid)
        if verts[-1] != T_ID:
            raise AssertionError("assembled path does not end at the sink")
        if len(set(verts)) != len(verts):
            raise AssertionError("assembled path is not simple")
        return verts, eids

    def _cluster_route(self, x: int, y: int):
        cid = self.cluster_of[x]
        if cid != self.cluster_of[y]:
            raise AssertionError("route endpoints in different clusters")
        rec = self.clusters[cid]
        if rec.state is None:
            raise AssertionError(f"cannot route inside leaf cluster {cid}")
        try:
            self.stats["cluster_queries"] += 1
            lverts, leids = rec.state.query(rec.global2local[x],
                                            rec.global2local[y],
                                            allow_rebuild=False)
        except ClusterContractError:
            self.stats["emergency_shatters"] += 1
            self._dissolve(cid)
            raise
        return ([rec.local2global[i] for i in lverts],
                [rec.residual_eid[le] for le in leids])

    def _dissolve(self, cid: int) -> None:
        """Emergency fallback: split a misbehaving cluster into singletons."""
        self._drop_state(self.clusters[cid])
        self._shatter(cid)
        self._resolve_pending()

    # --------------------------------------------------------------- deletion

    def delete_path_edges(self, eids: list[int]) -> None:
        bad = [e for e in eids if e not in self.last_path]
        if bad:
            raise ValueError(f"edges {bad} were not on the last returned path")
        g = self.graph
        per_cluster: dict[int, list[int]] = {}
        updates: list[tuple[int, int]] = []  # (DAG edge, new length)
        for eid in eids:
            u, v = g.tail[eid], g.head[eid]
            self.length[eid] *= 2
            deid = self.dag_edge.get(eid)
            if deid is not None:
                updates.append((deid, self.length[eid]))
            if self.length[eid] // 2 < self.long_threshold <= self.length[eid]:
                cu, cv = self.cluster_of[u], self.cluster_of[v]
                if cu == cv:
                    rec = self.clusters[cu]
                    if rec.state is not None:
                        le = rec.state.core.pair_to_eid[
                            (rec.global2local[u], rec.global2local[v])
                        ]
                        per_cluster.setdefault(cu, []).append(le)
        self.dag.increase_lengths(updates)
        self.last_path -= set(eids)
        for cid in sorted(per_cluster):
            rec = self.clusters[cid]
            if rec.state is None:
                continue
            rec.state.delete_edges(per_cluster[cid])
            self._retire(cid)
        self._resolve_pending()
        if self.checked:
            self.check_invariants()

    def work_counters(self) -> dict:
        es = self._banked_es_scans
        for rec in self.clusters.values():
            if rec.state is not None:
                es += rec.state.total_es_scans()
        return {"dag_work": self.dag.work if self.dag else 0, "es_scans": es}

    # -------------------------------------------------------------- checking

    def check_invariants(self) -> None:
        # interval bookkeeping
        seen_positions: set[int] = set()
        for cid, rec in self.clusters.items():
            if rec.size == 0:
                continue
            if rec.size != len(rec.members):
                raise AssertionError("cluster size mismatch")
            span = set(range(rec.start, rec.start + rec.size))
            if span & seen_positions:
                raise AssertionError("interval overlap")
            seen_positions |= span
        if seen_positions != set(range(self.n)):
            raise AssertionError("intervals do not cover the position space")
        s_rec = self.clusters[self.cluster_of[S_ID]]
        t_rec = self.clusters[self.cluster_of[T_ID]]
        if not (s_rec.start == 0 and s_rec.size == 1):
            raise AssertionError("source interval is not {0}")
        if not (t_rec.start == self.n - 1 and t_rec.size == 1):
            raise AssertionError("sink interval is not {n-1}")
        # skip monotone, span monotone for right-to-left edges; every crossing
        # edge has exactly one live DAG edge, between its endpoints'
        # supernodes, in class _min_exp(skip) and at the edge's current
        # length, and a non-crossing edge has none
        g, dag, clusters = self.graph, self.dag, self.clusters
        for eid, (u, v) in enumerate(zip(g.tail, g.head)):
            deid = self.dag_edge.get(eid)
            got = None if deid is None else (
                dag.alive[deid], self.residual_edge[deid], dag.tail[deid],
                dag.head[deid], dag.length[deid], dag.weight[deid])
            ru, rv = clusters[self.cluster_of[u]], clusters[self.cluster_of[v]]
            if ru is rv:
                if got is not None:
                    raise AssertionError(f"non-crossing edge {eid} has DAG edge {deid}")
                continue
            sk = self._skip(u, v)
            want = (True, eid, ru.sup, rv.sup, self.length[eid], 1 << _min_exp(sk))
            if got != want:
                raise AssertionError(f"edge {eid} has DAG edge {deid} = {got}, not {want}")
            if eid in self._skip_floor and sk < self._skip_floor[eid]:
                raise AssertionError(f"skip decreased on edge {eid}")
            self._skip_floor[eid] = sk
            sp = self._span(u, v)
            if sp:
                if eid in self._span_ceiling and sp > self._span_ceiling[eid]:
                    raise AssertionError(f"span increased on edge {eid}")
                self._span_ceiling[eid] = sp
        if dag.live_m != len(self.dag_edge):
            raise AssertionError("a live DAG edge stands for no crossing edge")
        dag.check_p1()


class ReferenceSssp:
    """Plain decremental shortest path, failing exactly when dist(s,t) >
    8*lambda.  Meets the restricted-SSSP contract exactly.

    One Even-Shiloach tree rooted at s, depth bound 8*lambda, reads the
    residual graph's edges in place and keeps each at its cheapest copy's
    length; the tree only lengthens edges, so the graph stays as it is.
    Copies of one edge have consecutive ids in the materialised doubling
    graph, so the tree's smallest-id parents pick the same edges as a
    Dijkstra over every copy that keeps the least (dist, copy id).

    The backend reads the graph once, so it must have no deleted edges then
    and stay as it is: a query raises ValueError if edges were added or
    deleted since.
    """

    def __init__(self, graph: WellStructuredGraph, delta: int, lam: int | None = None):
        if graph.live_m != len(graph.tail):
            raise ValueError("ReferenceSssp needs a graph without deleted edges")
        self.graph = graph
        self.delta = delta
        self.lam = lam if lam is not None else raw_lambda(max(2, graph.live_m), delta)
        self.failed = False
        self.last_path: set[int] = set()
        self.stats = {"queries": 0, "fails": 0}
        self._edges_built = len(graph.tail)
        self.tree = EsTree(graph, S_ID, 8 * self.lam)
        self.length = self.tree.length  # each edge's current length

    def query(self):
        if self.failed:
            return None
        if self.stats["queries"] >= self.delta:
            raise ValueError("query budget exhausted")
        g = self.graph
        if len(g.tail) != self._edges_built or g.live_m != self._edges_built:
            raise ValueError("edges were added or deleted after construction; "
                             "ReferenceSssp reads the graph once")
        eids = self.tree.path_edges_to(T_ID)
        if eids is None:  # level(t) > 8*lambda
            self.failed = True
            self.stats["fails"] += 1
            return None
        verts = [S_ID] + [g.head[e] for e in eids]
        self.stats["queries"] += 1
        self.last_path = set(eids)
        return verts, eids

    def delete_path_edges(self, eids: list[int]) -> None:
        bad = [e for e in eids if e not in self.last_path]
        if bad:
            raise ValueError(f"edges {bad} were not on the last returned path")
        self.tree.increase_lengths([(e, 2 * self.length[e]) for e in eids])
        self.last_path -= set(eids)

    def work_counters(self) -> dict:
        return {"es_scans": self.tree.scan_steps}
