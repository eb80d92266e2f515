"""Restricted decremental s-t shortest paths on a well-structured graph.

Answers up to Delta queries for a simple s-t path of total length at most
8*lambda, or legally FAILs; after each answer, edges of the returned path are
deleted.  Two implementations share the interface:

- RestrictedSssp: the full structure.  Part 1 maintains an evolving vertex
  partition into clusters, each holding a contiguous interval of positions
  (an approximate topological order); non-leaf clusters run the cluster
  maintenance machinery over the unit-length simple short-edge graph, and
  every emitted cut splits an interval with the sparse direction placed
  right-to-left.  Part 2 runs the DAG-like SSSP structure on the contracted
  graph, whose parallel copies carry power-of-two weights bounding the
  position gap their edge skips.

- ReferenceSssp: plain decremental shortest path, recomputed per query,
  failing exactly when dist(s,t) > 8*lambda.  It satisfies the same contract
  and anchors differential tests.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .constants import Constants, log2c, raw_lambda
from .dag_sssp import DagSssp
from .graph_core import CoreGraph, WellStructuredGraph, S_ID, T_ID
from .maintain_cluster import ClusterContractError, ClusterState

INF = math.inf


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


class RestrictedSssp:
    def __init__(self, graph: WellStructuredGraph, delta: int, m_param: int,
                 cnst: Constants | None = None, lam: int | None = None,
                 checked: bool = False):
        if delta < 1 or delta > graph.n:
            raise ValueError("Delta must be in [1, |V|]")
        self.graph = graph
        self.delta = delta
        self.m_param = max(2, m_param)
        self.cnst = cnst or Constants.desk()
        self.checked = checked
        self.lam = lam if lam is not None else raw_lambda(self.m_param, delta)
        self._validate_lengths()

        n = graph.n
        self.n = n
        self.d = self.cnst.rsssp_d(n, delta)
        self.logm = log2c(self.m_param)
        self.long_threshold = self.lam / (64.0 * self.d * self.logm)
        self.gamma = self.cnst.rsssp_gamma(n, self.d, delta)
        self.max_exp = max(1, math.ceil(math.log2(max(2, n))))

        self.queries_done = 0
        self.failed = False
        self.last_path: set[int] = set()
        self.stats = {
            "queries": 0, "fails": 0, "cuts": 0, "splits": 0, "shatters": 0,
            "emergency_shatters": 0, "over_2lam": 0,
            "cluster_queries": 0, "es_scans": 0, "dag_work": 0,
        }

        # simple short-edge graph bookkeeping
        self.short_mult: dict[tuple[int, int], int] = {}
        self.out_pairs: list[set[int]] = [set() for _ in range(n)]
        self.pair_geids: dict[tuple[int, int], list[int]] = {}
        for eid in graph.g.live_edges():
            u, v = graph.g.tail[eid], graph.g.head[eid]
            self.pair_geids.setdefault((u, v), []).append(eid)
            if graph.g.length[eid] < self.long_threshold:
                self.short_mult[(u, v)] = self.short_mult.get((u, v), 0) + 1
                self.out_pairs[u].add(v)

        # approximate topological order
        self.cluster_of: list[int] = [-1] * n
        self.clusters: dict[int, ClusterRecord] = {}
        self._next_cid = 0
        self._pending: list[int] = []
        self.dag: DagSssp | None = None
        self._skip_floor: dict[int, int] = {}
        self._span_ceiling: dict[int, int] = {}

        s_cid = self._new_record({S_ID}, 0)
        t_cid = self._new_record({T_ID}, n - 1)
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
        for eid in self.graph.g.live_edges():
            ln = self.graph.g.length[eid]
            if ln < 1 or (ln & (ln - 1)) != 0 or ln > cap:
                raise ValueError(
                    f"edge {eid} length {ln} is not a power of 2 in [1, {cap}]"
                )

    def _new_record(self, members: set[int], start: int) -> int:
        cid = self._next_cid
        self._next_cid += 1
        rec = ClusterRecord(members=set(members), start=start, size=len(members))
        self.clusters[cid] = rec
        for v in members:
            self.cluster_of[v] = cid
        return cid

    def _d_x(self, size: int) -> float:
        return (size / self.n) * self.d

    def _is_leaf(self, size: int) -> bool:
        return size < 2 or self._d_x(size) < self.cnst.leaf_threshold(size)

    def _bank_cluster(self, rec: ClusterRecord) -> None:
        if rec.state is not None:
            self.stats["es_scans"] += rec.state.total_es_scans()

    def _resolve_pending(self) -> None:
        while self._pending:
            cid = self._pending.pop()
            rec = self.clusters[cid]
            if rec.size == 0:
                continue
            if self._is_leaf(rec.size):
                self._shatter(cid)
                continue
            self._spawn_state(cid)
            rec = self.clusters[cid]
            if rec.state is not None and rec.state.halted:
                self._bank_cluster(rec)
                rec.state = None
                self._pending.append(cid)

    def _spawn_state(self, cid: int) -> None:
        rec = self.clusters[cid]
        rec.d_star = max(1, math.floor(self._d_x(rec.size)))
        rec.origin_size = rec.size
        rec.local2global = sorted(rec.members)
        rec.global2local = {g: i for i, g in enumerate(rec.local2global)}
        side = ["L" if self.graph.is_left(g) else "R" for g in rec.local2global]
        core = CoreGraph(len(rec.local2global), side)
        for g in rec.local2global:
            for h in sorted(self.out_pairs[g]):
                if h in rec.members:
                    core.add_edge(rec.global2local[g], rec.global2local[h])
        sink = lambda st, em, cid=cid: self._on_cut(cid, em)
        rec.state = ClusterState(core, rec.d_star, self.delta, sink,
                                 cnst=self.cnst, checked=self.checked)

    # ----------------------------------------------------------- ATO updates

    def _on_cut(self, cid: int, emission) -> None:
        """Translate an emitted well-structured cut into an interval split."""
        rec = self.clusters[cid]
        self.stats["cuts"] += 1
        listed_glob = {rec.local2global[i] for i in emission.listed}
        rec.bad_edges += emission.crossing
        z_is_tail = emission.listed_is_tail_side
        # tail side goes right, head side goes left
        if z_is_tail:
            z_start = rec.start + rec.size - len(listed_glob)
            rem_start = rec.start
        else:
            z_start = rec.start
            rem_start = rec.start + len(listed_glob)
        rec.members -= listed_glob
        rec.size = len(rec.members)
        rec.start = rem_start
        new_cid = self._new_record(listed_glob, z_start)
        self.stats["splits"] += 1
        if self.dag is not None:
            self._split_supernode(cid, new_cid)
        self._pending.append(new_cid)
        if self.checked and self.dag is not None:
            self.dag.check_p1()

    def _shatter(self, cid: int) -> None:
        """Replace a leaf cluster by singletons, left side first."""
        rec = self.clusters[cid]
        self.stats["shatters"] += 1
        if rec.size == 1:
            rec.state = None
            return
        members = sorted(rec.members)
        lefts = [v for v in members if self.graph.is_left(v)]
        rights = [v for v in members if not self.graph.is_left(v)]
        order = lefts + rights
        # bad edges: the special pairs inside the cluster
        for u in rights:
            for h in self.out_pairs[u]:
                if h in rec.members:
                    rec.bad_edges += 1
        old_members = set(rec.members)
        keep = order[0]
        old_start = rec.start
        pos = {v: old_start + i for i, v in enumerate(order)}
        rec.members = {keep}
        rec.size = 1
        rec.start = pos[keep]
        rec.state = None
        new_cids: list[int] = []
        for v in order[1:]:
            new_cids.append(self._new_record({v}, pos[v]))
        if self.dag is not None:
            self._shatter_supernode(cid, new_cids, old_members, keep)
            if self.checked:
                self.dag.check_p1()

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
        self.copies: dict[int, dict[int, int]] = {}
        self.dag_payload: dict[int, tuple[int, int]] = {}
        for eid in self.graph.g.live_edges():
            u, v = self.graph.g.tail[eid], self.graph.g.head[eid]
            cu, cv = self.cluster_of[u], self.cluster_of[v]
            if cu == cv:
                continue
            skip = self._skip(u, v)
            per: dict[int, int] = {}
            for i in range(_min_exp(skip), self.max_exp + 1):
                deid = dag.add_edge(self.clusters[cu].sup, self.clusters[cv].sup,
                                    self.graph.g.length[eid], 1 << i)
                per[i] = deid
                self.dag_payload[deid] = (eid, i)
            self.copies[eid] = per
        dag.finalize()
        self.dag = dag
        if self.checked:
            dag.check_p1()

    def _interval(self, v: int) -> tuple[int, int]:
        """First and last position of the interval of v's cluster."""
        rec = self.clusters[self.cluster_of[v]]
        return rec.start, rec.start + rec.size - 1

    def _skip(self, u: int, v: int) -> int:
        (u_lo, u_hi), (v_lo, v_hi) = self._interval(u), self._interval(v)
        if u_hi < v_lo:
            return v_lo - u_hi
        return u_lo - v_hi

    def _span(self, u: int, v: int) -> int:
        (u_lo, u_hi), (v_lo, v_hi) = self._interval(u), self._interval(v)
        if u_lo > v_hi:  # right-to-left
            return u_hi - v_lo
        return 0

    def _edges_touching(self, verts: set[int]):
        seen = set()
        g = self.graph.g
        for v in verts:
            for eid in g.out_adj[v]:
                if g.alive[eid] and eid not in seen:
                    seen.add(eid)
                    yield eid
            for eid in g.in_adj[v]:
                if g.alive[eid] and eid not in seen:
                    seen.add(eid)
                    yield eid

    def _split_supernode(self, cid: int, new_cid: int) -> None:
        dag = self.dag
        if dag is None:
            raise AssertionError("contracted graph not built")
        rec = self.clusters[cid]
        new_rec = self.clusters[new_cid]
        zset = new_rec.members
        new_sup = dag.n
        new_rec.sup = new_sup
        g = self.graph.g
        specs: list[tuple[int, int, int, int]] = []
        meta: list[tuple[int, int]] = []
        replaced: dict[int, dict[int, int]] = {}
        touched = sorted(self._edges_touching(zset | rec.members))
        for eid in touched:
            u, v = g.tail[eid], g.head[eid]
            zu, zv = u in zset, v in zset
            if zu == zv:
                continue  # intra-Z pairs carry no copies; both-outside pruned below
            cu, cv = self.cluster_of[u], self.cluster_of[v]
            lo = _min_exp(self._skip(u, v))
            tail_sup = new_sup if zu else self.clusters[cu].sup
            head_sup = new_sup if zv else self.clusters[cv].sup
            replaced[eid] = {}
            for i in range(lo, self.max_exp + 1):
                specs.append((tail_sup, head_sup, g.length[eid], 1 << i))
                meta.append((eid, i))
        created = dag.split_vertex(rec.sup, [new_sup], specs)
        for (eid, i), deid in zip(meta, created):
            replaced[eid][i] = deid
            self.dag_payload[deid] = (eid, i)
        # drop the old copies of every edge with an endpoint in the new cluster
        for eid, per in replaced.items():
            for old_eid in self.copies.get(eid, {}).values():
                if dag.alive[old_eid]:
                    dag.delete_edge(old_eid)
            self.copies[eid] = per
        # skips may have grown for every edge touching the old cluster
        for eid in touched:
            if eid not in replaced:
                self._prune_edge(eid)

    def _prune_edge(self, eid: int) -> None:
        dag = self.dag
        if dag is None:
            raise AssertionError("contracted graph not built")
        g = self.graph.g
        u, v = g.tail[eid], g.head[eid]
        if self.cluster_of[u] == self.cluster_of[v]:
            return
        lo = _min_exp(self._skip(u, v))
        per = self.copies.get(eid)
        if not per:
            return
        for i in sorted(per):
            if i < lo:
                deid = per.pop(i)
                if dag.alive[deid]:
                    dag.delete_edge(deid)

    def _shatter_supernode(self, cid: int, new_cids: list[int],
                           old_members: set[int], keep: int) -> None:
        dag = self.dag
        if dag is None:
            raise AssertionError("contracted graph not built")
        g = self.graph.g
        rec = self.clusters[cid]
        for offset, nc in enumerate(new_cids):
            self.clusters[nc].sup = dag.n + offset
        new_ids = [self.clusters[nc].sup for nc in new_cids]
        sup_of_vertex = {keep: rec.sup}
        for nc in new_cids:
            (v,) = self.clusters[nc].members
            sup_of_vertex[v] = self.clusters[nc].sup
        specs: list[tuple[int, int, int, int]] = []
        meta: list[tuple[int, int]] = []
        moved: dict[int, dict[int, int]] = {}
        for eid in sorted(self._edges_touching(old_members)):
            u, v = g.tail[eid], g.head[eid]
            in_u, in_v = u in old_members, v in old_members
            skip = self._skip(u, v)
            lo = _min_exp(skip)
            if in_u and in_v:
                tail_sup, head_sup = sup_of_vertex[u], sup_of_vertex[v]
            elif in_u:
                if u == keep:
                    continue  # keeps its old copies; pruned after
                tail_sup = sup_of_vertex[u]
                head_sup = self.clusters[self.cluster_of[v]].sup
            else:
                if v == keep:
                    continue
                tail_sup = self.clusters[self.cluster_of[u]].sup
                head_sup = sup_of_vertex[v]
            moved[eid] = {}
            for i in range(lo, self.max_exp + 1):
                specs.append((tail_sup, head_sup, g.length[eid], 1 << i))
                meta.append((eid, i))
        created = dag.split_vertex(rec.sup, new_ids, specs)
        for (eid, i), deid in zip(meta, created):
            moved[eid][i] = deid
            self.dag_payload[deid] = (eid, i)
        for eid, per in moved.items():
            for old_eid in self.copies.get(eid, {}).values():
                if dag.alive[old_eid]:
                    dag.delete_edge(old_eid)
            self.copies[eid] = per
        for eid in sorted(self._edges_touching(old_members)):
            self._prune_edge(eid)

    # ---------------------------------------------------------------- queries

    def _flush_rebuilds(self) -> None:
        for cid in sorted(self.clusters):
            rec = self.clusters[cid]
            if rec.state is not None and rec.state.needs_rebuild:
                rec.state.flush_rebuild()
                if rec.state.halted:
                    self._bank_cluster(rec)
                    rec.state = None
                    self._pending.append(cid)
        self._resolve_pending()

    def _cheapest_copy(self, u: int, v: int) -> int:
        best = None
        for eid in self.pair_geids.get((u, v), ()):
            if self.graph.g.alive[eid]:
                key = (self.graph.g.length[eid], eid)
                if best is None or key < best:
                    best = key
        if best is None:
            raise AssertionError(f"no alive copy for pair ({u},{v})")
        return best[1]

    def query(self):
        """Simple s-t path as (vertices, edge ids) with total length <= 8*lam,
        or None (FAIL)."""
        if self.failed:
            return None
        if self.queries_done >= self.delta:
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
            self.queries_done += 1
            self.stats["queries"] += 1
            verts, eids = result
            total = sum(self.graph.g.length[e] for e in eids)
            if total > 8 * self.lam:
                raise AssertionError(f"assembled path length {total} > 8*lambda")
            if total > 2 * self.lam:
                self.stats["over_2lam"] += 1
            self.last_path = set(eids)
            return result
        raise AssertionError("query retries exhausted")

    def _assemble(self, dag_path: list[int]):
        g = self.graph.g
        hops: list[tuple[int, int]] = [
            self.dag_payload[deid] for deid in dag_path
        ]
        verts: list[int] = [S_ID]
        eids: list[int] = []
        for j, (geid, _exp) in enumerate(hops):
            u, v = g.tail[geid], g.head[geid]
            if u != verts[-1]:
                seg = self._cluster_route(verts[-1], u)
                vs, es = seg
                if vs[0] != verts[-1] or vs[-1] != u:
                    raise AssertionError("cluster route does not join the hop endpoints")
                verts.extend(vs[1:])
                eids.extend(es)
            chosen = self._cheapest_copy(u, v)
            verts.append(v)
            eids.append(chosen)
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
        gverts = [rec.local2global[i] for i in lverts]
        geids = []
        for a, b in zip(gverts, gverts[1:]):
            geids.append(self._cheapest_copy(a, b))
        return gverts, geids

    def _dissolve(self, cid: int) -> None:
        """Emergency fallback: split a misbehaving cluster into singletons."""
        rec = self.clusters[cid]
        self._bank_cluster(rec)
        rec.state = None
        self._shatter(cid)
        self._resolve_pending()

    # --------------------------------------------------------------- deletion

    def delete_path_edges(self, eids: list[int]) -> None:
        bad = [e for e in eids if e not in self.last_path]
        if bad:
            raise ValueError(f"edges {bad} were not on the last returned path")
        g = self.graph.g
        per_cluster: dict[int, list[int]] = {}
        for eid in eids:
            u, v = g.tail[eid], g.head[eid]
            g.delete_edge(eid)
            for deid in list(self.copies.get(eid, {}).values()):
                if self.dag is not None and self.dag.alive[deid]:
                    self.dag.delete_edge(deid)
            self.copies.pop(eid, None)
            if g.length[eid] < self.long_threshold:
                self.short_mult[(u, v)] -= 1
                if self.short_mult[(u, v)] == 0:
                    del self.short_mult[(u, v)]
                    self.out_pairs[u].discard(v)
                    cu, cv = self.cluster_of[u], self.cluster_of[v]
                    if cu == cv:
                        rec = self.clusters[cu]
                        if rec.state is not None:
                            le = rec.state.core.pair_to_eid[
                                (rec.global2local[u], rec.global2local[v])
                            ]
                            per_cluster.setdefault(cu, []).append(le)
        self.last_path -= set(eids)
        for cid in sorted(per_cluster):
            rec = self.clusters[cid]
            if rec.state is None:
                continue
            rec.state.delete_edges(per_cluster[cid])
            if rec.state.halted:
                self._bank_cluster(rec)
                rec.state = None
                self._pending.append(cid)
        self._resolve_pending()
        if self.dag is not None:
            self.stats["dag_work"] = self.dag.work
        if self.checked:
            self.check_invariants()

    def work_counters(self) -> dict:
        es = self.stats["es_scans"]
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
        # skip monotone, span monotone for right-to-left edges
        g = self.graph.g
        for eid in g.live_edges():
            u, v = g.tail[eid], g.head[eid]
            if self.cluster_of[u] == self.cluster_of[v]:
                continue
            sk = self._skip(u, v)
            if eid in self._skip_floor and sk < self._skip_floor[eid]:
                raise AssertionError(f"skip decreased on edge {eid}")
            self._skip_floor[eid] = sk
            sp = self._span(u, v)
            if sp:
                if eid in self._span_ceiling and sp > self._span_ceiling[eid]:
                    raise AssertionError(f"span increased on edge {eid}")
                self._span_ceiling[eid] = sp
        if self.dag is not None:
            self.dag.check_p1()


class ReferenceSssp:
    """Plain decremental shortest path: Dijkstra per query, FAIL iff
    dist(s,t) > 8*lambda.  Meets the restricted-SSSP contract exactly."""

    def __init__(self, graph: WellStructuredGraph, delta: int, m_param: int,
                 cnst: Constants | None = None, lam: int | None = None,
                 checked: bool = False):
        self.graph = graph
        self.delta = delta
        self.lam = lam if lam is not None else raw_lambda(max(2, m_param), delta)
        self.queries_done = 0
        self.failed = False
        self.last_path: set[int] = set()
        self.stats = {"queries": 0, "fails": 0}

    def query(self):
        if self.failed:
            return None
        if self.queries_done >= self.delta:
            raise ValueError("query budget exhausted")
        g = self.graph.g
        dist: list[float] = [INF] * g.n
        best_edge: list[int | None] = [None] * g.n
        dist[S_ID] = 0
        heap = [(0, S_ID)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for eid in g.out_adj[u]:
                if not g.alive[eid]:
                    continue
                v = g.head[eid]
                nd = d + g.length[eid]
                if nd < dist[v] or (nd == dist[v] and best_edge[v] is not None
                                    and eid < best_edge[v]):
                    dist[v] = nd
                    best_edge[v] = eid
                    heapq.heappush(heap, (nd, v))
        if dist[T_ID] > 8 * self.lam:
            self.failed = True
            self.stats["fails"] += 1
            return None
        verts = [T_ID]
        eids: list[int] = []
        while verts[-1] != S_ID:
            eid = best_edge[verts[-1]]
            if eid is None:
                raise AssertionError(f"reached vertex {verts[-1]} has no parent edge")
            eids.append(eid)
            verts.append(g.tail[eid])
        verts.reverse()
        eids.reverse()
        self.queries_done += 1
        self.stats["queries"] += 1
        self.last_path = set(eids)
        return verts, eids

    def delete_path_edges(self, eids: list[int]) -> None:
        bad = [e for e in eids if e not in self.last_path]
        if bad:
            raise ValueError(f"edges {bad} were not on the last returned path")
        for eid in eids:
            self.graph.g.delete_edge(eid)
        self.last_path -= set(eids)
