"""Decremental approximate s-t shortest paths on weighted DAG-like graphs.

Maintains, under edge deletions, length increases, weight-class raises and
vertex splits, per-vertex distance estimates that are multiples of eps, a
shortest-path out-tree from the source, per-vertex in-neighbor heaps and
weight-bucketed out-neighbor sets.
A vertex re-communicates its estimate to a weight-2^i out-neighbor only when
the estimate crosses a multiple of eps^2*ceil(d*2^i/(Gamma*log n)), which is
what caps the total update work.

Everything is stored as integers scaled by 1/eps^2: modified lengths are
k^2*len + k*T_i with k = 1/eps and T_i = ceil(d*2^i/(Gamma*log n)), so
estimates move in steps of k and notification thresholds are exact multiples
of T_i.  No floating point is used anywhere in the update path.

A query returns the tree path (original total length at most (1+10eps)*d)
or FAIL; FAIL is permanent and only legal when no s-t path has both total
length <= d and total weight <= Gamma.

The graph is built in bulk before finalize (add_edges appends a whole list
of edges; finalize fills each in-edge heap and heapifies it once).  Every
update only raises estimates, so several changes can share one update:
increase_lengths lengthens (or raises the class of) a batch of edges, such
as all those of a deleted path, split_vertex drops its temporary edges,
and each then settles the queue once.
"""

from __future__ import annotations

import heapq
import math

from .constants import log2c
from .graph_core import DirectedGraph, dijkstra_tree, edge_chain

INF = math.inf


class DagSssp(DirectedGraph):
    """The contracted graph, built on DirectedGraph: length holds the original
    (untransformed) lengths, lprime the k^2-scaled modified ones, and
    out_by_class[u][i] the live out-edges of u with weight 2^i."""

    def __init__(self, s: int, t: int, d: int, eps_inv: int, gamma: int,
                 n_hint: int, checked: bool = False):
        if eps_inv < 8:
            raise ValueError("1/eps must be an integer >= 8")
        if d <= 0 or gamma <= 0:
            raise ValueError("d and Gamma must be positive")
        self.s = s
        self.t = t
        self.k = eps_inv
        self.gamma = gamma
        self.d_original = d
        self.n_hint = max(2, n_hint)
        self.logn = log2c(self.n_hint)
        self.max_class = max(1, math.ceil(math.log2(self.n_hint)))
        self.checked = checked

        # initial length transformation: ensure Gamma*logn <= d <= max(4n/eps, 4*Gamma*logn)
        k = self.k
        if d > self.n_hint * k:
            self.c1 = -(-d // (self.n_hint * k))
            d = ((k + 2) * d) // (k * self.c1)
        else:
            self.c1 = 1
        if d < gamma * self.logn:
            self.c2 = -(-(gamma * self.logn) // d)
            d = self.c2 * d
        else:
            self.c2 = 1
        self.d = d
        self.cap = 2 * d * k * k                      # estimates beyond this become INF
        self.fail_threshold = d * k * k + 3 * d * k   # (1+3eps)*d, scaled
        self.thresholds = [
            -(-(d * (1 << i)) // (gamma * self.logn)) for i in range(self.max_class + 1)
        ]

        super().__init__(0)
        self.lprime: list[int] = []     # k^2-scaled modified length
        self.out_by_class: list[dict[int, set[int]]] = []

        self.est: list[float] = []
        self.stale: list[float] = []    # per edge: tail's estimate as last told to head
        self.key_of: list[float] = []
        self.in_heap: list[list[tuple[float, int]]] = []
        self.parent_edge: list[int | None] = []
        self.children: list[set[int]] = []

        self.finalized = False
        self.failed = False
        self.work = 0
        self.m_counted = 0
        self._est_floor: list[float] = []  # for the monotonicity check
        self._q: list[tuple[float, int]] = []
        self._q_members: dict[int, float] = {}

    # ------------------------------------------------------------- building

    def add_vertex(self) -> int:
        vid = super().add_vertex()
        self.out_by_class.append({})
        self.est.append(INF)
        self.in_heap.append([])
        self.parent_edge.append(None)
        self.children.append(set())
        self._est_floor.append(0)
        return vid

    def _modified(self, length: int, cls: int) -> int:
        """The k^2-scaled modified length of a class-cls edge."""
        k = self.k
        return k * k * self.c2 * (-(-length // self.c1)) + k * self.thresholds[cls]

    def _class_of(self, weight: int) -> int:
        cls = weight.bit_length() - 1
        if weight <= 0 or (1 << cls) != weight or cls > self.max_class:
            raise ValueError(f"weight {weight} is not a power of 2 within range")
        return cls

    def _new_edges(self, specs, temp: bool = False) -> range:
        """Append the (tail, head, length, weight) specs in one bulk pass;
        returns their edge ids in order."""
        if not specs:
            return range(len(self.tail), len(self.tail))
        tails, heads, lengths, weights = (list(col) for col in zip(*specs))
        class_of = {w: self._class_of(w) for w in set(weights)}
        classes = [class_of[w] for w in weights]
        eids = DirectedGraph.add_edges(self, tails, heads, lengths, weights)
        k = len(eids)
        # few distinct (length, class) pairs: transform each once
        pairs = list(zip(lengths, classes))
        modified = {pair: self._modified(*pair) for pair in set(pairs)}
        self.lprime += map(modified.__getitem__, pairs)
        out_by_class = self.out_by_class
        for eid, u, cls in zip(eids, tails, classes):
            bucket = out_by_class[u].get(cls)
            if bucket is None:
                out_by_class[u][cls] = {eid}
            else:
                bucket.add(eid)
        self.stale += [INF] * k
        self.key_of += [INF] * k
        if not temp:
            self.m_counted += k
        self.work += k
        return eids

    def add_edge(self, u: int, v: int, length: int, weight: int) -> int:
        return self.add_edges([(u, v, length, weight)])[0]

    def add_edges(self, specs) -> range:
        """Add the (tail, head, length, weight) specs as edges, before
        finalize, in one bulk pass; returns their ids in order."""
        if self.finalized:
            raise RuntimeError("edges may only be added before finalize or via splits")
        return self._new_edges(specs)

    def finalize(self) -> None:
        """Compute the first estimates and tree with one Dijkstra and fill
        every in-edge heap in bulk (one heapify per vertex)."""
        if self.finalized:
            raise RuntimeError("already finalized")
        try:
            self.check_p1()
        except AssertionError as exc:
            raise ValueError(f"input violates the bucket-degree property: {exc}")
        self.finalized = True
        dist, parent, scans = dijkstra_tree(self, self.s, self.lprime)
        self.work += scans
        est, tail = self.est, self.tail
        for v in range(self.n):
            est[v] = dist[v] if dist[v] <= self.cap else INF
            if v != self.s and est[v] is not INF:
                self.parent_edge[v] = parent[v]
                self.children[tail[parent[v]]].add(v)
        # as _set_key would, edge by edge; the (key, eid) entries are
        # distinct, so the heaps pop in the same order
        in_heap, head, alive, lprime = self.in_heap, self.head, self.alive, self.lprime
        stale, key_of = self.stale, self.key_of
        stale[:] = [est[u] for u in tail]
        pushed = 0
        for eid, e in enumerate(stale):
            if e is not INF and alive[eid]:
                key = key_of[eid] = e + lprime[eid]
                in_heap[head[eid]].append((key, eid))
                pushed += 1
        for h in in_heap:
            heapq.heapify(h)
        self.work += pushed
        if self.checked:
            self.check_invariants()

    # ------------------------------------------------------------ heap utils

    def _set_key(self, eid: int) -> None:
        if not self.alive[eid] or self.stale[eid] is INF:
            self.key_of[eid] = INF
            return
        key = self.stale[eid] + self.lprime[eid]
        self.key_of[eid] = key
        heapq.heappush(self.in_heap[self.head[eid]], (key, eid))
        self.work += 1

    def _heap_min(self, v: int):
        h = self.in_heap[v]
        while h:
            key, eid = h[0]
            if self.alive[eid] and self.key_of[eid] == key:
                return key, eid
            heapq.heappop(h)
            self.work += 1
        return INF, None

    # ---------------------------------------------------------  est raising

    def _notify(self, v: int, old: float, new: float) -> None:
        """Push v's new estimate to out-neighbors whose class threshold was crossed."""
        for cls, eids in self.out_by_class[v].items():
            t_i = self.thresholds[cls]
            if new is INF or old // t_i < new // t_i:
                for eid in sorted(eids):
                    self.work += 1
                    if not self.alive[eid]:
                        continue
                    self.stale[eid] = new
                    self._set_key(eid)
                    self._orphan_head(eid)

    def _enqueue(self, v: int) -> None:
        self._q_members[v] = self.est[v]
        heapq.heappush(self._q, (self.est[v], v))
        self.work += 1

    def _set_inf(self, v: int) -> None:
        old = self.est[v]
        self.est[v] = INF
        self._notify(v, old, INF)
        for c in sorted(self.children[v]):
            self.parent_edge[c] = None
            self._enqueue(c)
        self.children[v].clear()

    def _process_queue(self) -> None:
        """Reattach or retire every queued vertex.

        A vertex pops, looks at its cheapest in-edge key, and either attaches
        at its current estimate or jumps the estimate straight to that key
        (capped), firing all crossed notification thresholds in one batch.
        Tree keys strictly exceed their tail's estimate, so attaching through
        a still-dangling parent can never create a cycle and resolves itself
        when the parent moves.
        """
        q = self._q
        members = self._q_members
        while q:
            est_popped, a = heapq.heappop(q)
            self.work += 1
            if members.get(a) != est_popped or self.est[a] != est_popped:
                continue
            del members[a]
            while self.est[a] is not INF:
                key, eid = self._heap_min(a)
                if key <= self.est[a]:
                    if self.checked and key != self.est[a]:
                        raise AssertionError("attach below the current estimate")
                    if eid is None:
                        raise AssertionError(f"vertex {a} attached without an edge")
                    self.parent_edge[a] = eid
                    self.children[self.tail[eid]].add(a)
                    break
                new = min(key, self.cap + self.k)
                old = self.est[a]
                self.est[a] = new
                self._notify(a, old, new)
                if new > self.cap:
                    self._set_inf(a)
                    break

    # ------------------------------------------------------------ operations

    def _drop(self, eid: int) -> None:
        """Tombstone eid and queue its head if eid was the head's tree edge."""
        DirectedGraph.delete_edge(self, eid)
        self.key_of[eid] = INF
        self.out_by_class[self.tail[eid]][self.weight[eid].bit_length() - 1].discard(eid)
        self._orphan_head(eid)

    def _orphan_head(self, eid: int) -> None:
        """Queue eid's head if eid is the head's tree edge."""
        v = self.head[eid]
        if self.parent_edge[v] == eid:
            self.parent_edge[v] = None
            self.children[self.tail[eid]].discard(v)
            self._enqueue(v)

    def _update(self, change) -> None:
        """Apply change(), which may only raise estimates, then settle the queue."""
        if not self.finalized:
            raise RuntimeError("finalize first")
        self._q = []
        self._q_members = {}
        change()
        self.work += 1
        self._process_queue()
        if self.checked:
            self.check_invariants()

    def delete_edge(self, eid: int) -> None:
        self._update(lambda: self._drop(eid))

    def increase_lengths(self, updates: list[tuple[int, ...]]) -> None:
        """Raise each live edge of the (eid, length) or (eid, length, weight)
        updates to the original length and power-of-two weight given, as one
        update; neither may fall, nor a class pass max_class.  Estimates only
        rise, so a batch is as legal as a deletion: all updates are checked,
        then applied, and the queue is settled once.  A raised edge moves to
        its new out_by_class bucket and is notified afresh, because the new
        class's thresholds need not fall where the old one's did."""
        new: dict[int, tuple[int, int]] = {}
        for eid, length, *weight in updates:
            old_length, old_weight = new.get(eid, (self.length[eid], self.weight[eid]))
            w = weight[0] if weight else old_weight
            self._class_of(w)
            if not self.alive[eid] or length < old_length or w < old_weight:
                raise ValueError(f"edge {eid} is dead or would get shorter or lighter")
            new[eid] = (length, w)

        def lengthen() -> None:
            for eid, (length, weight) in new.items():
                cls = weight.bit_length() - 1
                if weight != self.weight[eid]:
                    u = self.tail[eid]
                    self.out_by_class[u][self.weight[eid].bit_length() - 1].discard(eid)
                    self.out_by_class[u].setdefault(cls, set()).add(eid)
                    self.weight[eid] = weight
                    self.stale[eid] = self.est[u]
                self.length[eid] = length
                self.lprime[eid] = self._modified(length, cls)
                self._set_key(eid)
                self._orphan_head(eid)
        self._update(lengthen)

    def split_vertex(self, v: int, new_ids: list[int],
                     specs: list[tuple[int, int, int, int]]) -> list[int]:
        """Split new_ids off from v; specs are (tail, head, length, weight).

        Every described edge either joins two members of {v}+new_ids, or
        mirrors a live edge between v and an outside vertex with identical
        length and weight.  An edge whose weight class rises as it moves
        off v is raised first, with increase_lengths, so that its mirror
        matches exactly.  Returns the created edge ids, in input order.
        """
        if not self.finalized:
            raise RuntimeError("finalize first")
        if v in (self.s, self.t):
            raise ValueError("cannot split the source or sink")
        group = set(new_ids) | {v}
        for u in new_ids:
            if u != self.n:
                raise ValueError("new vertex ids must be allocated in order")
            self.add_vertex()
            self.est[u] = self.est[v]
            self._est_floor[u] = 0 if self.est[v] is INF else self.est[v]

        temp_ids: list[int] = []
        if self.est[v] is not INF:
            pe = self.parent_edge[v]
            if pe is None:
                raise AssertionError(f"vertex {v} has an estimate but no parent edge")
            x = self.tail[pe]
            for u in new_ids:
                te = self._new_edges([(x, u, self.length[pe], self.weight[pe])], temp=True)[0]
                self.stale[te] = self.stale[pe]
                self._set_key(te)
                self.parent_edge[u] = te
                self.children[x].add(u)
                temp_ids.append(te)

        created: list[int] = []
        for a, b, length, weight in specs:
            if a in group and b in group:
                stale = self.est[a]
            elif a in group or b in group:
                outside = a if b in group else b
                stale = self.stale[self._find_mirror(outside, v, length, weight,
                                                     incoming=b in group)]
            else:
                raise ValueError("a described edge does not touch the split group")
            eid = self._new_edges([(a, b, length, weight)])[0]
            self.stale[eid] = stale
            self._set_key(eid)
            created.append(eid)

        def drop_temps() -> None:
            for te in temp_ids:
                self._drop(te)
        self._update(drop_temps)
        return created

    def _find_mirror(self, outside: int, v: int, length: int, weight: int,
                     incoming: bool) -> int:
        adj, far = (self.in_adj[v], self.tail) if incoming else (self.out_adj[v], self.head)
        cands = [e for e in adj if self.alive[e] and far[e] == outside
                 and self.length[e] == length and self.weight[e] == weight]
        if not cands:
            raise ValueError("vertex-split edge has no mirror in the current graph")
        return min(cands)

    # --------------------------------------------------------------- queries

    def path_query(self):
        """Tree path s..t as edge ids, or None (permanent FAIL)."""
        if self.failed or self.est[self.t] > self.fail_threshold:
            self.failed = True
            return None
        eids = edge_chain(self.parent_edge, self.tail, self.s, self.t)
        if self.checked:
            total = self.path_length(eids)
            k = self.k
            if total * 10 * k > (10 * k + 100) * self.d_original:
                raise AssertionError("query path exceeds (1+10eps)*d")
        return eids

    def path_length(self, eids: list[int]) -> int:
        return sum(self.length[e] for e in eids)

    def work_budget(self) -> int:
        n = self.n
        return 16 * self.k * self.k * (n * n + self.m_counted + self.gamma * n)

    # ------------------------------------------------------------ invariants

    def check_invariants(self) -> None:
        k = self.k
        # I1: estimates are multiples of eps and never decrease
        for v in range(self.n):
            e = self.est[v]
            if e is not INF:
                if e % k != 0:
                    raise AssertionError(f"est[{v}]={e} not a multiple of eps")
                if e < self._est_floor[v]:
                    raise AssertionError(f"est[{v}] decreased")
                self._est_floor[v] = e
            else:
                self._est_floor[v] = self.cap
        # I2: tree keys; I3: staleness bounds
        for v in range(self.n):
            pe = self.parent_edge[v]
            if pe is not None:
                if not self.alive[pe]:
                    raise AssertionError("tree edge is dead")
                key = self.stale[pe] + self.lprime[pe]
                if key != self.est[v]:
                    raise AssertionError(f"tree key mismatch at {v}")
                best = INF
                for eid in self.in_adj[v]:
                    if self.alive[eid] and self.stale[eid] is not INF:
                        best = min(best, self.stale[eid] + self.lprime[eid])
                if best < key:
                    raise AssertionError(f"tree edge at {v} is not the heap minimum")
        for eid in range(len(self.tail)):
            if not self.alive[eid]:
                continue
            u = self.tail[eid]
            t_i = self.thresholds[self.weight[eid].bit_length() - 1]
            if self.est[u] is INF:
                if self.stale[eid] is not INF:
                    raise AssertionError("stale finite while estimate infinite")
            else:
                if self.stale[eid] is INF or not (
                    self.est[u] - t_i <= self.stale[eid] <= self.est[u]
                ):
                    raise AssertionError(f"staleness bound violated on edge {eid}")
        # I4/I5 against exact distances over modified lengths
        dist = dijkstra_tree(self, self.s, self.lprime)[0]
        for v in range(self.n):
            if dist[v] <= self.cap:
                if self.est[v] is INF or self.est[v] > dist[v]:
                    raise AssertionError(f"estimate above true distance at {v}")
            if dist[v] is not INF and self.est[v] is not INF:
                if k * self.est[v] < (k - 1) * dist[v]:
                    raise AssertionError(f"estimate below (1-eps)*dist at {v}")
            if self.est[v] is not INF and v != self.s:
                # tree path length within est/(1-eps)
                total = sum(self.lprime[e] for e in
                            edge_chain(self.parent_edge, self.tail, self.s, v))
                if total * (k - 1) > self.est[v] * k:
                    raise AssertionError(f"tree path too long at {v}")

    def check_p1(self) -> None:
        for v in range(self.n):
            if v == self.t:
                continue
            for cls, eids in self.out_by_class[v].items():
                if len(eids) <= (1 << (cls + 2)):
                    continue  # too few edges for too many heads
                heads = {self.head[e] for e in eids if self.alive[e]}
                if len(heads) > (1 << (cls + 2)):
                    raise AssertionError(
                        f"P1 violated at vertex {v} class {cls}: {len(heads)}"
                    )
