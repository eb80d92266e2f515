"""Multiplicative-weights path collection on a residual graph.

Each residual edge is expanded into parallel copies of lengths 1, 2, 4, ...
(the length-doubling dual exposed as deletions: using an edge deletes its
cheapest surviving copy).  A restricted-SSSP backend supplies s-t paths of
scaled length at most 8*lambda until it legally fails, at which point the
collected paths are returned.  With a contract-conforming backend the
collection has size at least Delta/(128*log2 m) and no edge appears on more
than ceil(log2 m) paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constants import Constants, log2c, mwu_lambda, next_pow2
from .graph_core import WellStructuredGraph
from .restricted_sssp import ReferenceSssp, RestrictedSssp


@dataclass
class MwuResult:
    paths: list[list[int]]          # residual edge ids per collected path
    vertex_paths: list[list[int]]
    usage: dict[int, int]           # per residual edge
    lam: int
    m: int
    warned_no_path: bool = False
    backend_stats: dict = field(default_factory=dict)

    def max_usage(self) -> int:
        return max(self.usage.values(), default=0)


def build_doubling_graph(h: WellStructuredGraph, lam: int):
    """Expand every live edge into parallel power-of-two length copies.

    Returns (hat_graph, parent) where parent maps each copy to its residual
    edge id.  Copy lengths run 1, 2, ..., N' with N' the smallest power of
    two exceeding 8*lam, so a scaled length of 8*lam corresponds to original
    MWU length 1.
    """
    n_big = next_pow2(8 * lam + 1)
    levels = n_big.bit_length()  # copies at 2^0 .. 2^(levels-1) = n_big
    hat = WellStructuredGraph(h.n_left, h.n_right, size_m=max(2, h.g.live_m))
    parent: list[int] = []
    for eid in h.g.live_edges():
        u, v = h.g.tail[eid], h.g.head[eid]
        for j in range(levels):
            hat.add_edge(u, v, length=1 << j, special=h.special[eid])
            parent.append(eid)
    return hat, parent


def mwu_run(h: WellStructuredGraph, delta: int, backend: str = "reference",
            cnst: Constants | None = None, checked: bool = False) -> MwuResult:
    """Collect s-t paths of MWU length at most 1 until the backend legally fails."""
    cnst = cnst or Constants.desk()
    m = h.g.live_m
    if m < 2:
        return MwuResult([], [], {}, lam=1, m=max(2, m), warned_no_path=True)
    gate = cnst.mwu_gate(m)
    if delta < gate:
        raise ValueError(
            f"Delta={delta} below the configured MWU gate {gate}; use the exact fallback"
        )
    lam = mwu_lambda(m, delta)
    hat, parent = build_doubling_graph(h, lam)
    delta_eff = min(delta, hat.n)
    if backend == "reference":
        sssp = ReferenceSssp(hat, delta_eff, m, lam=lam)
    elif backend == "full":
        sssp = RestrictedSssp(hat, delta_eff, m, cnst=cnst, lam=lam, checked=checked)
    else:
        raise ValueError(f"unknown backend {backend!r}")

    usage_cap = log2c(m)
    usage: dict[int, int] = {}
    paths: list[list[int]] = []
    vertex_paths: list[list[int]] = []
    budget = 8 * lam
    while sssp.queries_done < delta_eff:
        res = sssp.query()
        if res is None:
            break
        verts, copy_ids = res
        total = sum(hat.g.length[c] for c in copy_ids)
        if total > budget:
            raise AssertionError(f"backend returned a path of length {total} > 8*lambda")
        res_edges = [parent[c] for c in copy_ids]
        for eid in res_edges:
            usage[eid] = usage.get(eid, 0) + 1
            if usage[eid] > usage_cap:
                raise AssertionError(
                    f"edge {eid} used {usage[eid]} times, above ceil(log2 m) = {usage_cap}"
                )
        paths.append(res_edges)
        vertex_paths.append(verts)
        sssp.delete_path_edges(copy_ids)
    backend_stats = dict(getattr(sssp, "stats", {}))
    if hasattr(sssp, "work_counters"):
        backend_stats.update(sssp.work_counters())
    return MwuResult(
        paths=paths,
        vertex_paths=vertex_paths,
        usage=usage,
        lam=lam,
        m=m,
        warned_no_path=not paths,
        backend_stats=backend_stats,
    )


def mwu_yield_floor(delta: int, m: int) -> float:
    """The guaranteed collection size with a contract-conforming oracle."""
    return delta / (128 * log2c(m))
