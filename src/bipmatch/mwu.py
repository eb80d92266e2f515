"""Multiplicative-weights path collection on a residual graph.

Each residual edge stands for parallel copies of lengths 1, 2, 4, ... (the
length-doubling dual exposed as deletions: using an edge deletes its
cheapest surviving copy, so its length doubles).  Both backends keep the
copies implicit as one current length per residual edge, speak residual
edge ids, and never write to the residual graph.  A restricted-SSSP backend
supplies s-t paths of scaled length at most 8*lambda until it legally fails,
at which point the collected paths are returned.  With a
contract-conforming backend the collection has size at least
Delta/(128*log2 m) and no edge appears on more than ceil(log2 m) paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constants import Constants, doubling_levels, log2c, mwu_lambda
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


def build_doubling_graph(h: WellStructuredGraph, lam: int) -> WellStructuredGraph:
    """Expand every edge of h, which has no deleted edges, into parallel
    power-of-two length copies: doubling_levels(lam) of them, copy j of
    edge eid with length 2^j and id eid*levels + j.

    The pipeline never builds it; it is the materialised oracle that tests
    run the implicit lengths of both backends against."""
    levels = doubling_levels(lam)
    hat = WellStructuredGraph(h.n_left, h.n_right)
    for eid in h.live_edges():
        u, v = h.tail[eid], h.head[eid]
        for j in range(levels):
            hat.add_edge(u, v, length=1 << j)
    return hat


def mwu_run(h: WellStructuredGraph, delta: int, backend: str = "reference",
            cnst: Constants | None = None, checked: bool = False) -> MwuResult:
    """Collect s-t paths of MWU length at most 1 until the backend legally fails."""
    cnst = cnst or Constants.desk()
    m = h.live_m
    if m != len(h.tail):
        raise ValueError("the residual graph has deleted edges; the backends need a fresh one")
    gate = cnst.mwu_gate(m)
    if delta < gate:
        raise ValueError(
            f"Delta={delta} below the configured MWU gate {gate}; use the exact fallback"
        )
    lam = mwu_lambda(m, delta)
    delta_eff = min(delta, h.n)
    if backend == "reference":
        sssp = ReferenceSssp(h, delta_eff, lam=lam)
    elif backend == "full":
        sssp = RestrictedSssp(h, delta_eff, cnst=cnst, lam=lam, checked=checked)
    else:
        raise ValueError(f"unknown backend {backend!r}")

    usage_cap = log2c(m)
    usage: dict[int, int] = {}
    paths: list[list[int]] = []
    vertex_paths: list[list[int]] = []
    budget = 8 * lam
    while sssp.stats["queries"] < delta_eff:
        res = sssp.query()
        if res is None:
            break
        verts, res_edges = res
        total = sum(sssp.length[e] for e in res_edges)
        if total > budget:
            raise AssertionError(f"backend returned a path of length {total} > 8*lambda")
        for eid in res_edges:
            usage[eid] = usage.get(eid, 0) + 1
            if usage[eid] > usage_cap:
                raise AssertionError(
                    f"edge {eid} used {usage[eid]} times, above ceil(log2 m) = {usage_cap}"
                )
        paths.append(res_edges)
        vertex_paths.append(verts)
        sssp.delete_path_edges(res_edges)
    return MwuResult(
        paths=paths,
        vertex_paths=vertex_paths,
        usage=usage,
        lam=lam,
        m=m,
        warned_no_path=not paths,
        backend_stats={**sssp.stats, **sssp.work_counters()},
    )


def mwu_yield_floor(delta: int, m: int) -> float:
    """The guaranteed collection size with a contract-conforming oracle."""
    return delta / (128 * log2c(m))
