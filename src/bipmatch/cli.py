"""Benchmark harness: generate or load bipartite instances, run matching
algorithms, capture work counters, emit CSV rows.

Exit codes: 0 ok, 1 verification failure, 2 usage, I/O or internal error.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from .constants import Constants
from .driver import BACKENDS, DriverConfig, max_matching
from .graph_core import BipartiteGraph, parse_graph_text
from .oracles import ford_fulkerson_matching, hopcroft_karp

CSV_HEADER = ("generator,seed,n_left,n_right,m,algo,backend,matching,wall_ms,"
              "phases,paths,cuts,max_congestion,es_scans,dag_work,fallbacks,"
              "exact_augments,verified,shatters,cluster_queries,clusters_spawned")
COLUMNS = CSV_HEADER.split(",")
# every column after wall_ms except verified is a per-run counter
COUNTERS = [c for c in COLUMNS[COLUMNS.index("wall_ms") + 1:] if c != "verified"]
ALGOS = ("hk", "ff", "paper")


def generate(kind: str, params: dict, seed: int) -> BipartiteGraph:
    """Deterministic instance generator."""
    rng = random.Random(seed)
    if kind == "random-gnp":
        nl = params.get("n", 16)
        nr = nl if params.get("n2") is None else params["n2"]
        p = params.get("p", 0.1)
        edges = tuple((u, v) for u in range(nl) for v in range(nr)
                      if rng.random() < p)
        return BipartiteGraph(nl, nr, edges)
    if kind == "regular":
        n = params.get("n", 16)
        deg = min(params.get("deg", 3), n)
        edges = tuple((u, (u + j) % n) for u in range(n) for j in range(deg))
        return BipartiteGraph(n, n, edges)
    if kind == "disjoint-paths":
        k = params.get("paths", params.get("n", 8))
        plen = params.get("plen", 1)
        if plen < 1:
            raise ValueError("path length must be >= 1")
        edges = []
        nl = nr = 0
        for _ in range(k):
            # an undirected path with plen edges, alternating sides
            lbase, rbase = nl, nr
            lcount = (plen + 2) // 2
            rcount = (plen + 1) // 2
            for j in range(plen):
                edges.append((lbase + (j + 1) // 2, rbase + j // 2))
            nl += lcount
            nr += rcount
        return BipartiteGraph(nl, nr, tuple(edges))
    if kind == "two-blocks":
        k = params.get("n", 16)
        p = params.get("p", 0.4)
        bridges = params.get("bridges", 2)
        edges = set()
        for u in range(k):
            for v in range(k):
                if rng.random() < p:
                    edges.add((u, v))
                if rng.random() < p:
                    edges.add((k + u, k + v))
        for _ in range(bridges):
            edges.add((rng.randrange(k), k + rng.randrange(k)))
        return BipartiteGraph(2 * k, 2 * k, tuple(sorted(edges)))
    raise ValueError(f"unknown generator {kind!r}")


def _run_one(g: BipartiteGraph, algo: str, backend: str, cnst: Constants,
             target: int | None, trace: bool):
    t0 = time.perf_counter()
    counters = dict.fromkeys(COUNTERS, 0)
    if algo == "hk":
        matching, phases = hopcroft_karp(g)
        counters["phases"] = phases
    elif algo == "ff":
        matching = ford_fulkerson_matching(g)
    else:  # paper
        cfg = DriverConfig(constants=cnst, backend=backend, target=target)
        matching, report = max_matching(g, cfg)
        counters.update((k, v) for k, v in report.backend_stats.items() if k in counters)
        counters.update(phases=report.phase_count(),
                        paths=sum(p.rounded for p in report.phases),
                        max_congestion=report.max_congestion,
                        fallbacks=report.fallback_phases,
                        exact_augments=report.exact_augmentations)
        if trace:
            for i, ph in enumerate(report.phases):
                print(f"# phase {i}: delta={ph.delta} collected={ph.collected} "
                      f"rounded={ph.rounded} fallback={ph.fallback} "
                      f"{ph.millis:.1f}ms", file=sys.stderr)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return matching, wall_ms, counters


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="bipmatch-bench",
                                 description="bipartite matching benchmark harness")
    ap.add_argument("--algo", default="paper", help="comma list of hk,ff,paper")
    ap.add_argument("--backend", default="reference", choices=BACKENDS)
    ap.add_argument("--constants", help="key=value constants file")
    ap.add_argument("--gen", help="random-gnp | regular | disjoint-paths | two-blocks")
    ap.add_argument("--n", type=int, default=16)
    ap.add_argument("--n2", type=int)
    ap.add_argument("--p", type=float, default=0.1)
    ap.add_argument("--deg", type=int, default=3)
    ap.add_argument("--paths", type=int)
    ap.add_argument("--plen", type=int, default=1)
    ap.add_argument("--bridges", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=1, help="instances, seeds seed..seed+count-1")
    ap.add_argument("--in", dest="infile", help="graph file (p bm format)")
    ap.add_argument("--csv", help="write CSV here ('-' for stdout)")
    ap.add_argument("--target", type=int)
    ap.add_argument("--verify", action="store_true",
                    help="check that every matched pair is a graph edge and the size "
                         "matches the Hopcroft-Karp oracle")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    algos = [a.strip() for a in args.algo.split(",") if a.strip()]
    if not algos or any(a not in ALGOS for a in algos):
        print(f"error: --algo takes a comma list of {','.join(ALGOS)}, got {args.algo!r}",
              file=sys.stderr)
        return 2
    if args.count < 1:
        print(f"error: --count must be at least 1, got {args.count}", file=sys.stderr)
        return 2

    try:
        cnst = Constants.from_file(args.constants) if args.constants else Constants.desk()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    instances: list[tuple[str, int, BipartiteGraph]] = []
    try:
        if args.infile:
            with open(args.infile, "r", encoding="utf-8") as fh:
                instances.append(("file", 0, parse_graph_text(fh.read())))
        elif args.gen:
            params = {"n": args.n, "n2": args.n2, "p": args.p, "deg": args.deg,
                      "paths": args.paths, "plen": args.plen, "bridges": args.bridges}
            params = {k: v for k, v in params.items() if v is not None}
            for i in range(args.count):
                instances.append((args.gen, args.seed + i,
                                  generate(args.gen, params, args.seed + i)))
        else:
            print("error: need --gen or --in", file=sys.stderr)
            return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = [CSV_HEADER]
    ok = True
    try:
        for gen_name, seed, g in instances:
            oracle_size = None
            if args.verify:
                oracle_size = len(hopcroft_karp(g)[0])
            for algo in algos:
                matching, wall_ms, counters = _run_one(
                    g, algo, args.backend, cnst, args.target, args.trace
                )
                verified = ""
                if args.verify:
                    # only paper reads --target; it stops at that size
                    expect = oracle_size if args.target is None or algo != "paper" \
                        else min(oracle_size, args.target)
                    try:
                        matching.validate(g)
                        problem = "" if len(matching) == expect else \
                            f"got {len(matching)} expected {expect}"
                    except ValueError as exc:  # a matched pair is not an edge
                        problem = str(exc)
                    verified = "NO" if problem else "yes"
                    if problem:
                        ok = False
                        print(f"verification FAILED: {gen_name} seed={seed} algo={algo} "
                              f"{problem}", file=sys.stderr)
                row = dict(counters, generator=gen_name, seed=seed, n_left=g.n_left,
                           n_right=g.n_right, m=len(g.edges), algo=algo,
                           backend=args.backend if algo == "paper" else "",
                           matching=len(matching), wall_ms=f"{wall_ms:.2f}",
                           verified=verified)
                rows.append(",".join(str(row[c]) for c in COLUMNS))
    except Exception as exc:  # any failure of a run or of the oracle is exit 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    text = "\n".join(rows) + "\n"
    if args.csv == "-":
        sys.stdout.write(text)
    elif args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
