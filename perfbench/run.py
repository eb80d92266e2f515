"""End-to-end and per-layer benchmark for bipmatch.

Run one workload in this process, from the repository root:

    python3 perfbench/run.py --workload gnp-dense --seed 0 --seconds 40 --trace 0

or every workload, each in its own fresh process, one after another:

    python3 perfbench/run.py --all --seed 0

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json`` (40).

A run sets its instances up (generation, the ``p bm`` write/parse round
trip, warm-start matchings), then solves the instance list in passes until
``--seconds`` would be exceeded.  After each solve it times single
Hopcroft-Karp calls on every instance, so each instance's baseline samples
are spread over the whole run.  ``solve_s`` sums, over the instances, the
median solve time of each instance in the run; ``hk_s`` sums the fastest
Hopcroft-Karp call of each.  After each untraced pass the run also sets the
workload up in fresh processes, as many as are due so that 16 are spread
over the run, each timed from its start to the end of its set-up; ``setup_s``
is the median of these, so it samples the same stretch of time as the solves.

End-to-end times are CPU seconds of the single-threaded, I/O-free process
that does the work (``time.process_time``), not wall seconds: on a virtual machine whose host is
shared, wall time also counts the stretches in which the host runs other
guests, and these come and go for minutes at a time.  Load on the shared
cores also slows the process itself, by up to half for tens of seconds.  A
solve lasts long enough to average over that load, so its median over many
solves is the steadier figure; a Hopcroft-Karp call lasts under a
millisecond, and its median follows the load while its fastest sample,
taken from many spread over the run, does not.

Every solve is checked for exactness by
``checker.py``, which shares no code with the library.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics, taken from spans recorded
around calls into the library (``spans.py``).  A full report with run
metadata (and, when tracing, the spans of the first traced pass) is written
to ``perfbench/out/``.  The exit code is nonzero if any solve raised or
failed the check.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from checker import matching_errors
from inputs import drop_pairs, gnp_edges, long_path_edges
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9      # in-process set-ups of a traced run, for parse_s
SETUP_PROBES = 16      # fresh-process set-ups per untraced run, spread over it
WARM_REPAIR_DROP = 4
WARM_REPAIR_CONSTANTS = {"mwu_gate_coeff": 0.25}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str            # "gnp" | "long-path"
    count: int           # instances per seed
    hk_reps: int         # timed Hopcroft-Karp calls per instance per pass
    n: int = 0
    p: float = 0.0
    pairs: int = 0
    warm_repair: bool = False


WORKLOADS = {
    w.name: w for w in [
        Workload("gnp-dense", "G(n,p) n=120/side p=0.1, 6 instances; one MWU phase "
                 "collects ~120 paths, so rounding, MWU and reference SSSP do the work",
                 kind="gnp", count=6, hk_reps=300, n=120, p=0.1),
        Workload("long-path", "one 200-pair path with reversed left labels; MWU never "
                 "runs, every path comes from the exact phase (residual rebuild, augment, BFS)",
                 kind="long-path", count=1, hk_reps=300, pairs=200),
        Workload("warm-repair", "G(n,p) n=200/side p=0.045, 6 instances; HK matching minus "
                 "4 seeded pairs, repaired by one full-backend MWU phase with "
                 "mwu_gate_coeff=0.25, so clusters spawn",
                 kind="gnp", count=6, hk_reps=200, n=200, p=0.045, warm_repair=True),
    ]
}


@dataclass
class Instance:
    g: object                      # bipmatch BipartiteGraph after the text round trip
    start: object = None           # warm-start Matching (warm-repair only)


@dataclass
class SolveStats:
    size: int = 0
    mwu_phases: int = 0
    fallback_phases: int = 0
    collected: int = 0
    rounded: int = 0
    exact_augments: int = 0
    hk_phases: int = 0
    backend: dict = field(default_factory=dict)


def import_library():
    """Import bipmatch from this checkout's src/, or exit if it is absent."""
    if not (SRC / "bipmatch" / "__init__.py").is_file():
        print(f"error: no bipmatch sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bipmatch
    from bipmatch import (dag_sssp, driver, es_tree, expander_tools, graph_core,
                          maintain_cluster, mwu, oracles, restricted_sssp)
    return dict(driver=driver, es_tree=es_tree, expander_tools=expander_tools,
                graph_core=graph_core, maintain_cluster=maintain_cluster, mwu=mwu,
                oracles=oracles, restricted_sssp=restricted_sssp, dag_sssp=dag_sssp,
                constants=bipmatch.Constants)


# ------------------------------------------------------------------ set-up

def setup(w: Workload, seed: int, lib) -> list[Instance]:
    core = lib["graph_core"]
    instances = []
    for i in range(w.count):
        rng = random.Random(f"{w.name}:{seed}:{i}")
        if w.kind == "gnp":
            n_left = n_right = w.n
            edges = gnp_edges(w.n, w.p, rng)
        else:
            n_left = n_right = w.pairs
            edges = long_path_edges(w.pairs)
        text = core.write_graph_text(core.BipartiteGraph(n_left, n_right, tuple(edges)))
        g = core.parse_graph_text(text)
        if (g.n_left, g.n_right, list(g.edges)) != (n_left, n_right, edges):
            raise RuntimeError("p bm round trip changed the instance")
        inst = Instance(g)
        if w.warm_repair:
            full, _ = lib["oracles"].hopcroft_karp(g)
            inst.start = core.Matching(drop_pairs(full.pairs, WARM_REPAIR_DROP, rng))
        instances.append(inst)
    return instances


# ------------------------------------------------------------------ solving

def solve_driver(inst: Instance, lib) -> tuple[object, SolveStats]:
    matching, report = lib["driver"].max_matching(inst.g)
    st = SolveStats(size=len(matching), exact_augments=report.exact_augmentations,
                    fallback_phases=report.fallback_phases,
                    backend=dict(report.backend_stats))
    st.mwu_phases = sum(1 for ph in report.phases if not ph.fallback)
    st.collected = sum(ph.collected for ph in report.phases)
    st.rounded = sum(ph.rounded for ph in report.phases if not ph.fallback)
    return matching, st


def solve_warm_repair(inst: Instance, lib) -> tuple[object, SolveStats]:
    """Repair a warm-start matching: one full-backend MWU phase, rounding,
    augmentation, then single augmenting paths to exhaustion.

    Every library call goes through a module attribute, so tracing sees it.
    """
    drv, core, mwu = lib["driver"], lib["graph_core"], lib["mwu"]
    cnst = dataclasses.replace(lib["constants"].desk(), **WARM_REPAIR_CONSTANTS)
    h = core.residual_graph(inst.g, inst.start)
    result = mwu.mwu_run(h, WARM_REPAIR_DROP, backend="full", cnst=cnst)
    disjoint = drv.round_to_disjoint(h, result.paths)
    matching = drv.augment(inst.g, inst.start, disjoint) if disjoint else inst.start
    st = SolveStats(mwu_phases=1, collected=len(result.paths), rounded=len(disjoint),
                    backend={k: v for k, v in result.backend_stats.items()
                             if isinstance(v, int)})
    while True:
        path = drv.find_augmenting_path(core.residual_graph(inst.g, matching))
        if path is None:
            break
        matching = drv.augment(inst.g, matching, [path])
        st.exact_augments += 1
    st.size = len(matching)
    return matching, st


# ------------------------------------------------------------------ tracing

def install_spans(tracer: Tracer, lib) -> None:
    """Wrap the names each layer's callers look up; span names are metric names."""
    drv, core, mwu, mc = lib["driver"], lib["graph_core"], lib["mwu"], lib["maintain_cluster"]
    rs, dag = lib["restricted_sssp"], lib["dag_sssp"].DagSssp
    cs, es = mc.ClusterState, lib["es_tree"].EsTree
    for owner, attr, name in [
        (drv, "round_to_disjoint", "driver.round_s"),
        (drv, "find_augmenting_path", "driver.exact_s"),
        (drv, "residual_graph", "graph_core.residual_s"),
        (core, "residual_graph", "graph_core.residual_s"),
        (drv, "augment", "graph_core.augment_s"),
        (core, "parse_graph_text", "graph_core.parse_s"),
        (drv, "mwu_run", "mwu.run_self_s"),
        (mwu, "mwu_run", "mwu.run_self_s"),
        (mwu, "build_doubling_graph", "mwu.doubling_s"),
        (rs.ReferenceSssp, "query", "restricted_sssp.ref_query_s"),
        (rs.ReferenceSssp, "delete_path_edges", "restricted_sssp.ref_delete_s"),
        (rs.RestrictedSssp, "__init__", "restricted_sssp.init_s"),
        (rs.RestrictedSssp, "query", "restricted_sssp.query_s"),
        (rs.RestrictedSssp, "delete_path_edges", "restricted_sssp.delete_s"),
        (dag, "finalize", "dag_sssp.finalize_s"),
        (dag, "delete_edge", "dag_sssp.delete_s"),
        (dag, "split_vertex", "dag_sssp.split_s"),
        (dag, "path_query", "dag_sssp.path_query_s"),
        (mc, "embed_or_cut", "expander_tools.embed_or_cut_s"),
        (mc, "ball_grow", "expander_tools.ball_grow_s"),
        (lib["expander_tools"], "ball_grow", "expander_tools.ball_grow_s"),
        (cs, "__init__", "maintain_cluster.init_s"),
        (cs, "query", "maintain_cluster.query_s"),
        (cs, "delete_edges", "maintain_cluster.delete_s"),
    ]:
        tracer.wrap(owner, attr, name)
    # EsTree.scan_steps counts edge scans; it starts at 0 when a tree is built
    scans = lambda args: getattr(args[0], "scan_steps", 0)  # noqa: E731
    tracer.wrap(es, "__init__", "es_tree.build_s", work=scans)
    tracer.wrap(es, "delete_edges", "es_tree.delete_s", work=scans)


ROOT_SPAN = "driver.self_s"
TIME_METRICS = [
    "driver.round_s", "driver.exact_s", "driver.self_s",
    "graph_core.residual_s", "graph_core.augment_s",
    "mwu.doubling_s", "mwu.run_self_s",
    "restricted_sssp.ref_query_s", "restricted_sssp.ref_delete_s",
    "restricted_sssp.init_s", "restricted_sssp.query_s", "restricted_sssp.delete_s",
    "dag_sssp.finalize_s", "dag_sssp.delete_s", "dag_sssp.split_s", "dag_sssp.path_query_s",
    "expander_tools.embed_or_cut_s", "expander_tools.ball_grow_s",
    "maintain_cluster.init_s", "maintain_cluster.query_s", "maintain_cluster.delete_s",
    "es_tree.build_s", "es_tree.delete_s",
]
UNITS = {"solve_s": "s", "hk_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_counts(stats: list[SolveStats], calls: dict[str, int],
                 work: dict[str, int]) -> dict:
    """Per-pass counters from the run reports, MWU results and spans."""
    total = SolveStats()
    for st in stats:
        for k in ("size", "mwu_phases", "fallback_phases", "collected", "rounded",
                  "exact_augments", "hk_phases"):
            setattr(total, k, getattr(total, k) + getattr(st, k))
        for k, v in st.backend.items():
            total.backend[k] = total.backend.get(k, 0) + v
    b = total.backend
    return {
        "driver.round_kept": total.rounded / total.collected if total.collected else 0.0,
        "driver.batched_frac": total.rounded / total.size if total.size else 0.0,
        "driver.exact_augments": total.exact_augments,
        "driver.mwu_phases": total.mwu_phases,
        "driver.fallback_phases": total.fallback_phases,
        "graph_core.residual_calls": calls.get("graph_core.residual_s", 0),
        "graph_core.augment_calls": calls.get("graph_core.augment_s", 0),
        "mwu.paths_collected": total.collected,
        "restricted_sssp.ref_queries": calls.get("restricted_sssp.ref_query_s", 0),
        "restricted_sssp.cuts": b.get("cuts", 0),
        "restricted_sssp.shatters": b.get("shatters", 0),
        "restricted_sssp.cluster_queries": b.get("cluster_queries", 0),
        "restricted_sssp.emergency_shatters": b.get("emergency_shatters", 0),
        "restricted_sssp.fails": b.get("fails", 0),
        "dag_sssp.work": b.get("dag_work", 0),
        "expander_tools.embed_calls": calls.get("expander_tools.embed_or_cut_s", 0),
        "maintain_cluster.queries": calls.get("maintain_cluster.query_s", 0),
        # backend_stats["es_scans"] misses trees of clusters shattered
        # without banking and trees built by embed_or_cut, so count directly
        "es_tree.scans": work.get("es_tree.build_s", 0) + work.get("es_tree.delete_s", 0),
        "oracles.hk_phases": total.hk_phases,
    }


# ------------------------------------------------------------------ measuring

class Run:
    """One workload measured in this process."""

    def __init__(self, w: Workload, seed: int, seconds: float, trace: bool, lib):
        self.w, self.seed, self.seconds, self.lib = w, seed, seconds, lib
        self.solve = solve_warm_repair if w.warm_repair else solve_driver
        self.attempted = 0
        self.failed = 0
        self.tracer = Tracer() if trace else None

    def set_up(self):
        """Set up here; a traced run repeats it for the median parse time."""
        self.setup_times: list[float] = []
        parse_s = []
        for _ in range(SETUP_REPEATS if self.tracer else 1):
            self.instances = setup(self.w, self.seed, self.lib)
            if self.tracer:
                parse_s.append(self.tracer.self_times().get("graph_core.parse_s", 0.0))
                self.tracer.reset()
        self.parse_s = statistics.median(parse_s) if parse_s else 0.0
        self.solve_times: list[list[float]] = [[] for _ in self.instances]
        self.solve_walls: list[list[float]] = [[] for _ in self.instances]
        self.hk_times: list[list[float]] = [[] for _ in self.instances]

    def one_pass(self, traced: bool) -> tuple[float, list[SolveStats]]:
        """Solve and check every instance once, timing Hopcroft-Karp after each.

        Returns the summed solve wall time and the per-instance counters.
        Untraced passes also append to the per-instance time lists; traced
        passes call Hopcroft-Karp once, untimed, for the check.
        """
        hk = self.lib["oracles"].hopcroft_karp
        solve_wall = 0.0
        stats = []
        for i, inst in enumerate(self.instances):
            self.attempted += 1
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                if traced:
                    matching, st = self.tracer.span(ROOT_SPAN, self.solve, inst, self.lib)
                else:
                    matching, st = self.solve(inst, self.lib)
            except Exception:
                traceback.print_exc()
                self.failed += 1
                continue
            cpu = time.process_time() - c0
            dt = time.perf_counter() - t0
            solve_wall += dt
            if traced:
                hk_matching, phases = hk(inst.g)
            else:
                self.solve_times[i].append(cpu)
                self.solve_walls[i].append(dt)
                hk_matching, phases = self.hk_round(i)
            st.hk_phases = phases
            errors = matching_errors(inst.g.n_left, inst.g.n_right, inst.g.edges,
                                     matching.pairs, expected_size=len(hk_matching))
            if errors:
                print(f"exactness check failed on instance {i}: {errors[:3]}",
                      file=sys.stderr)
                self.failed += 1
            stats.append(st)
            # free this solve's reference cycles so the next one starts from a
            # clean heap, as in a fresh process; untimed
            del matching
            gc.collect()
        return solve_wall, stats

    def hk_round(self, i: int):
        """Time single Hopcroft-Karp calls on every instance, after solve ``i``.

        Each instance gets ``hk_reps / count`` calls here, so over a pass it
        gets ``hk_reps`` calls in ``count`` bursts spread over the pass.
        Returns the result on instance ``i``, for the exactness check.
        """
        hk = self.lib["oracles"].hopcroft_karp
        reps = -(-self.w.hk_reps // len(self.instances))
        for j, inst in enumerate(self.instances):
            for _ in range(reps):
                c0 = time.process_time()
                result = hk(inst.g)
                self.hk_times[j].append(time.process_time() - c0)
            if j == i:
                wanted = result
        return wanted

    def measure(self) -> dict:
        """Run passes until the next one would end after ``seconds``.

        End-to-end times are summed over the instance list from each
        instance's samples in the run (see the module docstring).
        """
        t_start = time.perf_counter()
        traced = []
        while True:
            t_pass = time.perf_counter()
            # traced and untraced passes alternate in order, so a slow first
            # pass does not bias the tracing overhead
            if self.tracer and len(traced) % 2:
                self.traced_pass(traced)
            self.one_pass(traced=False)
            if self.tracer and not len(traced) % 2:
                self.traced_pass(traced)
            now = time.perf_counter()
            if not self.tracer:
                due = min(SETUP_PROBES,
                          math.ceil(SETUP_PROBES * (now - t_start) / self.seconds))
                self.setup_times += fresh_setup_times(self.w, self.seed,
                                                      due - len(self.setup_times))
                now = time.perf_counter()
            if now - t_start + (now - t_pass) > self.seconds:
                break
        self.passes = max(len(t) for t in self.solve_times)
        if self.tracer:
            return self.layer_metrics(
                sum(statistics.median(t) for t in self.solve_walls if t), traced)
        return {
            "solve_s": sum(statistics.median(t) for t in self.solve_times if t),
            "hk_s": sum(min(t) for t in self.hk_times if t),
            "setup_s": statistics.median(self.setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def traced_pass(self, traced: list) -> None:
        self.tracer.reset()
        wall, stats = self.one_pass(traced=True)
        traced.append((wall, self.tracer.self_times(), self.tracer.calls(),
                       dict(self.tracer.counts), stats))
        if len(traced) == 1:
            self.first_spans = self.tracer.spans

    def layer_metrics(self, untraced_solve_s: float, traced) -> dict:
        """Per-pass means over the traced passes, so self times add up to the wall."""
        n = len(traced)
        wall = sum(t[0] for t in traced) / n
        selfs = {name: sum(t[1].get(name, 0.0) for t in traced) / n for name in TIME_METRICS}
        out = dict(selfs)
        _, _, calls, work, stats = traced[0]
        out.update(layer_counts(stats, calls, work))
        out["graph_core.parse_s"] = self.parse_s
        out["trace.wall_s"] = wall
        out["trace.overhead_s"] = wall - untraced_solve_s
        out["trace.self_sum_frac"] = sum(selfs.values()) / wall if wall else 0.0
        return out


# ------------------------------------------------------------------ reporting

def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_kept"):
        return "ratio"
    return "count"


def fresh_setup_times(w: Workload, seed: int, count: int) -> list[float]:
    """CPU seconds fresh processes spend from their start to the end of set-up."""
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                               "--workload", w.name, "--seed", str(seed)],
                              capture_output=True, text=True, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def setup_probe(args) -> int:
    """Set the workload up in this process and print its CPU time so far.

    The process CPU clock starts with the process, so this covers
    interpreter start, imports and set-up.
    """
    setup(WORKLOADS[args.workload], args.seed, import_library())
    print(repr(time.process_time()))
    return 0


def run_one(args) -> int:
    lib = import_library()
    w = WORKLOADS[args.workload]
    run = Run(w, args.seed, args.seconds, bool(args.trace), lib)
    if run.tracer:
        install_spans(run.tracer, lib)
    try:
        run.set_up()
        values = run.measure()
    finally:
        if run.tracer:
            run.tracer.unwrap_all()
    fail_frac = run.failed / run.attempted
    meta = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "python": platform.python_version(),
        "git_revision": git_revision(), "nproc": os.cpu_count(),
        "workload_spec": dataclasses.asdict(w),
        "warm_repair": ({"constants_override": WARM_REPAIR_CONSTANTS,
                         "deletion_rule": f"remove {WARM_REPAIR_DROP} pairs sampled "
                         "uniformly from the sorted Hopcroft-Karp matching"}
                        if w.warm_repair else None),
        "instances": [{"n": inst.g.n, "m": len(inst.g.edges)} for inst in run.instances],
        "passes": run.passes,
        "fresh_setup_times_s": run.setup_times,
        "solve_times_s": run.solve_times,
        "solve_time_count": sum(len(t) for t in run.solve_times),
        "hk_time_count": sum(len(t) for t in run.hk_times),
        "attempted": run.attempted, "failed": run.failed, "fail_frac": fail_frac,
    }
    units = {k: UNITS.get(k) or per_layer_units(k) for k in values}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    OUT.mkdir(exist_ok=True)
    report = {"meta": meta, "metrics": metrics}
    if run.tracer:
        report["spans"] = run.first_spans
    out_file = OUT / f"{w.name}-seed{args.seed}-trace{int(args.trace)}.json"
    out_file.write_text(json.dumps(report) + "\n")

    print(f"{w.name} seed={args.seed}: {len(run.instances)} instance(s), "
          f"{run.passes} pass(es), report in {out_file.relative_to(ROOT)}")
    for k, v in values.items():
        print(f"  {k:36s} {v:14.6g} {units[k]}")
    if not args.trace and values["hk_s"]:
        print(f"  {'solve_s / hk_s (derived)':36s} {values['solve_s'] / values['hk_s']:14.6g}")
    print(f"  {'fail_frac':36s} {fail_frac:14.6g} ({run.failed}/{run.attempted})")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        sys.stdout.flush()
        if subprocess.run(cmd, check=False).returncode != 0:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set the workload up, then print time.process_time()")
    args = ap.parse_args(argv)
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")
    if args.setup_probe:
        return setup_probe(args)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
