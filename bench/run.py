"""surfnav benchmark: one workload per process, outputs checked.

    python3 bench/run.py --workload plaza_queries --seed 3 --seconds 25 --trace 0

Prints a human-readable report, then, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``--workload all`` runs every workload, each in its own
process. See bench/README.md.
"""

import os

# one thread per workload process: set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scenegen.build_scene_s": "s",
    "grid.save_grid_s": "s",
    "grid.load_grid_s": "s",
    "extract.candidate_set_s": "s",
    "extract.collision_filter_s": "s",
    "extract.select_seed_s": "s",
    "extract.extract_surface_s": "s",
    "extract.save_surface_s": "s",
    "extract.load_surface_s": "s",
    "dfield.distance_field_s": "s",
    "plan.graph_build_s": "s",
    "plan.search_s": "s",
    "plan.overhead_s": "s",
    "plan.expanded": "count",
    "extract.candidates": "count",
    "extract.collision_kept": "count",
    "extract.surface_states": "count",
    "extract.collision_keep_ratio": "ratio",
    "extract.bfs_reach_ratio": "ratio",
    "extract.surface_file_bytes": "B",
    "dfield.boundary_states": "count",
    "plan.edges": "count",
    "plan.edge_probe_ratio": "ratio",
    "scenegen.peak_alloc_mb": "MB",
    "grid.peak_alloc_mb": "MB",
    "extract.peak_alloc_mb": "MB",
    "dfield.peak_alloc_mb": "MB",
    "plan.peak_alloc_mb": "MB",
    "trace.self_s": "s",
    "trace.overhead_frac": "ratio",
}

WORKLOAD_NAMES = ("plaza_ingest", "plaza_queries", "multistory_churn")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True, help="workload seed for every input")
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny runs the same code paths on small maps (smoke test)")
    ap.add_argument("--digests", type=Path, default=DIGESTS,
                    help="stored digests to compare against")
    ap.add_argument("--record-digests", action="store_true",
                    help="add the digests seen in this run to the --digests file")
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process; the last line sums them up."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale,
               "--digests", str(args.digests)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"# {name}: {lines[-1]}")
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def measure(workload, r, seconds: float, trace: bool):
    """Set-ups, then timed passes, then off-clock checks; returns the
    set-up times, the per-pass timed seconds and the peak RSS."""
    from harness import OutOfTime

    setup_times = []
    state = None
    r.mode = "spans" if trace else "plain"
    for i in range(1 if trace else workload.setups):
        state = None  # free the previous set-up's maps first
        gc.collect()
        r.instance = f"setup-{i}"
        t0 = time.perf_counter()
        state = workload.setup(r)
        setup_times.append(time.perf_counter() - t0)
        r.complete.add(r.instance)

    r.mode = "plain"
    workload.warm_up(r, state)
    r.mode = "spans" if trace else "plain"
    pass_times = []
    r.deadline = time.perf_counter() + seconds
    try:
        while True:
            r.instance = f"pass-{len(pass_times)}"
            r.pass_seconds = 0.0
            workload.run_pass(r, state, len(pass_times))
            r.complete.add(r.instance)
            pass_times.append(r.pass_seconds)
            if trace:
                if time.perf_counter() > r.deadline:
                    break
            elif sum(pass_times) + pass_times[-1] > seconds:
                break  # another pass would overrun the measuring time
    except OutOfTime:
        pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    r.mode = "plain"
    workload.finish(r, state)
    if trace:
        # per-layer peak allocation: one set-up and a one-query pass
        state = None
        gc.collect()
        r.mode = "memory"
        r.instance = "memory"
        tracemalloc.start()
        try:
            workload.run_pass(r, workload.setup(r), 0, cap=1)
        finally:
            tracemalloc.stop()
        r.mode = "plain"
    return setup_times, pass_times, peak_rss_mb


def end_to_end(r, setup_times, pass_times, peak_rss_mb) -> dict:
    import numpy

    q = r.op_seconds["query"]
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(pass_times),
        "query_p90_ms": 1e3 * float(numpy.percentile(q, 90)),
        "queries_per_s": len(q) / sum(q),
        "peak_rss_mb": peak_rss_mb,
    }


def machine_facts(engine) -> dict:
    import numpy

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "engine": engine,
        "numba_imports": numba_imports,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import surfnav  # noqa: F401
    except ImportError as exc:
        print(f"cannot import surfnav from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from harness import Runner, layer_metrics
    from workloads import SCALES, WORKLOADS

    expected = json.loads(args.digests.read_text()) if args.digests.exists() else {}
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    r = Runner(args.workload)
    workload = WORKLOADS[args.workload](SCALES[args.scale], args.seed, str(workdir), expected)
    try:
        setup_times, pass_times, peak_rss_mb = measure(workload, r, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = machine_facts(r.engine)
    q = r.op_seconds["query"]
    print(f"# workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"trace {args.trace}  seconds {args.seconds:g}")
    print("# machine " + "  ".join(f"{k} {v}" for k, v in facts.items()))
    print(f"# set-ups {len(setup_times)}  passes {len(pass_times)}  "
          f"query samples {len(r.queries) if args.trace else len(q)}  "
          f"digest-checked paths {workload.checked_paths}")
    if not args.trace:
        print("# pass_s each " + " ".join(f"{t:.4g}" for t in pass_times))
        # printed, not gated: from run to run it moved about twice as much
        # as p90 and the mean (see bench/README.md)
        print(f"# query_p50_ms {1e3 * statistics.median(q):.4f} ms "
              f"({len(q)} plan() calls)")
    print(f"# failed_frac {r.failed / max(r.attempted, 1):.6g} "
          f"({r.failed} of {r.attempted} operations)")
    for kind in ("ingest", "reload"):
        if r.op_seconds[kind]:
            print(f"# {kind}_s {statistics.median(r.op_seconds[kind]):.4f} s "
                  f"(median of {len(r.op_seconds[kind])})")
    if r.op_seconds["map"]:
        share = sum(r.op_seconds["map"]) / sum(pass_times)
        print(f"# churn_s {statistics.median(pass_times):.4f} s "
              f"(map preparation {share:.0%} of it)")

    if args.trace:
        metrics = layer_metrics(r)
        units = PER_LAYER
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "machine": facts,
             "per_layer": metrics, "spans": r.spans}, indent=1))
        print(f"# spans {len(r.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(r, setup_times, pass_times, peak_rss_mb)
        units = END_TO_END
    metrics = {k: float(v) for k, v in metrics.items()}
    missing = [m for m in units if m not in metrics or metrics[m] != metrics[m]]
    if missing:
        print(f"metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:14.6g} {unit}")

    if args.record_digests:
        merged = json.loads(args.digests.read_text()) if args.digests.exists() else {}
        for key, table in workload.observed.items():
            merged.setdefault(key, {}).update({k: v for k, v in table.items() if k != "paths"})
            merged[key].setdefault("paths", {}).update(table.get("paths", {}))
        args.digests.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
