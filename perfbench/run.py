"""panomerge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's scenes from the seed, makes passes over them for at
least one round and about S seconds, checks every output against
perfbench/references.json, and prints one "name value unit" line per metric.
The last line is a JSON
object with keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The full result,
with an environment record, goes to perfbench/out/.

    python3 perfbench/run.py --record-references [--workload NAME] [--tiny]

re-records the reference outputs for every pool scene; do this only on the
commit whose outputs are the reference.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("PANOMERGE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")

# numpy, scipy, panomerge and the modules that import them load only after
# cap_threads(), so the thread caps reach BLAS.

# Per-layer span metrics every workload reports under --trace 1, as (name,
# spans to add, parent>child entries to subtract), in seconds: per root span
# (one per scene pass, scene set-up, or the run-level commands) the named
# spans' durations are summed, and the median over roots that hold any is
# taken. Subtracting direct children leaves the part of a call outside them.
SPAN_METRICS = [
    ("synthgen.generate_s", ["synthgen.generate_scene"], []),
    ("qubo.build_s", ["qubo.build_qubo"], []),
    ("qubo.anneal_s", ["qubo.solve_anneal"], []),
    ("masks.softmaskset_s", ["masks.SoftMaskSet"], []),
    ("masks.panopticmap_s", ["masks.PanopticMap.from_instances", "masks.PanopticMap"],
     ["masks.PanopticMap.from_instances>masks.PanopticMap"]),
    ("merging.merge_baseline_s", ["merging.merge_baseline"], []),
    ("merging.qubo_overhead_s", ["merging.merge_qubo"],
     ["merging.merge_qubo>qubo.build_qubo", "merging.merge_qubo>qubo.solve_anneal",
      "merging.merge_qubo>qubo.solve_exact"]),
    ("metrics.scene_pq_s", ["metrics.scene_pq"], []),
    ("uplift.uplift_s", ["uplift.uplift_labels"], []),
    ("uplift.render_s", ["uplift.render_labels"], []),
    ("uplift.table_s", ["uplift.SplatWeightTable"], []),
    ("keyframe.fps_s", ["keyframe.fps_select"], []),
]
# Layer metrics only the CLI path exercises; printed, not in the JSON line.
CLI_SPAN_METRICS = [
    ("io.read_tensor_s", ["io.read_tensor"], []),
    ("io.read_panoptic_s", ["io.read_panoptic"], []),
    ("io.read_splats_s", ["io.read_splats"], []),
    ("io.write_s", ["io.write_tensor", "io.write_panoptic", "io.write_splats",
                    "io.write_class_table"], ["io.write_panoptic>io.write_tensor"]),
]
# Counts computed from array sizes and outputs, median over the run's scenes.
COUNT_METRICS = [
    ("qubo.pairs", "count"),
    ("qubo.pairs_overlapping", "count"),
    ("qubo.pair_hit_ratio", "ratio"),
    ("qubo.build_bytes_computed", "B"),
    ("qubo.anneal_flip_attempts", "count"),
    ("masks.support_frac", "ratio"),
    ("masks.dense_bytes", "B"),
    ("metrics.segments", "count"),
]


def cap_threads() -> dict:
    """Cap the program's and BLAS's thread pools at the CPUs this process may use."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return {var: n for var in THREAD_VARS}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("scene-large", "scenes-small", "cli-pipeline"))
    p.add_argument("--seed", type=int, default=0,
                   help="0 is the default seed; 1 is held out for confirming a claim")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny scenes, for smoke tests")
    p.add_argument("--references", type=Path, default=BENCH_DIR / "references.json")
    p.add_argument("--out-dir", type=Path, default=BENCH_DIR / "out")
    p.add_argument("--record-references", action="store_true")
    args = p.parse_args(argv)
    if not args.record_references and args.workload is None:
        p.error("--workload is required")
    return args


def median(values):
    values = sorted(values)
    if not values:
        return None
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def tail(values):
    """Highest percentile with at least 10 samples beyond it, or None."""
    values = sorted(values)
    n = len(values)
    if n < 11:
        return None
    rank = n - 11
    return values[rank], 100.0 * (rank + 1) / n, n


def own_peak_rss_mb() -> float:
    """This process's peak RSS. VmHWM counts only pages this program touched;
    ru_maxrss (the fallback) also counts the peak of whatever launched it."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run, wl):
    rec = run.rec
    scenes = rec.scene_times
    if wl.kind == "cli":
        peak = max(v for cmd, v in rec.rss_mb.items() if cmd != "synth")
    else:
        peak = own_peak_rss_mb()

    def mean_pq(key):
        vals = [rec.observed.get(s, {}).get(key) for s in run.seeds]
        vals = [v for v in vals if v is not None]
        return sum(vals) / len(vals) if vals else 0.0

    metrics = [
        ("setup_s", median(rec.setup_times), "s"),
        ("scenes_per_s", len(scenes) / sum(scenes), "1/s"),
        ("scene_p50_s", median(scenes), "s"),
        ("merge_p50_s", median(rec.times["merge"]), "s"),
        ("baseline_p50_s", median(rec.times["baseline"]), "s"),
        ("peak_rss_mb", peak, "MB"),
    ]
    # Mean scene PQ is a property of the seed's scenes, not of speed: it varies
    # between seeds by more than any bound allows, and any change at all fails
    # the output checks. So it is printed, not compared within a bound.
    extra = [
        ("pq_qubo", mean_pq("pq_qubo"), "%"),
        ("pq_baseline", mean_pq("pq_baseline"), "%"),
        ("pq_roundtrip", mean_pq("pq_roundtrip"), "%"),
        ("failed_frac", len(rec.failures) / max(1, rec.attempted), "ratio"),
    ]
    t = tail(scenes)
    if t is not None:
        extra.append((f"scene_tail_s p{t[1]:.1f} n={t[2]}", t[0], "s"))
    return metrics, extra


def span_value(roots, plus, minus):
    vals = []
    for _, sums in roots:
        if any(k in sums for k in plus):
            vals.append(sum(sums.get(k, 0.0) for k in plus)
                        - sum(sums.get(k, 0.0) for k in minus))
    return median(vals)


def per_layer(run, wl):
    from tracer import per_root_sums

    rec = run.rec
    roots = per_root_sums(run.tracer.spans)
    metrics = [(name, span_value(roots, plus, minus), "s")
               for name, plus, minus in SPAN_METRICS]
    counts = [rec.counts[s] for s in run.seeds]
    metrics += [(name, median([c[name] for c in counts if name in c]), unit)
                for name, unit in COUNT_METRICS]
    metrics += [("trace.overhead_frac", median(rec.overhead), "ratio"),
                ("trace.spans", len(run.tracer.spans), "count")]

    extra = [("uplift.splat_records",
              median([c["uplift.splat_records"] for c in counts]), "count")]
    if rec.exact_hits:
        extra.append(("qubo.anneal_exact_hit_ratio",
                      sum(rec.exact_hits) / len(rec.exact_hits), "ratio"))
    if wl.kind == "cli":
        extra += [(name, span_value(roots, plus, minus), "s")
                  for name, plus, minus in CLI_SPAN_METRICS]
        extra += [(k, median(v), "B") for k, v in sorted(rec.io_bytes.items())]
        extra.append(("cli.startup_s", rec.startup_s, "s"))
        extra += [(f"cli.{cmd}_s", median(v), "s") for cmd, v in sorted(rec.commands.items())]
        extra += [(f"cli.{cmd}_rss_mb", v, "MB") for cmd, v in sorted(rec.rss_mb.items())]
    return metrics, extra


def environment(applied_caps: dict) -> dict:
    import numpy
    import scipy

    def cache(level):
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for idx in sorted(base.glob("index*")):
            try:
                if (idx / "level").read_text().strip() == str(level):
                    return (idx / "size").read_text().strip()
            except OSError:
                pass
        return None

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "panomerge").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": applied_caps,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_cache": cache(2),
        "l3_cache": cache(3),
        "cpu": platform.processor() or platform.machine(),
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
    }


def run_workload(args, caps) -> int:
    import workloads as wk

    wl = wk.WORKLOADS[args.workload]
    size = wl.tiny if args.tiny else wl.full
    key = "tiny" if args.tiny else "full"
    refs = json.loads(args.references.read_text())[wl.name][key]
    if refs["size"] != wk.size_key(size):
        print(f"error: {args.references} was recorded for another {wl.name} spec",
              file=sys.stderr)
        return 2
    seeds = size.scene_seeds(args.seed, sorted(int(k) for k in refs["scenes"]))
    (BENCH_DIR / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=BENCH_DIR / "work"))
    try:
        run = wk.make_run(wl, size, seeds, refs["scenes"], bool(args.trace), workdir)
        passes = run.measure(args.seconds)
        run.after_measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, extra = per_layer(run, wl) if args.trace else end_to_end(run, wl)
    rec = run.rec
    env = environment(caps)
    stem = f"{wl.name}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}"
    args.out_dir.mkdir(parents=True, exist_ok=True)
    result = {
        "workload": wl.name, "size": key, "seed": args.seed, "scene_seeds": seeds,
        "seconds": args.seconds, "trace": args.trace, "scene_passes": passes,
        "op_p50_s": {op: median(v) for op, v in sorted(rec.times.items())}, "env": env,
        "metrics": {n: {"value": v, "unit": u} for n, v, u in metrics + extra},
        "counts": {str(s): rec.counts[s] for s in seeds},
        "counts_note": "byte counts are computed from array and file sizes, not measured",
        "attempted": rec.attempted, "failures": rec.failures,
    }
    (args.out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        run.tracer.dump(args.out_dir / f"{stem}-spans.json", env=env)

    print(f"workload {wl.name} ({key}) seed {args.seed} scenes {seeds} passes {passes}")
    print("env " + json.dumps(env, sort_keys=True))
    for f in rec.failures[:20]:
        print(f"FAILED scene {f['scene']} {f['op']}: {f['reason']}")
    for name, value, unit in metrics + extra:
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {n: {"value": v, "unit": u} for n, v, u in metrics},
    }))
    return 0


def pool_candidates(size):
    """Scene seeds 0, 1, 2, ... skipping those whose m falls outside m_band."""
    import panomerge as pm

    for s in itertools.count():
        if size.m_band is not None:
            m = pm.generate_scene(size.spec(s))[1].num_queries
            if not size.m_band[0] <= m <= size.m_band[1]:
                continue
        yield s


def record_references(args) -> int:
    import workloads as wk

    doc = json.loads(args.references.read_text()) if args.references.exists() else {}
    names = [args.workload] if args.workload else list(wk.WORKLOADS)
    (BENCH_DIR / "work").mkdir(exist_ok=True)
    for name in names:
        wl = wk.WORKLOADS[name]
        for key in (["tiny"] if args.tiny else ["tiny", "full"]):
            size = getattr(wl, key)
            scenes = {}
            for s in pool_candidates(size):
                workdir = Path(tempfile.mkdtemp(dir=BENCH_DIR / "work"))
                try:
                    run = wk.make_run(wl, size, [s], None, False, workdir)
                    run.measure(0.0)
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
                observed = run.rec.observed[s]
                if run.rec.failures or None in observed.values():
                    print(f"error: {name} scene {s} failed: {run.rec.failures}",
                          file=sys.stderr)
                    return 1
                scenes[str(s)] = observed
                print(f"{name} {key} scene {s}: m={run.rec.counts[s]['qubo.m']} "
                      f"pq {observed['pq_qubo']:.3f}/{observed['pq_baseline']:.3f}",
                      flush=True)
                if len(scenes) == size.pool:
                    break
            doc.setdefault(name, {})[key] = {"size": wk.size_key(size), "scenes": scenes}
            args.references.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    caps = cap_threads()
    if not (SRC / "panomerge" / "__init__.py").is_file():
        print(f"error: no panomerge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import panomerge

    if not Path(panomerge.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported panomerge from {panomerge.__file__}", file=sys.stderr)
        return 2
    if args.record_references:
        return record_references(args)
    return run_workload(args, caps)


if __name__ == "__main__":
    sys.exit(main())
