"""The benchmark's own tests, on tiny scenes (about two minutes on two cores).

    python3 -m pytest perfbench/selftest.py -q

They check that every named metric is printed with its unit, that computed
counts repeat exactly for a seed, that a wrong reference makes operations
fail (so the output checks are live), and that the benchmark refuses to run
without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REFERENCES = BENCH_DIR / "references.json"


def bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def tiny(workload, tmp_path, *extra, seed=0, trace=0):
    proc = bench("--workload", workload, "--seed", seed, "--seconds", 0.5,
                 "--trace", trace, "--tiny", "--out-dir", tmp_path, *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace, tmp_path):
    result, report = tiny(workload, tmp_path, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in report), m["name"]
    if not trace:
        for name in ("pq_qubo", "pq_baseline", "pq_roundtrip", "failed_frac"):
            assert any(line.startswith(name + " ") for line in report), name
    if trace and workload == "cli-pipeline":
        for name in ("cli.startup_s", "cli.merge_s", "cli.merge_rss_mb", "io.read_tensor_s",
                     "io.bytes_read", "io.bytes_written", "io.write_s"):
            assert any(line.startswith(name + " ") for line in report), name
    stem = f"{workload}-tiny-seed0-trace{trace}"
    saved = json.loads((tmp_path / f"{stem}.json").read_text())
    assert {"nproc", "thread_caps", "python", "numpy", "scipy", "l2_cache",
            "l3_cache", "git_commit"} <= set(saved["env"])
    if trace:
        spans = json.loads((tmp_path / f"{stem}-spans.json").read_text())["spans"]
        by_id = {s["id"]: s for s in spans}
        assert any(s["parent"] is not None for s in spans)
        for s in spans:
            assert s["start"] <= s["end"]
            if s["parent"] is not None:
                assert by_id[s["parent"]]["start"] <= s["start"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed(workload, tmp_path):
    counts = []
    for run in ("a", "b"):
        out = tmp_path / run
        tiny(workload, out, seed=1)
        saved = json.loads((out / f"{workload}-tiny-seed1-trace0.json").read_text())
        counts.append(saved["counts"])
    assert counts[0] == counts[1]
    keys = set().union(*(c.keys() for c in counts[0].values()))
    assert {"qubo.pairs", "qubo.pairs_overlapping", "masks.support_frac",
            "masks.dense_bytes", "qubo.build_bytes_computed",
            "qubo.anneal_flip_attempts", "metrics.segments",
            "uplift.splat_records"} <= keys


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_fails_operations(workload, tmp_path):
    refs = json.loads(REFERENCES.read_text())
    scenes = refs[workload]["tiny"]["scenes"]
    first = scenes["0"]
    first["merge"] = "0" * len(first["merge"])
    first["pq_roundtrip"] += 1e-6
    bad = tmp_path / "refs.json"
    bad.write_text(json.dumps(refs))
    result, report = tiny(workload, tmp_path, "--references", bad)
    assert not result["correct"]
    assert result["failed"] >= 2
    assert any(line.startswith("FAILED scene 0 merge") for line in report)


def test_seeds_map_to_pool_scenes():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    refs = json.loads(REFERENCES.read_text())
    for w in workloads.WORKLOADS.values():
        size = w.full
        pool = sorted(int(k) for k in refs[w.name]["full"]["scenes"])
        assert len(pool) == size.pool
        default = set(size.scene_seeds(workloads.DEFAULT_SEED, pool))
        held_out = set(size.scene_seeds(workloads.HELD_OUT_SEED, pool))
        assert len(default) == size.per_run and not default & held_out
        assert default | held_out <= set(pool)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", 0, "--seconds", 1, "--trace", 0,
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
