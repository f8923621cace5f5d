"""The benchmark's workloads: pinned scene specs, the seed-to-scene mapping,
the library and CLI pipelines, and the checks of every output against the
references recorded from the seed commit.

A run takes `per_run` scenes from a pool of `pool` scenes whose outputs were
recorded: seed n uses pool entries n*per_run .. n*per_run+per_run-1 (mod pool),
so seeds 0 and 1 see disjoint scenes. Measurement makes passes over the run's
scenes in turn, building each scene's inputs on first use; each pass is
checked outside the timed region, and a wrong or missing output counts as a
failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import panomerge as pm
from panomerge import io as pio
from tracer import Tracer, instrument

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRACED_CLI = BENCH_DIR / "traced_cli.py"
LAUNCH = BENCH_DIR / "launch.py"

DEFAULT_SEED = 0
HELD_OUT_SEED = 1  # scenes disjoint from the default seed's; a claim must hold here too

# Absolute tolerance per checked value; every other value must match exactly.
TOLERANCE = {"pq_qubo": 1e-9, "pq_baseline": 1e-9, "pq_roundtrip": 1e-9, "pq_dataset": 1e-9}
UPLIFT_RTOL = 1e-6  # per-label mass sums; the CLI stores the field as float32

L_CORRUPTION = dict(
    duplicate_rate=0.5, fragment_rate=0.3, boundary_noise_px=2, softness=1.0,
    view_gain_noise=0.3,
)
SMALL_CORRUPTION = dict(
    duplicate_rate=0.5, duplicate_count=3, fragment_rate=0.3, boundary_noise_px=2,
    softness=1.0, class_noise=1.0, view_gain_noise=0.3,
)


@dataclass(frozen=True)
class Size:
    scene: dict  # SceneSpec fields; "corruption" holds CorruptionSpec fields
    pool: int  # scenes with recorded references
    per_run: int  # distinct scenes in one run
    descriptors: tuple[int, int] = (2000, 256)  # fps input, frames x dim
    k: int = 50
    m_band: tuple[int, int] | None = None  # pool keeps scenes with m in this range

    def spec(self, seed: int) -> pm.SceneSpec:
        fields = dict(self.scene)
        cor = pm.CorruptionSpec(**fields.pop("corruption"))
        return pm.SceneSpec(seed=seed, corruption=cor, **fields)

    def scene_seeds(self, seed: int, pool: list[int]) -> list[int]:
        """The run's scene seeds, drawn in order from the recorded pool."""
        return [pool[(seed * self.per_run + i) % len(pool)] for i in range(self.per_run)]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "library" or "cli"
    full: Size
    tiny: Size
    oracle_pairs: int = 0  # build_qubo entries checked against the dense oracles
    exact_check: bool = False  # compare solve_anneal with solve_exact per scene
    hold_scenes: bool = True  # keep generated scenes for later passes


TINY_SCENE = dict(
    num_views=2, height=32, width=32, num_things=6, num_stuff=2, world_size=64,
    corruption=L_CORRUPTION,
)

WORKLOADS = {
    w.name: w
    for w in [
        # ROADMAP's L scene: build_qubo's m^2/2 dense passes over 262k pixels dominate.
        # Its cost grows with m^2 and m ranges 72..108 over scene seeds, so the pool
        # keeps only scenes of ROADMAP's size, m = 87, to hold the work per scene fixed.
        Workload(
            "scene-large", "library",
            full=Size(dict(num_views=16, height=128, width=128, num_things=80,
                           num_stuff=2, world_size=256, corruption=L_CORRUPTION),
                      pool=30, per_run=3, m_band=(87, 87)),
            tiny=Size(TINY_SCENE, pool=2, per_run=1, descriptors=(64, 8), k=5),
            oracle_pairs=24,
            hold_scenes=False,  # 180 MB of float64 masks each; regenerate instead
        ),
        # The acceptance ablation scenes (m 9..22): anneal dominates merge_qubo.
        Workload(
            "scenes-small", "library",
            full=Size(dict(num_views=3, height=48, width=48, num_things=6, num_stuff=2,
                           world_size=96, corruption=SMALL_CORRUPTION),
                      pool=300, per_run=30),
            tiny=Size(dict(TINY_SCENE, corruption=SMALL_CORRUPTION), pool=4, per_run=2,
                      descriptors=(64, 8), k=5),
            exact_check=True,
        ),
        # M scenes through files and fresh interpreters: load, validation, start-up.
        Workload(
            "cli-pipeline", "cli",
            full=Size(dict(num_views=8, height=96, width=96, num_things=30, num_stuff=2,
                           world_size=192, corruption=L_CORRUPTION),
                      pool=30, per_run=3),
            tiny=Size(TINY_SCENE, pool=2, per_run=1, descriptors=(64, 8), k=5),
        ),
    ]
}


@dataclass
class Record:
    """Everything one run measures, counts and finds wrong."""

    times: dict = field(default_factory=lambda: defaultdict(list))  # op -> seconds
    scene_times: list = field(default_factory=list)  # untraced passes
    overhead: list = field(default_factory=list)  # traced / untraced - 1, per pair
    setup_times: list = field(default_factory=list)
    commands: dict = field(default_factory=lambda: defaultdict(list))  # CLI seconds
    rss_mb: dict = field(default_factory=lambda: defaultdict(float))  # command -> peak
    io_bytes: dict = field(default_factory=lambda: defaultdict(list))  # per pass
    attempted: int = 0
    failures: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)  # scene -> first outputs seen
    counts: dict = field(default_factory=dict)  # scene -> computed counts
    exact_hits: list = field(default_factory=list)
    startup_s: float | None = None
    passes: int = 0  # an operation fails at most once per pass
    _failed: set = field(default_factory=set)

    def fail(self, scene, op, reason):
        if (self.passes, scene, op) not in self._failed:
            self._failed.add((self.passes, scene, op))
            self.failures.append({"scene": scene, "op": op, "reason": reason})


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()[:20]


def map_digest(pmap: pm.PanopticMap) -> str:
    inst = np.ascontiguousarray(pmap.instance_ids, dtype=np.int32)
    return digest(inst.shape, inst.tobytes(), sorted(pmap.instance_to_class.items()))


def file_digest(*paths) -> str:
    return digest(*(Path(p).read_bytes() for p in paths))


def field_summary(dist: np.ndarray) -> list:
    """Observed-splat count, then the total mass of each label column."""
    dist = np.asarray(dist, dtype=np.float64)
    return [int((dist.sum(axis=1) > 0).sum())] + dist.sum(axis=0).tolist()


def wrong_outputs(observed: dict, ref: dict | None) -> list[str]:
    """Names of the reference values the observed outputs do not match."""
    if ref is None:
        return []
    bad = []
    for key, want in ref.items():
        got = observed.get(key)
        if got is None:
            ok = False
        elif key == "uplift":
            ok = len(got) == len(want) and got[0] == want[0] and np.allclose(
                got[1:], want[1:], rtol=UPLIFT_RTOL, atol=UPLIFT_RTOL)
        elif key in TOLERANCE:
            ok = abs(got - want) <= TOLERANCE[key]
        else:
            ok = got == want
        if not ok:
            bad.append(key)
    return bad


def segments(pmap: pm.PanopticMap) -> int:
    """Segments scene_pq scores in one map: each thing instance, each stuff class."""
    ids = [int(i) for i in np.unique(pmap.instance_ids) if i != 0]
    classes = [pmap.instance_to_class[i] for i in ids]
    things = sum(pmap.class_table.is_thing[c] for c in classes)
    return things + len({c for c in classes if not pmap.class_table.is_thing[c]})


def mask_counts(values: np.ndarray) -> dict:
    """Work the dense QUBO build does, computed from array sizes (not measured)."""
    m = values.shape[0]
    pixels = int(np.prod(values.shape[1:]))
    support = values.reshape(m, -1) > 0
    packed = np.packbits(support, axis=1)
    pairs = m * (m - 1) // 2
    overlapping = sum(int(np.any(packed[i] & packed[i + 1:], axis=1).sum())
                      for i in range(m - 1))
    cfg = pm.AnnealConfig()
    return {
        "qubo.m": m,
        "qubo.pairs": pairs,
        "qubo.pairs_overlapping": overlapping,
        "qubo.pair_hit_ratio": overlapping / pairs if pairs else 0.0,
        "masks.support_frac": float(support.mean()),
        "masks.dense_bytes": m * pixels * 8,
        "qubo.build_bytes_computed": (2 * pairs + m) * pixels * 8,
        "qubo.anneal_flip_attempts": cfg.restarts * cfg.sweeps * m,
    }


def descriptors(size: Size, scene_seed: int) -> np.ndarray:
    return np.random.default_rng([scene_seed, 7]).standard_normal(size.descriptors)


class Run:
    """One benchmark run: lazy set-up, measured scene passes, checks."""

    in_process = True  # layer calls happen in this process and can be wrapped

    def __init__(self, workload: Workload, size: Size, scene_seeds, refs, trace: bool,
                 workdir: Path):
        self.w, self.size, self.seeds = workload, size, list(scene_seeds)
        self.refs = refs  # scene seed (str) -> reference outputs, or None to record
        self.trace = trace
        self.tracer = Tracer()
        self.rec = Record()
        self.workdir = workdir
        self.scenes = {}  # scene seed -> inputs kept for later passes
        self.tracing = False  # inside a traced pass: times go to spans only

    def ref(self, seed):
        return None if self.refs is None else self.refs.get(str(seed), {})

    def traced(self, root: str, scene, fn, *args):
        """Run fn(*args) with every layer call recorded under a root span."""
        self.tracer.scene = scene
        restore = instrument(self.tracer) if self.in_process else (lambda: None)
        self.tracing = True
        try:
            with self.tracer.span(root):
                return fn(*args)
        finally:
            self.tracing = False
            restore()

    def set_up(self, s, make):
        """Inputs of scene s, made by make(s) on first use (traced under a
        "setup" root in a traced run) and kept when the workload holds scenes."""
        if s in self.scenes:
            return self.scenes[s]
        inputs = self.traced("setup", s, make, s) if self.trace else make(s)
        if self.w.hold_scenes:
            self.scenes[s] = inputs
        return inputs

    def check(self, scene, observed: dict):
        seen = self.rec.observed.setdefault(scene, {})
        for k, v in observed.items():
            seen.setdefault(k, v)
        ref = self.ref(scene)
        if ref is not None:
            ref = {k: v for k, v in ref.items() if k in observed}
        for op in wrong_outputs(observed, ref):
            self.rec.fail(scene, op, "output differs from reference")

    def measure(self, seconds: float) -> int:
        """Scene passes in round-robin order: one whole round, then on until
        `seconds` have passed. Returns the number of untraced passes."""
        self.warm_up()
        start, passes = time.perf_counter(), 0
        while passes < len(self.seeds) or time.perf_counter() - start < seconds:
            s = self.seeds[passes % len(self.seeds)]
            inputs = self.prepare(s)
            self.rec.passes += 1
            plain = self.scene_pass(s, inputs)
            self.rec.scene_times.append(plain)
            if self.trace:
                self.rec.passes += 1
                traced = self.traced("scene", s, self.scene_pass, s, inputs)
                self.rec.overhead.append(traced / plain - 1.0)
            passes += 1
            if passes == len(self.seeds):
                self.rec.passes += 1
                if self.trace:
                    self.traced("run", None, self.run_level_ops)
                else:
                    self.run_level_ops()
        return passes

    def step(self, scene, op, fn, *args):
        """Time one operation; an exception or a missing input fails it."""
        self.rec.attempted += 1
        if any(a is None for a in args):
            self.rec.fail(scene, op, "input missing after an earlier failure")
            return None, 0.0
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.rec.fail(scene, op, f"raised {exc!r}")
            out = None
        dt = time.perf_counter() - t0
        if not self.tracing:
            self.rec.times[op].append(dt)
        return out, dt

    def run_level_ops(self):
        pass

    def after_measure(self):
        pass


class LibraryRun(Run):
    def prepare(self, s):
        return self.set_up(s, self.generate)

    def generate(self, s):
        self.rec.attempted += 1
        t0 = time.perf_counter()
        gt, props, splats = pm.generate_scene(self.size.spec(s))
        self.rec.setup_times.append(time.perf_counter() - t0)
        if s not in self.rec.counts:
            self.rec.counts[s] = dict(mask_counts(props.values),
                                      **{"uplift.splat_records": splats.num_records})
        return gt, props, splats, descriptors(self.size, s)

    def warm_up(self):
        """One untimed pass over a tiny scene, so lazy imports and first-call
        costs fall outside the measurement."""
        gt, props, splats = pm.generate_scene(WORKLOADS["scene-large"].tiny.spec(0))
        desc = np.random.default_rng(0).standard_normal((64, 8))
        self._pipeline(None, gt, props, splats, desc, lambda scene, op, fn, *a: (fn(*a), 0.0))

    def scene_pass(self, s, inputs) -> float:
        gt, props, splats, desc = inputs
        first = s not in self.rec.observed
        observed, maps, total = self._pipeline(s, gt, props, splats, desc, self.step)
        if first:
            self.rec.counts[s]["metrics.segments"] = sum(
                segments(m) for m in maps if m is not None) + 3 * segments(gt)
            if self.w.exact_check:
                self._anneal_vs_exact(s, props)
            if self.w.oracle_pairs and s == self.seeds[0]:
                self._build_vs_oracles(s, props)
        self.check(s, observed)
        return total

    def _pipeline(self, s, gt, props, splats, desc, step):
        k = self.size.k
        times = []

        def run(op, fn, *args):
            out, dt = step(s, op, fn, *args)
            times.append(dt)
            return out

        def render_all(field, merged):
            views = np.stack([pm.render_labels(field, splats, v)
                              for v in range(splats.num_views)])
            return pm.PanopticMap.from_instances(
                views, merged.instance_to_class, merged.class_table)

        sel = run("fps", lambda d: pm.fps_select(pm.FrameDescriptors(d), k), desc)
        merged = run("merge", pm.merge_qubo, props)
        base = run("baseline", pm.merge_baseline, props)
        pq_q = run("pq_qubo", pm.scene_pq, merged, gt, gt.class_table)
        pq_b = run("pq_baseline", pm.scene_pq, base, gt, gt.class_table)
        field = run("uplift", pm.uplift_labels, merged, splats)
        round_trip = run("render", render_all, field, merged)
        pq_r = run("pq_roundtrip", pm.scene_pq, round_trip, gt, gt.class_table)
        observed = {
            "fps": None if sel is None else digest(sel),
            "merge": None if merged is None else map_digest(merged),
            "baseline": None if base is None else map_digest(base),
            "pq_qubo": None if pq_q is None else pq_q.pq,
            "pq_baseline": None if pq_b is None else pq_b.pq,
            "uplift": None if field is None else field_summary(field.distributions),
            "render": None if round_trip is None else map_digest(round_trip),
            "pq_roundtrip": None if pq_r is None else pq_r.pq,
        }
        return observed, (merged, base, round_trip), sum(times)

    def _anneal_vs_exact(self, s, props):
        """solve_anneal may miss the optimum (that is counted as a hit ratio),
        but it must never beat solve_exact and must report its own objective."""
        self.rec.attempted += 1
        q = pm.build_qubo(props)
        ann, ex = pm.solve_anneal(q), pm.solve_exact(q)
        tol = 1e-9 * max(1.0, abs(ex.objective))
        ok = (ann.bits.shape == (q.num_vars,)
              and ann.objective <= ex.objective + tol
              and abs(pm.objective(q, ann.bits) - ann.objective) <= tol)
        if not ok:
            self.rec.fail(s, "anneal_vs_exact", "anneal beats exact or misreports")
        self.rec.exact_hits.append(bool(np.array_equal(ann.bits, ex.bits)))

    def _build_vs_oracles(self, s, props):
        """A sample of build_qubo entries, seeded by the scene, against
        pairwise_overlap and weighted_area: half among overlapping pairs, half
        among all pairs, and as many linear terms."""
        self.rec.attempted += 1
        q = pm.build_qubo(props)
        m = q.num_vars
        rng = np.random.default_rng(s)
        iu, ju = np.triu_indices(m, 1)
        hit = np.flatnonzero(q.quadratic[iu, ju] > 0)
        half = self.w.oracle_pairs // 2
        picks = np.concatenate([rng.choice(hit, min(half, hit.size), replace=False),
                                rng.choice(iu.size, min(half, iu.size), replace=False)])
        bad = 0
        for p in picks:
            i, j = int(iu[p]), int(ju[p])
            want = pm.pairwise_overlap(props, i, j)
            bad += abs(q.quadratic[i, j] - want) > 1e-9 * max(1.0, want)
        for i in rng.choice(m, min(half, m), replace=False):
            want = pm.weighted_area(props, int(i))
            bad += abs(q.linear[i] - want) > 1e-9 * max(1.0, want)
        if bad:
            self.rec.fail(s, "build_vs_oracles", f"{bad} QUBO entries off the oracles")


class CliRun(Run):
    """Each operation is one `panomerge` command in a fresh interpreter; in a
    traced pass the command runs under traced_cli.py, which records its spans."""

    in_process = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for sub in ("scenes", "pred", "gt", "spans"):
            (self.workdir / sub).mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.calls = 0

    def command(self, scene, op, argv, reads=(), writes=()):
        """Run one CLI command; returns (exit code, seconds, (bytes read,
        bytes written)). Records peak RSS and, when tracing, the child's spans.
        Byte counts are computed from the sizes of the files named."""
        self.rec.attempted += 1
        self.calls += 1
        log = self.workdir / "spans" / f"{self.calls}.log"
        spans = self.workdir / "spans" / f"{self.calls}.json"
        argv = [str(a) for a in argv]
        if self.tracing:
            exe = [sys.executable, str(TRACED_CLI), str(spans)]
            span = self.tracer.open(f"cli.{argv[0]}")
        else:
            exe, span = [sys.executable, "-m", "panomerge.cli"], None
        code, dt, rss = run_child(exe + argv, self.env, log)
        if span is not None:
            self.tracer.close(span)
            if spans.exists():
                self.tracer.adopt(json.loads(spans.read_text()), span)
        else:
            self.rec.times[op].append(dt)
        cmd = "eval-pq-dataset" if "--dataset" in argv else argv[0]
        self.rec.commands[cmd].append(dt)
        self.rec.rss_mb[cmd] = max(self.rec.rss_mb[cmd], rss)
        if code != 0:
            tail = log.read_text(errors="replace")[-400:]
            self.rec.fail(scene, op, f"exit {code}: {tail}")
        nbytes = (sum(_size(p) for p in reads), sum(_size(p) for p in writes))
        return code, dt, nbytes

    def prepare(self, s):
        return self.set_up(s, self.synth)

    def synth(self, s):
        d = self.workdir / "scenes" / f"s{s}"
        spec = self.size.spec(s)
        cor = spec.corruption
        argv = ["synth", "--out", d, "--seed", s, "--views", spec.num_views,
                "--height", spec.height, "--width", spec.width,
                "--things", spec.num_things, "--stuff", spec.num_stuff,
                "--world", spec.world_size,
                "--duplicate-rate", cor.duplicate_rate,
                "--duplicate-count", cor.duplicate_count,
                "--fragment-rate", cor.fragment_rate,
                "--boundary-noise", cor.boundary_noise_px,
                "--softness", cor.softness, "--class-noise", cor.class_noise,
                "--view-gain-noise", cor.view_gain_noise]
        _, dt, _ = self.command(s, "synth", argv)
        self.rec.setup_times.append(dt)
        for ext in ("pmt", "json"):
            shutil.copyfile(d / f"gt.{ext}", self.workdir / "gt" / f"s{s}.{ext}")
        self.rec.counts[s] = dict(
            mask_counts(pio.read_tensor(d / "masks.pmt").astype(np.float64)),
            **{"uplift.splat_records": (_size(d / "splats.psw") - 20) // 14})
        if s == self.seeds[0]:
            pio.write_tensor(self.workdir / "desc.pmt",
                             descriptors(self.size, s).astype(np.float32))
        return d

    def warm_up(self):
        pass  # every command starts a fresh interpreter; nothing carries over

    def scene_pass(self, s, d) -> float:
        masks, probs, splats = d / "masks.pmt", d / "classprobs.pmt", d / "splats.psw"
        pred, gt = self.workdir / "pred" / f"s{s}.pmt", self.workdir / "gt" / f"s{s}.pmt"
        field, rendered, base = d / "field.pmt", d / "rendered.pmt", d / "baseline.pmt"
        side = lambda p: p.with_suffix(".json")  # noqa: E731
        pq = {k: d / f"{k}.json" for k in ("pq_qubo", "pq_baseline", "pq_roundtrip")}
        steps = [
            ("merge", ["merge", masks, probs, "--out", pred],
             [masks, probs, side(probs)], [pred, side(pred)]),
            ("baseline", ["merge-baseline", masks, probs, "--out", base],
             [masks, probs, side(probs)], [base, side(base)]),
            ("pq_qubo", ["eval-pq", pred, gt, "--out", pq["pq_qubo"]],
             [pred, side(pred), gt, side(gt)], [pq["pq_qubo"]]),
            ("pq_baseline", ["eval-pq", base, gt, "--out", pq["pq_baseline"]],
             [base, side(base), gt, side(gt)], [pq["pq_baseline"]]),
            ("uplift", ["uplift", pred, splats, "--out", field],
             [pred, side(pred), splats], [field]),
            ("render", ["render-labels", field, splats, pred, "--out", rendered],
             [field, splats, pred, side(pred)], [rendered, side(rendered)]),
            ("pq_roundtrip", ["eval-pq", rendered, gt, "--out", pq["pq_roundtrip"]],
             [rendered, side(rendered), gt, side(gt)], [pq["pq_roundtrip"]]),
        ]
        total, read, written = 0.0, 0, 0
        for op, argv, reads, writes in steps:
            _, dt, (r, w) = self.command(s, op, argv, reads, writes)
            total, read, written = total + dt, read + r, written + w
        self.rec.io_bytes["io.bytes_read"].append(read)
        self.rec.io_bytes["io.bytes_written"].append(written)
        observed = {
            "merge": _try(file_digest, pred, side(pred)),
            "baseline": _try(file_digest, base, side(base)),
            "uplift": _try(lambda: field_summary(pio.read_tensor(field))),
            "render": _try(file_digest, rendered, side(rendered)),
            **{k: _try(lambda p=p: json.loads(p.read_text())["pq"]) for k, p in pq.items()},
        }
        if "metrics.segments" not in self.rec.counts[s]:
            maps = [_try(pio.read_panoptic, p) for p in (pred, base, rendered)]
            self.rec.counts[s]["metrics.segments"] = sum(
                segments(m) for m in maps if m is not None) + 3 * segments(
                pio.read_panoptic(gt))
        self.check(s, observed)
        return total

    def run_level_ops(self):
        """One dataset evaluation over the run's scenes and one keyframe pick."""
        out = self.workdir / "dataset.json"
        fps_out = self.workdir / "fps.txt"
        self.command(None, "pq_dataset", ["eval-pq", self.workdir / "pred",
                                          self.workdir / "gt", "--dataset", "--out", out])
        self.command(None, "fps", ["fps", self.workdir / "desc.pmt", "--k", self.size.k,
                                   "--out", fps_out])
        got = _try(lambda: json.loads(out.read_text())["pq"])
        if self.refs is not None:
            want = np.mean([self.ref(s).get("pq_qubo", np.nan) for s in self.seeds])
            if got is None or not abs(got - want) <= TOLERANCE["pq_dataset"]:
                self.rec.fail(None, "pq_dataset", "dataset PQ differs from the scene mean")
        fps = _try(lambda: digest([int(t) for t in fps_out.read_text().split()]))
        self.check(self.seeds[0], {"fps": fps})

    def after_measure(self):
        if self.trace:
            self.rec.startup_s = cli_startup(self.env)


def _size(p) -> int:
    try:
        return os.path.getsize(p)
    except OSError:
        return 0


def _try(fn, *args):
    """Read back an output for checking; a missing or unreadable one is None."""
    try:
        return fn(*args)
    except (OSError, ValueError, KeyError, pio.FormatError):
        return None


def run_child(argv, env, log: Path):
    """Run a child to completion through launch.py; returns (exit code,
    seconds, peak RSS MB). A launcher that fails reports exit code -1."""
    result = log.with_suffix(".result")
    with open(log, "wb") as out:
        subprocess.run([sys.executable, "-S", str(LAUNCH), str(result), *argv], env=env,
                       stdout=out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                       timeout=170)
    try:
        r = json.loads(result.read_text())
    except (OSError, ValueError):
        return -1, 0.0, 0.0
    return r["code"], r["seconds"], r["rss_mb"]


def cli_startup(env, repeats: int = 3) -> float:
    """Import time of panomerge.cli in a fresh interpreter, less a bare one."""
    def timed(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdin=subprocess.DEVNULL, timeout=60)
        return time.perf_counter() - t0

    bare = statistics.median(timed("pass") for _ in range(repeats))
    full = statistics.median(timed("import panomerge.cli") for _ in range(repeats))
    return full - bare


def make_run(workload: Workload, size: Size, scene_seeds, refs, trace, workdir) -> Run:
    cls = CliRun if workload.kind == "cli" else LibraryRun
    return cls(workload, size, scene_seeds, refs, trace, workdir)


def size_key(size: Size) -> dict:
    return json.loads(json.dumps(asdict(size)))
