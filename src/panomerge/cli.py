"""Command-line surface tying the pipeline together.

Subcommands: synth, merge, merge-baseline, eval-pq, uplift, render-labels,
fps, solve-qubo. Exit codes: 0 ok, 2 usage/validation error, 3 I/O, parse or
memory error. Every command is deterministic given its inputs and flags.

An optional flag left out is left out: each flag stores into the name of the
library field or parameter it sets, and a command passes on only the flags
given, so the library supplies every default and every check. A command
builds its config before it reads any input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import io as pio
from .keyframe import FrameDescriptors, fps_select
from .masks import PanopticMap, SoftMaskSet
from .merging import BaselineConfig, MergeConfig, merge_baseline, merge_qubo
from .metrics import dataset_pq, scene_pq
from .qubo import AnnealConfig, QuboInstance, solve_anneal, solve_exact
from .synthgen import CorruptionSpec, SceneSpec, generate_scene
from .uplift import SplatLabelField, render_labels, uplift_labels

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3


def _config(cls, args, **nested):
    """`cls` built from the flags given whose dest is one of its fields, plus
    the `nested` configs."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in vars(args).items() if k in names}, **nested)


def _add_anneal_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int)
    p.add_argument("--sweeps", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--cooling", type=float, dest="cooling_rate")


def _load_mask_set(masks_path: str, probs_path: str) -> SoftMaskSet:
    probs = pio.read_tensor(probs_path)
    table = pio.read_class_table(Path(probs_path).with_suffix(".json"))
    # read and widened one row at a time, so no whole tensor is ever held
    return SoftMaskSet(pio.read_tensor_rows(masks_path), probs, table)


def cmd_synth(args) -> int:
    spec = _config(SceneSpec, args, corruption=_config(CorruptionSpec, args))
    gt, proposals, splats = generate_scene(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pio.write_panoptic(out / "gt.pmt", gt)
    # one row at a time, so no dense copy of the whole set is made
    rows = (proposals.dense_rows([q]) for q in range(proposals.num_queries))
    pio.write_tensor_rows(out / "masks.pmt", np.float32, proposals.shape, rows)
    pio.write_tensor(out / "classprobs.pmt", proposals.class_probs.astype(np.float32))
    pio.write_class_table(out / "classprobs.json", proposals.class_table)
    pio.write_splats(out / "splats.psw", splats)
    print(f"wrote scene with m={proposals.num_queries} proposals to {out}")
    return EXIT_OK


def cmd_merge(args) -> int:
    cfg = _config(MergeConfig, args, anneal=_config(AnnealConfig, args))
    masks = _load_mask_set(args.masks, args.classprobs)
    pmap = merge_qubo(masks, cfg)
    pio.write_panoptic(args.out, pmap)
    print(f"selected {len(pmap.instance_to_class)} proposals")
    return EXIT_OK


def cmd_merge_baseline(args) -> int:
    cfg = _config(BaselineConfig, args)
    masks = _load_mask_set(args.masks, args.classprobs)
    pmap = merge_baseline(masks, cfg)
    pio.write_panoptic(args.out, pmap)
    print(f"kept {len(pmap.instance_to_class)} proposals")
    return EXIT_OK


def _upsample_nearest(pmap: PanopticMap, height: int, width: int) -> PanopticMap:
    if height % pmap.height or width % pmap.width:
        raise ValueError(
            f"height {pmap.height} and width {pmap.width} do not divide "
            f"target {height}x{width} by an exact integer factor"
        )
    fy, fx = height // pmap.height, width // pmap.width
    inst = np.repeat(np.repeat(pmap.instance_ids, fy, axis=1), fx, axis=2)
    return PanopticMap(inst, pmap.instance_to_class, pmap.class_table)


def _eval_pair(pred_path, gt_path, void_exemption: bool):
    pred = pio.read_panoptic(pred_path)
    gt = pio.read_panoptic(gt_path)
    if (pred.height, pred.width) != (gt.height, gt.width):
        if pred.height * pred.width < gt.height * gt.width:
            pred = _upsample_nearest(pred, gt.height, gt.width)
        else:
            gt = _upsample_nearest(gt, pred.height, pred.width)
    return scene_pq(pred, gt, gt.class_table, void_exemption=void_exemption)


def cmd_eval_pq(args) -> int:
    void_exemption = not args.no_void_exemption
    if args.dataset:
        pred_dir, gt_dir = Path(args.pred), Path(args.gt)
        stems = sorted(p.stem for p in pred_dir.glob("*.pmt"))
        pairs = [
            (pred_dir / f"{s}.pmt", gt_dir / f"{s}.pmt")
            for s in stems
            if (gt_dir / f"{s}.pmt").exists()
        ]
        reports = [_eval_pair(pred, gt, void_exemption) for pred, gt in pairs]
        doc = dataset_pq(reports).to_json_dict()
        doc["scenes"] = [
            {"scene": s.stem, **r.to_json_dict()} for (s, _), r in zip(pairs, reports)
        ]
    else:
        report = _eval_pair(args.pred, args.gt, void_exemption)
        doc = report.to_json_dict()
        if not args.per_class:
            doc.pop("per_class")
    text = json.dumps(doc, indent=1, sort_keys=True)
    if args.out:
        pio.write_files({args.out: [text.encode()]})
    else:
        print(text)
    return EXIT_OK


def cmd_uplift(args) -> int:
    labels = pio.read_panoptic(args.labels)
    splats = pio.read_splats(args.splats)
    field = uplift_labels(labels, splats)
    indptr, ids, masses = field.support
    dense = np.zeros(field.shape, dtype=np.float32)  # filled only at the support
    dense[np.repeat(np.arange(field.shape[0]), np.diff(indptr)), ids] = masses
    pio.write_tensor(args.out, dense)
    print(f"uplifted onto {int(field.observed.sum())} observed splats")
    return EXIT_OK


def cmd_render_labels(args) -> int:
    dense = pio.read_tensor(args.field)
    keys = np.flatnonzero(dense != 0)  # bool scan; only these entries are widened
    field = SplatLabelField(dense.shape, keys, dense.ravel()[keys])
    splats = pio.read_splats(args.splats)
    labels = pio.read_panoptic(args.labels)
    views = range(splats.num_views) if args.view is None else [args.view]
    rendered = np.stack([render_labels(field, splats, v) for v in views])
    # the classes the labels give the rendered IDs; PanopticMap names any gap
    ids = set(np.unique(rendered).tolist()) - {0}
    mapping = {i: c for i, c in labels.instance_to_class.items() if i in ids}
    pmap = PanopticMap(rendered, mapping, labels.class_table)
    pio.write_panoptic(args.out, pmap)
    print(f"rendered {rendered.shape[0]} view(s)")
    return EXIT_OK


def cmd_fps(args) -> int:
    vectors = pio.read_tensor(args.descriptors)
    given = {n: getattr(args, n) for n in ("k", "seed_index", "metric") if n in args}
    selected = fps_select(FrameDescriptors(vectors), **given)
    text = " ".join(str(i) for i in selected)
    if args.out:
        pio.write_files({args.out: [f"{text}\n".encode()]})
    else:
        print(text)
    return EXIT_OK


def cmd_solve_qubo(args) -> int:
    cfg = _config(AnnealConfig, args)
    try:
        doc = json.loads(Path(args.instance).read_text())
        fields = [np.asarray(doc[k], dtype=np.float64) for k in ("linear", "quadratic")]
        if "penalty" in doc:
            fields.append(float(doc["penalty"]))
    except pio.JSON_FIELD_ERRORS as exc:
        raise pio.FormatError(f"{args.instance}: bad QUBO instance: {exc}") from exc
    q = QuboInstance(*fields)
    if "exact" in args:
        result = solve_exact(q)
    else:
        result = solve_anneal(q, cfg)
    print(f"u={[int(b) for b in result.bits]}")
    print(f"objective={result.objective}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panomerge",
        description="Multi-view panoptic mask merging, metrics, and uplifting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag left out is absent from args, so the library's default applies
    omit = {"argument_default": argparse.SUPPRESS}

    p = sub.add_parser("synth", help="generate a synthetic benchmark scene", **omit)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--views", type=int, dest="num_views")
    p.add_argument("--height", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--things", type=int, dest="num_things")
    p.add_argument("--stuff", type=int, dest="num_stuff")
    p.add_argument("--world", type=int, dest="world_size")
    p.add_argument("--duplicate-rate", type=float)
    p.add_argument("--duplicate-count", type=int)
    p.add_argument("--fragment-rate", type=float)
    p.add_argument("--boundary-noise", type=int, dest="boundary_noise_px")
    p.add_argument("--softness", type=float)
    p.add_argument("--class-noise", type=float)
    p.add_argument("--view-gain-noise", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("merge", help="QUBO mask merging", **omit)
    p.add_argument("masks")
    p.add_argument("classprobs")
    p.add_argument("--out", required=True)
    p.add_argument("--lambda-p", type=float, dest="penalty")
    p.add_argument("--void-threshold", type=float)
    p.add_argument("--prefilter", type=float, dest="confidence_prefilter")
    p.add_argument("--solver")
    _add_anneal_flags(p)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("merge-baseline", help="standard voting-based merging", **omit)
    p.add_argument("masks")
    p.add_argument("classprobs")
    p.add_argument("--out", required=True)
    p.add_argument("--conf-threshold", type=float, dest="confidence_threshold")
    p.add_argument("--vote-threshold", type=float, dest="vote_support_threshold")
    p.set_defaults(func=cmd_merge_baseline)

    p = sub.add_parser("eval-pq", help="scene or dataset Panoptic Quality")
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--dataset", action="store_true", help="treat args as directories")
    p.add_argument("--per-class", action="store_true")
    p.add_argument("--no-void-exemption", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_pq)

    p = sub.add_parser("uplift", help="uplift labels onto splats")
    p.add_argument("labels")
    p.add_argument("splats")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_uplift)

    p = sub.add_parser("render-labels", help="render uplifted labels to views")
    p.add_argument("field")
    p.add_argument("splats")
    p.add_argument("labels", help="panoptic file providing classes for the labels")
    p.add_argument("--view", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render_labels)

    p = sub.add_parser("fps", help="farthest-point keyframe selection", **omit)
    p.add_argument("descriptors")
    p.add_argument("--k", type=int)
    p.add_argument("--seed-index", type=int)
    p.add_argument("--metric")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fps)

    p = sub.add_parser("solve-qubo", help="solve a QUBO instance from JSON", **omit)
    p.add_argument("instance")
    p.add_argument("--exact", action="store_true")
    _add_anneal_flags(p)
    p.set_defaults(func=cmd_solve_qubo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (pio.FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: {args.command}: out of memory: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
