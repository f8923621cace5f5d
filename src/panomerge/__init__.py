"""Multi-view panoptic mask merging via QUBO, scene-PQ metrics, splat label
uplifting, and farthest-point keyframe selection."""

from .keyframe import FrameDescriptors, fps_select
from .masks import (
    ClassTable,
    PanopticMap,
    SoftMaskSet,
    pairwise_overlap,
    weighted_area,
)
from .merging import BaselineConfig, MergeConfig, merge_baseline, merge_qubo
from .metrics import PqReport, dataset_pq, iou, scene_pq
from .qubo import (
    AnnealConfig,
    Assignment,
    QuboInstance,
    build_qubo,
    objective,
    solve_anneal,
    solve_exact,
)
from .synthgen import CorruptionSpec, SceneSpec, generate_scene
from .uplift import SplatLabelField, SplatWeightTable, render_labels, uplift_labels

__all__ = [
    "AnnealConfig",
    "Assignment",
    "BaselineConfig",
    "ClassTable",
    "CorruptionSpec",
    "FrameDescriptors",
    "MergeConfig",
    "PanopticMap",
    "PqReport",
    "QuboInstance",
    "SceneSpec",
    "SoftMaskSet",
    "SplatLabelField",
    "SplatWeightTable",
    "build_qubo",
    "dataset_pq",
    "fps_select",
    "generate_scene",
    "iou",
    "merge_baseline",
    "merge_qubo",
    "objective",
    "pairwise_overlap",
    "render_labels",
    "scene_pq",
    "solve_anneal",
    "solve_exact",
    "uplift_labels",
    "weighted_area",
]

__version__ = "0.1.0"
