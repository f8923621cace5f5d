import argparse
import json
import os
import resource
import struct
import subprocess
import sys

import numpy as np
import pytest

from panomerge import cli
from panomerge.cli import main
from panomerge.io import (
    read_panoptic,
    read_splats,
    read_tensor,
    write_panoptic,
    write_splats,
    write_tensor,
)
from panomerge.keyframe import FrameDescriptors, fps_select
from panomerge.masks import ClassTable, PanopticMap
from panomerge.merging import BaselineConfig, MergeConfig, merge_baseline, merge_qubo
from panomerge.qubo import AnnealConfig, build_qubo
from panomerge.synthgen import CorruptionSpec, SceneSpec, generate_scene
from panomerge.uplift import (
    SplatLabelField,
    SplatWeightTable,
    render_labels,
    uplift_labels,
)


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def scene_dir(tmp_path):
    out = tmp_path / "scene"
    assert run(["synth", "--out", out, "--seed", "5"]) == 0
    return out


def test_cli_import_skips_heavy_scipy_modules():
    # the library needs numpy alone: not even a blurred scene loads scipy
    code = (
        "import sys, panomerge.cli; "
        "from panomerge import CorruptionSpec, SceneSpec, generate_scene; "
        "generate_scene(SceneSpec(corruption=CorruptionSpec(softness=1.0))); "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out.strip() == "[]"


class TestLibraryDefaults:
    """With no optional flags, each command hands the library its own defaults."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = {}
        for name in ("generate_scene", "merge_qubo", "merge_baseline"):

            def spy(*args, name=name, real=getattr(cli, name)):
                seen[name] = args[-1]  # the spec or config, passed last
                return real(*args)

            monkeypatch.setattr(cli, name, spy)
        return seen

    def test_synth_merge_and_baseline(self, calls, tmp_path):
        scene = tmp_path / "scene"
        assert run(["synth", "--out", scene]) == 0
        assert calls["generate_scene"] == SceneSpec(seed=0)
        masks = [scene / "masks.pmt", scene / "classprobs.pmt"]
        assert run(["merge", *masks, "--out", tmp_path / "q.pmt"]) == 0
        assert calls["merge_qubo"] == MergeConfig()
        assert run(["merge-baseline", *masks, "--out", tmp_path / "b.pmt"]) == 0
        assert calls["merge_baseline"] == BaselineConfig()

    def test_fps(self, tmp_path, capsys):
        vectors = np.random.default_rng(0).random((80, 4)).astype(np.float32)
        path = tmp_path / "desc.pmt"
        write_tensor(path, vectors)
        capsys.readouterr()
        assert run(["fps", path]) == 0
        selected = [int(t) for t in capsys.readouterr().out.split()]
        assert selected == fps_select(FrameDescriptors(vectors))


class Spied(Exception):
    """Raised by a spied library call, so the command stops there."""


def optional_flags(command):
    """The long options of a subcommand, bar --help."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    flags = {s for a in actions for s in a.option_strings if s.startswith("--")}
    return flags - {"--help"}


ANNEAL_FLAGS = ["--seed", "3", "--sweeps", "20", "--restarts", "2", "--cooling", "0.9"]
ANNEAL = AnnealConfig(seed=3, cooling_rate=0.9, sweeps=20, restarts=2)


class TestFlagsReachFields:
    """Each optional flag, given a value other than the library's default,
    reaches its own field of the config that the library call receives."""

    CASES = {
        "synth": (
            "generate_scene",
            ["--seed", "7", "--views", "4", "--height", "40", "--width", "44",
             "--things", "5", "--stuff", "3", "--world", "80",
             "--duplicate-rate", "0.3", "--duplicate-count", "3",
             "--fragment-rate", "0.2", "--boundary-noise", "2",
             "--softness", "1.5", "--class-noise", "0.4",
             "--view-gain-noise", "0.1"],
            SceneSpec(
                seed=7, num_views=4, height=40, width=44, num_things=5,
                num_stuff=3, world_size=80,
                corruption=CorruptionSpec(
                    duplicate_rate=0.3, duplicate_count=3, fragment_rate=0.2,
                    boundary_noise_px=2, softness=1.5, class_noise=0.4,
                    view_gain_noise=0.1,
                ),
            ),
        ),
        "merge": (
            "merge_qubo",
            ["--lambda-p", "3", "--void-threshold", "0.4", "--prefilter", "0.2",
             "--solver", "exact", *ANNEAL_FLAGS],
            MergeConfig(
                penalty=3.0, void_threshold=0.4, confidence_prefilter=0.2,
                solver="exact", anneal=ANNEAL,
            ),
        ),
        "merge-baseline": (
            "merge_baseline",
            ["--conf-threshold", "0.3", "--vote-threshold", "0.6"],
            BaselineConfig(confidence_threshold=0.3, vote_support_threshold=0.6),
        ),
        "solve-qubo": ("solve_anneal", ANNEAL_FLAGS, ANNEAL),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_every_flag_reaches_its_field(
        self, command, scene_dir, tmp_path, monkeypatch
    ):
        name, flags, expected = self.CASES[command]
        seen = []

        def spy(*args):
            seen.append(args[-1])  # the spec or config, passed last
            raise Spied

        monkeypatch.setattr(cli, name, spy)
        instance = tmp_path / "q.json"
        instance.write_text(json.dumps({"linear": [1.0], "quadratic": [[0.0]]}))
        masks = [scene_dir / "masks.pmt", scene_dir / "classprobs.pmt"]
        inputs = {
            "synth": ["--out", tmp_path / "s"],
            "merge": [*masks, "--out", tmp_path / "m.pmt"],
            "merge-baseline": [*masks, "--out", tmp_path / "b.pmt"],
            "solve-qubo": [instance],
        }[command]
        with pytest.raises(Spied):
            run([command, *inputs, *flags])
        assert seen == [expected]
        # every optional flag that sets a field is given above
        given = {f for f in flags if f.startswith("--")}
        assert given == optional_flags(command) - {"--out", "--exact"}

    @pytest.mark.parametrize(
        "command",
        ["synth", "merge", "merge-baseline", "eval-pq", "uplift", "render-labels",
         "fps", "solve-qubo"],
    )
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: panomerge {command}")


class TestSynthAndMerge:
    def test_pipeline_synth_merge_eval(self, scene_dir, tmp_path, capsys):
        merged = tmp_path / "merged.pmt"
        code = run(
            ["merge", scene_dir / "masks.pmt", scene_dir / "classprobs.pmt",
             "--out", merged]
        )
        assert code == 0
        out = tmp_path / "report.json"
        code = run(["eval-pq", merged, scene_dir / "gt.pmt", "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pq"] == 100.0

    @pytest.mark.parametrize(
        "flags",
        [
            ["--softness", "inf"],
            ["--softness", "nan"],
            ["--class-noise", "nan"],
            ["--things", "-1"],
        ],
    )
    def test_bad_spec_is_exit_2_and_writes_nothing(self, tmp_path, capsys, flags):
        out = tmp_path / "scene"
        assert run(["synth", "--out", out, *flags]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_merge_baseline_roundtrip(self, scene_dir, tmp_path):
        merged = tmp_path / "b.pmt"
        assert run(
            ["merge-baseline", scene_dir / "masks.pmt",
             scene_dir / "classprobs.pmt", "--out", merged]
        ) == 0
        assert read_panoptic(merged).instance_ids.shape[0] == 3

    def test_lambda_p_at_most_one_is_usage_error(self, scene_dir, tmp_path):
        code = run(
            ["merge", scene_dir / "masks.pmt", scene_dir / "classprobs.pmt",
             "--out", tmp_path / "x.pmt", "--lambda-p", "1.0"]
        )
        assert code == 2

    def test_prefilter_matches_library(self, tmp_path):
        scene = tmp_path / "scene"
        assert run(["synth", "--out", scene, "--seed", "5", "--class-noise", "1"]) == 0
        masks = cli._load_mask_set(scene / "masks.pmt", scene / "classprobs.pmt")
        conf = np.sort(masks.class_probs.max(axis=1))
        t = float(conf[conf.size // 2])
        assert conf[0] < t  # some queries are dropped
        write_panoptic(
            tmp_path / "lib.pmt", merge_qubo(masks, MergeConfig(confidence_prefilter=t))
        )
        code = run(
            ["merge", scene / "masks.pmt", scene / "classprobs.pmt",
             "--out", tmp_path / "cli.pmt", "--prefilter", repr(t)]
        )
        assert code == 0
        for suffix in (".pmt", ".json"):
            lib, out = (tmp_path / f"{n}{suffix}" for n in ("lib", "cli"))
            assert out.read_bytes() == lib.read_bytes()

    def test_prefilter_above_one_is_exit_2(self, scene_dir, tmp_path, capsys):
        code = run(
            ["merge", scene_dir / "masks.pmt", scene_dir / "classprobs.pmt",
             "--out", tmp_path / "m.pmt", "--prefilter", "1.5"]
        )
        assert code == 2
        assert "confidence_prefilter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("merge-baseline", ["--conf-threshold", "2"],
             "confidence_threshold must lie in [0, 1], got 2.0"),
            ("merge-baseline", ["--vote-threshold", "-1"],
             "vote_support_threshold must lie in [0, 1], got -1.0"),
            ("merge", ["--lambda-p", "inf"], "penalty must be finite and exceed 1"),
        ],
    )
    def test_bad_config_is_exit_2_before_any_read(
        self, tmp_path, capsys, command, flags, message
    ):
        missing = tmp_path / "missing"
        code = run(
            [command, missing / "m.pmt", missing / "c.pmt",
             "--out", tmp_path / "x.pmt", *flags]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_is_exit_2_and_writes_nothing(
        self, scene_dir, tmp_path, capsys
    ):
        out = tmp_path / "m.pmt"
        code = run(
            ["merge", scene_dir / "masks.pmt", scene_dir / "classprobs.pmt",
             "--out", out, "--seed", "-1"]
        )
        assert code == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [scene_dir]

    def test_json_out_is_exit_2_and_writes_nothing(self, scene_dir, tmp_path):
        code = run(
            ["merge", scene_dir / "masks.pmt", scene_dir / "classprobs.pmt",
             "--out", tmp_path / "x.json"]
        )
        assert code == 2
        assert not (tmp_path / "x.json").exists()

    def test_exact_solver_guard(self, tmp_path, capsys):
        out = tmp_path / "big"
        assert run(
            ["synth", "--out", out, "--seed", "1", "--things", "30",
             "--world", "128", "--duplicate-rate", "1.0",
             "--duplicate-count", "2"]
        ) == 0
        code = run(
            ["merge", out / "masks.pmt", out / "classprobs.pmt",
             "--out", tmp_path / "m.pmt", "--solver", "exact"]
        )
        assert code == 2
        assert "24" in capsys.readouterr().err

    def test_unknown_solver_is_exit_2(self, scene_dir, tmp_path, capsys):
        code = run(
            ["merge", scene_dir / "masks.pmt", scene_dir / "classprobs.pmt",
             "--out", tmp_path / "m.pmt", "--solver", "greedy"]
        )
        assert code == 2
        assert "unknown solver 'greedy'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["merge", "merge-baseline"])
    def test_nan_mask_is_exit_2(self, scene_dir, tmp_path, capsys, command):
        masks = read_tensor(scene_dir / "masks.pmt")
        masks[0, 0, 0, 0] = np.nan
        write_tensor(scene_dir / "masks.pmt", masks)
        code = run(
            [command, scene_dir / "masks.pmt", scene_dir / "classprobs.pmt",
             "--out", tmp_path / "x.pmt"]
        )
        assert code == 2
        assert "mask values" in capsys.readouterr().err

    def test_parse_error_is_exit_3(self, tmp_path):
        bad = tmp_path / "bad.pmt"
        bad.write_bytes(b"garbage")
        code = run(["merge", bad, bad, "--out", tmp_path / "x.pmt"])
        assert code == 3

    def test_class_table_of_wrong_shape_is_exit_3(self, scene_dir, tmp_path):
        (scene_dir / "classprobs.json").write_text('"x"')
        code = run(
            ["merge", scene_dir / "masks.pmt", scene_dir / "classprobs.pmt",
             "--out", tmp_path / "x.pmt"]
        )
        assert code == 3

    def test_synth_writes_the_whole_array_encoding(self, tmp_path):
        # synth writes the proposals one float32 row at a time; the bytes are
        # those of the whole (m, N, H, W) array cast to float32 and written
        flags = {"--seed": 4, "--softness": 1.0, "--view-gain-noise": 0.3,
                 "--duplicate-rate": 0.5, "--boundary-noise": 2}
        assert run(["synth", "--out", tmp_path / "s", *sum(flags.items(), ())]) == 0
        cor = CorruptionSpec(softness=1.0, view_gain_noise=0.3,
                             duplicate_rate=0.5, boundary_noise_px=2)
        _, props, _ = generate_scene(SceneSpec(seed=4, corruption=cor))
        write_tensor(tmp_path / "whole.pmt", props.values.astype(np.float32))
        written = (tmp_path / "s" / "masks.pmt").read_bytes()
        assert written == (tmp_path / "whole.pmt").read_bytes()


def test_pipeline_never_reads_dense_values(tmp_path, no_dense_values):
    cor = CorruptionSpec(duplicate_rate=0.5, fragment_rate=0.3, boundary_noise_px=2,
                         softness=1.0, view_gain_noise=0.3)
    _, props, _ = generate_scene(SceneSpec(seed=2, corruption=cor))
    with pytest.raises(AssertionError, match="values was read"):
        props.values
    build_qubo(props)
    merge_qubo(props)
    merge_qubo(props, MergeConfig(confidence_prefilter=0.9))
    merge_baseline(props)
    scene = tmp_path / "scene"
    assert run(["synth", "--out", scene, "--seed", 2, "--softness", 1.0]) == 0
    masks = [scene / "masks.pmt", scene / "classprobs.pmt"]
    assert run(["merge", *masks, "--out", tmp_path / "q.pmt"]) == 0
    assert run(["merge-baseline", *masks, "--out", tmp_path / "b.pmt"]) == 0


class TestEvalPq:
    def test_identity_pq_100(self, scene_dir, tmp_path, capsys):
        capsys.readouterr()
        assert run(["eval-pq", scene_dir / "gt.pmt", scene_dir / "gt.pmt"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pq"] == 100.0

    def test_per_class_rows(self, scene_dir, capsys):
        capsys.readouterr()
        assert run(
            ["eval-pq", scene_dir / "gt.pmt", scene_dir / "gt.pmt", "--per-class"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert {"class_id", "pq", "sq", "rq"} <= set(report["per_class"][0])

    def test_half_resolution_pred_upsampled(self, scene_dir, tmp_path, capsys):
        gt = read_panoptic(scene_dir / "gt.pmt")
        from panomerge.io import write_panoptic
        from panomerge.masks import PanopticMap

        half = PanopticMap.from_instances(
            gt.instance_ids[:, ::2, ::2], gt.instance_to_class, gt.class_table
        )
        base = tmp_path / "half.pmt"
        write_panoptic(base, half)
        capsys.readouterr()
        assert run(["eval-pq", base, scene_dir / "gt.pmt"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pq"] > 90.0  # nearest upsampling of a downsampled map

    def test_non_integer_factor_is_exit_2(self, scene_dir, tmp_path, capsys):
        gt = read_panoptic(scene_dir / "gt.pmt")
        from panomerge.io import write_panoptic
        from panomerge.masks import PanopticMap

        odd = PanopticMap.from_instances(
            gt.instance_ids[:, :30, :30], gt.instance_to_class, gt.class_table
        )
        base = tmp_path / "odd.pmt"
        write_panoptic(base, odd)
        assert run(["eval-pq", base, scene_dir / "gt.pmt"]) == 2

    @pytest.mark.parametrize(
        "sidecar",
        [
            [1, 2],
            {"class_table": {"names": ["a"], "is_thing": [True]},
             "instance_to_class": [1, 2]},
            {"class_table": "x", "instance_to_class": {}},
            {"class_table": {"names": 5, "is_thing": [True]},
             "instance_to_class": {}},
        ],
    )
    def test_sidecar_of_wrong_shape_is_exit_3(self, scene_dir, sidecar, capsys):
        (scene_dir / "gt.json").write_text(json.dumps(sidecar))
        assert run(["eval-pq", scene_dir / "gt.pmt", scene_dir / "gt.pmt"]) == 3
        assert "bad sidecar" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda to_class, k: to_class.update({k: to_class[k] + 0.7}),
            lambda to_class, k: to_class.update({k: str(to_class[k])}),
            lambda to_class, k: to_class.update({"0" + k: to_class[k]}),
        ],
        ids=["float-class", "string-class", "zero-padded-key"],
    )
    def test_sidecar_not_as_written_is_exit_3(self, scene_dir, tmp_path, edit, capsys):
        sidecar = scene_dir / "gt.json"
        meta = json.loads(sidecar.read_text())
        edit(meta["instance_to_class"], next(iter(meta["instance_to_class"])))
        sidecar.write_text(json.dumps(meta))
        out = tmp_path / "pq.json"
        gt = scene_dir / "gt.pmt"
        assert run(["eval-pq", gt, gt, "--out", out]) == 3
        assert "bad sidecar" in capsys.readouterr().err
        assert not out.exists()

    def test_dataset_mode_means_scene_pqs(self, tmp_path, capsys):
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        for seed in (1, 2, 3):
            scene = tmp_path / f"s{seed}"
            assert run(["synth", "--out", scene, "--seed", seed]) == 0
            for d in (pred_dir, gt_dir):
                (d / f"scene{seed}.pmt").write_bytes(
                    (scene / "gt.pmt").read_bytes()
                )
                (d / f"scene{seed}.json").write_text(
                    (scene / "gt.json").read_text()
                )
        capsys.readouterr()
        assert run(["eval-pq", pred_dir, gt_dir, "--dataset"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["num_scenes"] == 3
        assert report["pq"] == 100.0

    def test_dataset_mode_without_matching_pairs_writes_nothing(
        self, scene_dir, tmp_path, capsys
    ):
        pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        (pred_dir / "scene1.pmt").write_bytes((scene_dir / "gt.pmt").read_bytes())
        (pred_dir / "scene1.json").write_text((scene_dir / "gt.json").read_text())
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert run(["eval-pq", pred_dir, gt_dir, "--dataset", "--out", out]) == 2
        assert "at least one scene" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gt", "pred", "scene"]


def test_uplift_and_render_never_read_dense_distributions(
    scene_dir, tmp_path, monkeypatch
):
    gt = read_panoptic(scene_dir / "gt.pmt")
    splats = read_splats(scene_dir / "splats.psw")
    views = range(splats.num_views)
    want = [render_labels(uplift_labels(gt, splats), splats, v) for v in views]
    field, rendered = tmp_path / "field.pmt", tmp_path / "rendered.pmt"

    def unread(field):
        raise AssertionError("SplatLabelField.distributions was read")

    monkeypatch.setattr(SplatLabelField, "distributions", property(unread))
    assert run(["uplift", scene_dir / "gt.pmt", scene_dir / "splats.psw",
                "--out", field]) == 0
    uplifted = uplift_labels(gt, splats)
    for v in views:
        np.testing.assert_array_equal(render_labels(uplifted, splats, v), want[v])
    assert run(["render-labels", field, scene_dir / "splats.psw",
                scene_dir / "gt.pmt", "--out", rendered]) == 0
    np.testing.assert_array_equal(read_panoptic(rendered).instance_ids, np.stack(want))


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_out_of_memory_is_exit_3_and_writes_nothing(tmp_path):
    labels, splats = tmp_path / "labels.pmt", tmp_path / "forged.psw"
    out = tmp_path / "field.pmt"
    table = ClassTable(("a",), (True,))
    write_panoptic(labels, PanopticMap.from_instances(
        np.ones((1, 2, 2), dtype=np.int32), {1: 0}, table))
    # no records, but a header that claims G = 2^31 splats
    splats.write_bytes(b"PSW1" + struct.pack("<4I", 1 << 31, 1, 2, 2))
    # the limit is set in the one child only
    proc = subprocess.run(
        [sys.executable, "-m", "panomerge.cli", "uplift", labels, splats, "--out", out],
        capture_output=True, text=True, preexec_fn=_limit_address_space,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
             "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: uplift: out of memory: ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


class TestUpliftRender:
    def test_uplift_then_render_round_trip(self, scene_dir, tmp_path, capsys):
        merged = tmp_path / "merged.pmt"
        assert run(
            ["merge", scene_dir / "masks.pmt", scene_dir / "classprobs.pmt",
             "--out", merged]
        ) == 0
        field = tmp_path / "field.pmt"
        assert run(
            ["uplift", merged, scene_dir / "splats.psw", "--out", field]
        ) == 0
        rendered = tmp_path / "rendered.pmt"
        assert run(
            ["render-labels", field, scene_dir / "splats.psw", merged,
             "--out", rendered]
        ) == 0
        capsys.readouterr()
        assert run(["eval-pq", rendered, scene_dir / "gt.pmt"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pq"] == 100.0

    def test_class_key_beyond_id_range_is_exit_2_and_writes_nothing(
        self, scene_dir, tmp_path, capsys
    ):
        # no pixel carries the key, but uplift sizes its field by the largest key
        sidecar = scene_dir / "gt.json"
        meta = json.loads(sidecar.read_text())
        meta["instance_to_class"][str(1 << 40)] = 0
        sidecar.write_text(json.dumps(meta))
        field = tmp_path / "field.pmt"
        code = run(["uplift", scene_dir / "gt.pmt", scene_dir / "splats.psw",
                    "--out", field])
        assert code == 2
        assert "not in [0, " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [scene_dir]

    def test_field_wider_than_u16_ids_is_exit_2_and_writes_nothing(
        self, tmp_path, capsys
    ):
        # column 65536 would be an instance ID no PanopticFile can hold
        field = tmp_path / "field.pmt"
        dist = np.zeros((1, (1 << 16) + 1), dtype=np.float32)
        dist[0, -1] = 1.0
        write_tensor(field, dist)
        splats = tmp_path / "s.psw"
        write_splats(splats, SplatWeightTable(1, 1, 1, 1, [0], [0], [0], [1.0]))
        labels = tmp_path / "labels.pmt"
        table = ClassTable(("chair",), (True,))
        write_panoptic(labels, PanopticMap(np.ones((1, 1, 1), np.uint8), {1: 0}, table))
        inputs = set(tmp_path.iterdir())
        code = run(
            ["render-labels", field, splats, labels, "--out", tmp_path / "r.pmt"]
        )
        assert code == 2
        assert "L < 65536" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("cid", [-1, "num_classes"])
    def test_class_outside_table_is_exit_2_and_writes_nothing(
        self, scene_dir, tmp_path, capsys, cid
    ):
        sidecar = scene_dir / "gt.json"
        meta = json.loads(sidecar.read_text())
        if cid == "num_classes":
            cid = len(meta["class_table"]["names"])
        meta["instance_to_class"][next(iter(meta["instance_to_class"]))] = cid
        sidecar.write_text(json.dumps(meta))
        field = tmp_path / "field.pmt"
        code = run(["uplift", scene_dir / "gt.pmt", scene_dir / "splats.psw",
                    "--out", field])
        assert code == 2
        assert f"class ID(s) [{cid}] not in [0, " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [scene_dir]

    def test_labels_lacking_a_rendered_id_is_exit_2(
        self, scene_dir, tmp_path, capsys
    ):
        field = tmp_path / "field.pmt"
        assert run(
            ["uplift", scene_dir / "gt.pmt", scene_dir / "splats.psw",
             "--out", field]
        ) == 0
        gt = read_panoptic(scene_dir / "gt.pmt")
        void = tmp_path / "void.pmt"
        write_panoptic(
            void,
            PanopticMap.from_instances(
                np.zeros_like(gt.instance_ids), {}, gt.class_table
            ),
        )
        capsys.readouterr()
        code = run(
            ["render-labels", field, scene_dir / "splats.psw", void,
             "--out", tmp_path / "r.pmt"]
        )
        assert code == 2
        first_id = min(set(np.unique(gt.instance_ids).tolist()) - {0})
        assert f"[{first_id}," in capsys.readouterr().err

    @pytest.mark.parametrize(
        "head", [[np.nan, 0.0], [-1.0, 2.0]], ids=["nan", "negative"]
    )
    def test_malformed_field_row_is_exit_2(self, scene_dir, tmp_path, capsys, head):
        field = tmp_path / "field.pmt"
        assert run(
            ["uplift", scene_dir / "gt.pmt", scene_dir / "splats.psw",
             "--out", field]
        ) == 0
        dist = read_tensor(field)
        dist[0] = 0.0
        dist[0, :2] = head
        write_tensor(field, dist)
        capsys.readouterr()
        code = run(
            ["render-labels", field, scene_dir / "splats.psw", scene_dir / "gt.pmt",
             "--out", tmp_path / "r.pmt"]
        )
        assert code == 2
        assert "finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [5, -5])
    def test_field_sized_for_other_splats_is_exit_2(
        self, scene_dir, tmp_path, capsys, extra
    ):
        field = tmp_path / "field.pmt"
        assert run(
            ["uplift", scene_dir / "gt.pmt", scene_dir / "splats.psw",
             "--out", field]
        ) == 0
        dist = read_tensor(field)
        rows = dist.shape[0] + extra
        resized = np.zeros((rows, dist.shape[1]), dtype=np.float32)
        resized[: min(rows, dist.shape[0])] = dist[:rows]
        write_tensor(field, resized)
        capsys.readouterr()
        code = run(
            ["render-labels", field, scene_dir / "splats.psw", scene_dir / "gt.pmt",
             "--out", tmp_path / "r.pmt"]
        )
        assert code == 2
        assert "splat count" in capsys.readouterr().err


class TestFps:
    def test_k_50_on_100_descriptors(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = tmp_path / "desc.pmt"
        write_tensor(path, rng.random((100, 16)).astype(np.float32))
        assert run(["fps", path, "--k", "50"]) == 0
        indices = [int(t) for t in capsys.readouterr().out.split()]
        assert len(indices) == 50
        assert len(set(indices)) == 50
        assert indices[0] == 0

    def test_k_too_large_is_exit_2(self, tmp_path):
        path = tmp_path / "desc.pmt"
        write_tensor(path, np.ones((5, 2), dtype=np.float32))
        assert run(["fps", path, "--k", "10"]) == 2

    def test_unknown_metric_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "desc.pmt"
        write_tensor(path, np.ones((5, 2), dtype=np.float32))
        assert run(["fps", path, "--k", "2", "--metric", "manhattan"]) == 2
        assert "unknown metric 'manhattan'" in capsys.readouterr().err


class TestSolveQubo:
    def test_exact_two_identical_areas(self, tmp_path, capsys):
        area = 32.0
        instance = {
            "linear": [area, area],
            "quadratic": [[0.0, area], [area, 0.0]],
            "penalty": 2.0,
        }
        path = tmp_path / "q.json"
        path.write_text(json.dumps(instance))
        assert run(["solve-qubo", path, "--exact"]) == 0
        out = capsys.readouterr().out
        assert "u=[1, 0]" in out
        assert "objective=32.0" in out

    @pytest.mark.parametrize(
        "extra, bits", [({}, "[1, 0]"), ({"penalty": 1.2}, "[1, 1]")]
    )
    def test_penalty_left_out_is_the_default(self, tmp_path, capsys, extra, bits):
        # both bits score 6 - 2 * penalty: below one bit's 3 at the default 2.0
        instance = {"linear": [3.0, 3.0], "quadratic": [[0, 2.0], [2.0, 0]], **extra}
        path = tmp_path / "q.json"
        path.write_text(json.dumps(instance))
        assert run(["solve-qubo", path, "--exact"]) == 0
        assert f"u={bits}" in capsys.readouterr().out

    def test_anneal_deterministic(self, tmp_path, capsys):
        instance = {
            "linear": [3.0, 2.0, 1.0],
            "quadratic": [[0, 1, 0], [1, 0, 0.5], [0, 0.5, 0]],
            "penalty": 2.0,
        }
        path = tmp_path / "q.json"
        path.write_text(json.dumps(instance))
        assert run(["solve-qubo", path, "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert run(["solve-qubo", path, "--seed", "1"]) == 0
        assert capsys.readouterr().out == first

    def test_bad_instance_is_exit_3(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text("{not json")
        assert run(["solve-qubo", path]) == 3

    @pytest.mark.parametrize(
        "doc",
        [
            b"[1, 2]",
            b'"x"',
            b'{"linear": 1, "quadratic": {"a": 1}}',
            b'{"linear": ["a"], "quadratic": [["b"]]}',
            b"\xff\xfe{",
        ],
    )
    def test_instance_of_wrong_shape_is_exit_3(self, tmp_path, doc):
        path = tmp_path / "q.json"
        path.write_bytes(doc)
        assert run(["solve-qubo", path]) == 3

    def test_negative_seed_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"linear": [1.0], "quadratic": [[0.0]]}))
        assert run(["solve-qubo", path, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "seed must be >= 0" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [path]

    def test_invalid_instance_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "q.json"
        asymmetric = {"linear": [1.0, 1.0], "quadratic": [[0, 1], [2, 0]]}
        path.write_text(json.dumps(asymmetric))
        assert run(["solve-qubo", path]) == 2
        assert "symmetric" in capsys.readouterr().err
