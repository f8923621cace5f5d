import json
import os
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import panomerge.io as pio
from panomerge import (
    ClassTable,
    PanopticMap,
    SceneSpec,
    SplatWeightTable,
    generate_scene,
)
from panomerge.cli import _load_mask_set, build_parser
from panomerge.io import (
    FormatError,
    read_panoptic,
    read_splats,
    read_tensor,
    read_tensor_rows,
    write_class_table,
    write_panoptic,
    write_splats,
    write_tensor,
    write_tensor_rows,
)


def random_tensor(rng):
    ndim = int(rng.integers(1, 5))
    dims = tuple(int(d) for d in rng.integers(1, 6, ndim))
    dtype = rng.choice(["float32", "uint16", "uint8"])
    if dtype == "float32":
        return (rng.random(dims).astype(np.float32) * 100).astype(np.float32)
    info = np.iinfo(dtype)
    return rng.integers(0, info.max, dims).astype(dtype)


def _tensor_bytes(tmp_path, arr):
    """The bytes `write_tensor` writes for `arr`."""
    path = tmp_path / "whole.pmt"
    write_tensor(path, arr)
    data = path.read_bytes()
    path.unlink()
    return data


class TestTensorFile:
    @pytest.mark.parametrize("seed", range(10))
    def test_write_read_write_is_byte_identical(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        arr = random_tensor(rng)
        path = tmp_path / "a.pmt"
        write_tensor(path, arr)
        first = path.read_bytes()
        back = read_tensor(path)
        assert back.dtype == arr.dtype
        assert np.array_equal(back, arr)
        write_tensor(path, back)
        assert path.read_bytes() == first

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pmt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_read_allocates_the_payload_once(self, tmp_path):
        arr = np.random.default_rng(0).random((8, 96, 96, 4)).astype(np.float32)
        path = tmp_path / "big.pmt"
        write_tensor(path, arr)
        tracemalloc.start()
        try:
            back = read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * arr.nbytes
        assert np.array_equal(back, arr)
        assert back.flags.writeable

    def test_payload_shrinking_mid_read_is_format_error(self, tmp_path, monkeypatch):
        path = tmp_path / "short.pmt"
        path.write_bytes(b"PMT1" + struct.pack("<BBI", 1, 1, 4) + b"\0" * 8)
        stat = os.fstat  # the size check sees the 4 floats the header promises
        monkeypatch.setattr(
            pio.os, "fstat", lambda fd: SimpleNamespace(st_size=stat(fd).st_size + 8)
        )
        with pytest.raises(FormatError, match="shrank"):
            read_tensor(path)

    def test_mask_set_load_peaks_near_what_it_holds(self, tmp_path):
        rng = np.random.default_rng(0)
        masks, probs = tmp_path / "masks.pmt", tmp_path / "classprobs.pmt"
        write_tensor(masks, rng.random((20, 8, 96, 96), dtype=np.float32))
        write_tensor(probs, rng.random((20, 3), dtype=np.float32))
        table = ClassTable(("a", "b", "c"), (True, True, False))
        pio.write_class_table(probs.with_suffix(".json"), table)
        tracemalloc.start()
        try:
            loaded = _load_mask_set(str(masks), str(probs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # what the set holds is its sparse form; on this fully dense data
        # that is twice the dense float64 array
        held = sum(a.nbytes for a in loaded.support) + loaded.area.nbytes
        held += loaded.class_probs.nbytes
        assert peak <= 1.1 * held
        assert np.array_equal(loaded.values, read_tensor(masks).astype(np.float64))

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_round_trip_through_one_buffer(self, tmp_path, seed):
        arr = random_tensor(np.random.default_rng(seed))
        path = tmp_path / "a.pmt"
        write_tensor_rows(path, arr.dtype, arr.shape, iter(arr))
        assert path.read_bytes() == _tensor_bytes(tmp_path, arr)
        rows = list(read_tensor_rows(path))
        assert len(rows) == arr.shape[0]
        assert all(r is rows[0] for r in rows)  # each row overwrites the last
        copies = [r.copy() for r in read_tensor_rows(path)]
        assert all(c.dtype == arr.dtype for c in copies)
        assert np.array_equal(np.stack(copies), arr)

    def test_rows_widen_on_write(self, tmp_path):
        arr = np.random.default_rng(0).random((4, 3, 5))
        path = tmp_path / "a.pmt"
        write_tensor_rows(path, np.float32, arr.shape, (row for row in arr))
        assert path.read_bytes() == _tensor_bytes(tmp_path, arr.astype(np.float32))

    @pytest.mark.parametrize("rows", [2, 4], ids=["short", "long"])
    def test_rows_that_miss_the_shape_write_nothing(self, tmp_path, rows):
        path = tmp_path / "a.pmt"
        with pytest.raises(ValueError, match="do not fill shape"):
            write_tensor_rows(path, np.float32, (3, 2), iter(np.zeros((rows, 2))))
        assert list(tmp_path.iterdir()) == []

    def test_rows_of_0d_tensor_rejected(self, tmp_path):
        path = tmp_path / "a.pmt"
        write_tensor(path, np.float32(0.5))
        assert read_tensor(path) == np.float32(0.5)
        with pytest.raises(FormatError, match="no rows"):
            next(read_tensor_rows(path))

    def test_rows_check_the_header_as_read_tensor_does(self, tmp_path):
        path = tmp_path / "bad.pmt"
        path.write_bytes(b"PMT1" + struct.pack("<BBI", 1, 1, 4) + b"\0" * 8)
        with pytest.raises(FormatError, match="payload length"):
            next(read_tensor_rows(path))

    def test_rows_payload_shrinking_mid_read_is_format_error(self, tmp_path, monkeypatch):
        path = tmp_path / "short.pmt"
        path.write_bytes(b"PMT1" + struct.pack("<BBII", 1, 2, 2, 2) + b"\0" * 8)
        stat = os.fstat  # the size check sees the 4 floats the header promises
        monkeypatch.setattr(
            pio.os, "fstat", lambda fd: SimpleNamespace(st_size=stat(fd).st_size + 8)
        )
        rows = read_tensor_rows(path)
        assert next(rows).tolist() == [0.0, 0.0]
        with pytest.raises(FormatError, match="shrank"):
            next(rows)

    def test_forged_dims_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "forged.pmt"
        dims = (2**32 - 1,) * 4
        path.write_bytes(b"PMT1" + struct.pack("<BB4I", 1, 4, *dims) + b"\0" * 16)
        with pytest.raises(FormatError, match="payload length"):
            read_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.pmt"
        write_tensor(path, np.ones((3, 3), dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.pmt"
        write_tensor(path, np.zeros((2, 3), dtype=np.uint16))
        data = path.read_bytes()
        assert data[:4] == b"PMT1"
        assert data[4] == 2  # dtype code u16
        assert data[5] == 2  # ndim
        assert int.from_bytes(data[6:10], "little") == 2
        assert int.from_bytes(data[10:14], "little") == 3


class TestPanopticFile:
    def test_round_trip(self, tmp_path):
        gt, _, _ = generate_scene(SceneSpec(seed=2))
        base = tmp_path / "gt.pmt"
        write_panoptic(base, gt)
        back = read_panoptic(base)
        assert np.array_equal(back.instance_ids, gt.instance_ids)
        assert back.instance_to_class == gt.instance_to_class
        assert back.class_table.names == gt.class_table.names
        assert back.class_table.is_thing == gt.class_table.is_thing
        # second write is byte-identical
        write_panoptic(tmp_path / "gt2.pmt", back)
        assert (tmp_path / "gt2.pmt").read_bytes() == base.read_bytes()
        assert (tmp_path / "gt2.json").read_text() == (tmp_path / "gt.json").read_text()

    def test_sidecar_covers_all_ids(self, tmp_path):
        gt, _, _ = generate_scene(SceneSpec(seed=6))
        base = tmp_path / "gt.pmt"
        write_panoptic(base, gt)
        import json

        sidecar = json.loads((tmp_path / "gt.json").read_text())
        present = set(np.unique(gt.instance_ids).tolist()) - {0}
        assert present <= {int(k) for k in sidecar["instance_to_class"]}
        assert sidecar["void_id"] == 0

    def test_json_target_rejected_before_writing(self, tmp_path):
        table = ClassTable(("a",), (True,))
        pmap = PanopticMap.from_instances(np.array([[[1, 0]]]), {1: 0}, table)
        with pytest.raises(ValueError, match="sidecar"):
            write_panoptic(tmp_path / "p.json", pmap)
        assert list(tmp_path.iterdir()) == []

    def test_class_mapping_written_as_plain_ints(self, tmp_path):
        table = ClassTable(("a", "b"), (True, False))
        ids = np.array([[[1, 2, 0]]])
        for name, to_class in [
            ("bool", {True: 0, 2: 1}),
            ("numpy", {np.int64(1): np.uint16(0), np.uint8(2): np.int32(1)}),
        ]:
            write_panoptic(tmp_path / f"{name}.pmt", PanopticMap(ids, to_class, table))
            back = read_panoptic(tmp_path / f"{name}.pmt").instance_to_class
            assert back == {1: 0, 2: 1} and list(back) == [1, 2]
        write_panoptic(tmp_path / "int.pmt", PanopticMap(ids, {1: 0, 2: 1}, table))
        sidecar = (tmp_path / "int.json").read_text()
        assert json.loads(sidecar)["instance_to_class"] == {"1": 0, "2": 1}
        assert (tmp_path / "bool.json").read_text() == sidecar
        assert (tmp_path / "numpy.json").read_text() == sidecar

    @pytest.mark.parametrize(
        "fields",
        [{"instance_to_class": to_class} for to_class in [
            {"1": 1.7}, {"1": "2"}, {"1": 0, "01": 0}, {"01": 0}, {" 1": 0},
            {"+1": 0}, {"0_1": 0}, {"1": True},
        ]] + [{"void_id": 5}, {"void_id": False}, {"void_id": 0.0}],
        ids=["float-class", "string-class", "collapsing-keys", "zero-padded-key",
             "spaced-key", "signed-key", "underscored-key", "bool-class",
             "nonzero-void", "bool-void", "float-void"],
    )
    def test_sidecar_read_only_as_written(self, tmp_path, fields):
        table = ClassTable(("a", "b", "c"), (True, True, False))
        pmap = PanopticMap(np.ones((1, 1, 1), np.uint8), {1: 0}, table)
        write_panoptic(tmp_path / "p.pmt", pmap)
        meta = json.loads((tmp_path / "p.json").read_text())
        (tmp_path / "p.json").write_text(json.dumps({**meta, **fields}))
        with pytest.raises(FormatError, match="bad sidecar"):
            read_panoptic(tmp_path / "p.pmt")

    def test_missing_sidecar_is_io_error(self, tmp_path):
        gt, _, _ = generate_scene(SceneSpec(seed=2))
        base = tmp_path / "gt.pmt"
        write_panoptic(base, gt)
        (tmp_path / "gt.json").unlink()
        with pytest.raises(OSError):
            read_panoptic(base)


class TestSplatFile:
    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_byte_identical(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        g, n, h, w = 6, 2, 4, 4
        count = 25
        sid = rng.integers(0, g, count)
        view = rng.integers(0, n, count)
        pix = rng.integers(0, h * w, count)
        keep = np.unique(np.stack([sid, view, pix], 1), axis=0, return_index=True)[1]
        table = SplatWeightTable(
            g, n, h, w,
            sid[keep], view[keep], pix[keep],
            rng.random(keep.size).astype(np.float32).astype(np.float64),
        )
        path = tmp_path / "s.psw"
        write_splats(path, table)
        first = path.read_bytes()
        back = read_splats(path)
        assert np.array_equal(back.splat_ids, table.splat_ids)
        assert np.array_equal(back.weights, table.weights)
        write_splats(tmp_path / "s2.psw", back)
        assert (tmp_path / "s2.psw").read_bytes() == first

    def test_largest_stored_values_round_trip(self, tmp_path):
        # each record field at its stored maximum, beside one at zero
        g, n, h, w = 2**32 - 1, 2**16, 2**16, 2**16
        top = np.finfo(np.float32).max
        table = SplatWeightTable(
            g, n, h, w, [g - 1, 0], [n - 1, 0], [h * w - 1, 0], [top, 0.0]
        )
        path = tmp_path / "s.psw"
        write_splats(path, table)
        back = read_splats(path)
        assert (back.num_splats, back.num_views, back.height, back.width) == (g, n, h, w)
        for column in ("splat_ids", "views", "pixels", "weights"):
            np.testing.assert_array_equal(getattr(back, column), getattr(table, column))
            assert getattr(back, column).dtype == getattr(table, column).dtype
        write_splats(tmp_path / "s2.psw", back)
        assert (tmp_path / "s2.psw").read_bytes() == path.read_bytes()

    def test_read_peaks_near_what_the_table_holds(self, tmp_path):
        # one record per (view, pixel) of 8 views of 96 x 96, as on an M scene
        rng = np.random.default_rng(0)
        g, n, h, w = 4000, 8, 96, 96
        flat = np.arange(n * h * w)
        table = SplatWeightTable(
            g, n, h, w, rng.integers(0, g, flat.size), flat // (h * w),
            flat % (h * w), rng.random(flat.size, dtype=np.float32),
        )
        path = tmp_path / "s.psw"
        write_splats(path, table)
        tracemalloc.start()
        try:
            back = read_splats(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(
            a.nbytes for a in (back.splat_ids, back.views, back.pixels, back.weights)
        )
        assert peak <= 2.2 * held
        assert np.array_equal(back.splat_ids, table.splat_ids)
        assert np.array_equal(back.weights, table.weights)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.psw"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_splats(path)

    def test_signalling_nan_weight_refused_without_a_warning(self, tmp_path):
        path = tmp_path / "s.psw"
        # one record whose f32 weight bits 0x7f800001 are a signalling NaN
        record = struct.pack("<IHII", 0, 0, 0, 0x7F800001)
        path.write_bytes(b"PSW1" + struct.pack("<4I", 1, 1, 1, 1) + record)
        assert path.stat().st_size == 34
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="finite"):
                read_splats(path)

    def test_misaligned_records(self, tmp_path):
        _, _, splats = generate_scene(SceneSpec(seed=3))
        path = tmp_path / "s.psw"
        write_splats(path, splats)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            read_splats(path)


def small_map(fill):
    table = ClassTable(("chair", "wall"), (True, False))
    return PanopticMap.from_instances(
        np.full((2, 3, 4), fill, dtype=np.int32), {fill: 0}, table
    )


def run_command(*argv):
    """Run one CLI command without main's exit-code mapping, so errors raise."""
    args = build_parser().parse_args([str(a) for a in argv])
    return args.func(args)


# Each writes version n (1 or 2) of its files into `out`, reading from `inp`.
WRITERS = {
    "write_tensor": lambda inp, out, n: write_tensor(
        out / "t.pmt", np.full((2, 3), n, dtype=np.float32)
    ),
    "write_splats": lambda inp, out, n: write_splats(
        out / "s.psw", SplatWeightTable(2, 1, 1, 2, [n - 1], [0], [1], [0.5])
    ),
    "write_class_table": lambda inp, out, n: write_class_table(
        out / "c.json", ClassTable((f"class{n}",), (True,))
    ),
    "write_panoptic": lambda inp, out, n: write_panoptic(
        out / "map.pmt", small_map(n)
    ),
    "eval_pq_out": lambda inp, out, n: run_command(
        "eval-pq", inp / "pred.pmt", inp / "gt.pmt", "--out", out / "pq.json",
        *(["--per-class"] if n == 2 else []),
    ),
    "fps_out": lambda inp, out, n: run_command(
        "fps", inp / "desc.pmt", "--k", n, "--out", out / "fps.txt"
    ),
}


class TestCrashSafeWrite:
    @pytest.mark.parametrize("writer", WRITERS)
    def test_failed_write_keeps_old_pair_and_leaves_no_temp(
        self, tmp_path, monkeypatch, writer
    ):
        inp, out = tmp_path / "in", tmp_path / "out"
        inp.mkdir()
        out.mkdir()
        write_panoptic(inp / "pred.pmt", small_map(1))
        write_panoptic(inp / "gt.pmt", small_map(2))
        write_tensor(inp / "desc.pmt", np.eye(4, dtype=np.float32))
        WRITERS[writer](inp, out, 1)
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def half_written(path, mode="r", *args, **kwargs):
            if "w" not in mode:
                return open(path, mode, *args, **kwargs)
            with open(path, mode) as f:
                f.write(b"PMT1")
            raise OSError("disk full")

        # shadows the builtin for the io module, where every file is written
        monkeypatch.setattr(pio, "open", half_written, raising=False)
        with pytest.raises(OSError, match="disk full"):
            WRITERS[writer](inp, out, 2)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_overwrite_leaves_only_the_pair(self, tmp_path):
        base = tmp_path / "map.pmt"
        write_panoptic(base, small_map(1))
        write_panoptic(base, small_map(2))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["map.json", "map.pmt"]
        assert read_panoptic(base).instance_to_class == {2: 0}


def mangled(data: bytes):
    """Truncations, byte overwrites and appended junk of a valid file."""
    return st.one_of(
        st.integers(0, len(data)).map(lambda n: data[:n]),
        st.tuples(
            st.integers(0, len(data) - 1), st.binary(min_size=1, max_size=8)
        ).map(lambda t: data[: t[0]] + t[1] + data[t[0] + len(t[1]) :]),
        st.binary(max_size=16).map(lambda junk: data + junk),
        st.binary(max_size=64),
    )


def _valid_files():
    _, _, splats = generate_scene(SceneSpec(seed=2, num_views=1, height=4, width=4))
    table = ClassTable(("chair", "wall"), (True, False))
    pmap = PanopticMap.from_instances(np.ones((1, 2, 2), np.int32), {1: 0}, table)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_tensor(tmp / "t.pmt", np.arange(12, dtype=np.float32).reshape(3, 4))
        write_splats(tmp / "s.psw", splats)
        write_panoptic(tmp / "p.pmt", pmap)
        return tuple(
            (tmp / name).read_bytes() for name in ("t.pmt", "s.psw", "p.pmt")
        ) + ((tmp / "p.json").read_text(),)


TENSOR_BYTES, SPLAT_BYTES, PANOPTIC_BYTES, PANOPTIC_SIDECAR = _valid_files()
READ_ERRORS = (FormatError, OSError, ValueError)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# sidecars that keep the expected keys but put arbitrary JSON under them
sidecar_docs = st.fixed_dictionaries(
    {},
    optional={
        "class_table": st.one_of(
            json_values,
            st.fixed_dictionaries(
                {"names": json_values, "is_thing": json_values}
            ),
        ),
        "instance_to_class": st.one_of(
            json_values, st.dictionaries(st.text(max_size=3), json_values)
        ),
    },
)


class TestMalformedInput:
    """Garbled files may raise FormatError, OSError or ValueError, never
    anything the CLI would turn into a traceback."""

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mangled(TENSOR_BYTES))
    def test_read_tensor(self, tmp_path, data):
        path = tmp_path / "t.pmt"
        path.write_bytes(data)
        try:
            read_tensor(path)
        except READ_ERRORS:
            pass
        try:
            for _ in read_tensor_rows(path):
                pass
        except READ_ERRORS:
            pass

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mangled(SPLAT_BYTES))
    def test_read_splats(self, tmp_path, data):
        path = tmp_path / "s.psw"
        path.write_bytes(data)
        try:
            read_splats(path)
        except READ_ERRORS:
            pass

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.one_of(st.just(PANOPTIC_BYTES), mangled(PANOPTIC_BYTES)),
        st.one_of(
            st.just(PANOPTIC_SIDECAR),
            json_values.map(json.dumps),
            sidecar_docs.map(json.dumps),
            st.binary(max_size=32).map(lambda b: b.decode("latin-1")),
        ),
    )
    def test_read_panoptic(self, tmp_path, tensor, sidecar):
        base = tmp_path / "p.pmt"
        base.write_bytes(tensor)
        (tmp_path / "p.json").write_bytes(sidecar.encode("latin-1"))
        try:
            read_panoptic(base)
        except READ_ERRORS:
            pass
