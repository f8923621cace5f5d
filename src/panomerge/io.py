"""Bit-exact binary file formats and their readers/writers.

TensorFile:   magic "PMT1", dtype code (u8: 1=f32, 2=u16, 3=u8), ndim (u8),
              dims (u32 LE each), then the row-major little-endian payload.
PanopticFile: instance map as a u16 TensorFile (N, H, W) plus a JSON sidecar
              (same path with a .json suffix) holding instance_to_class and
              the class table.
SplatFile:    magic "PSW1", counts G, N, H, W (u32 LE), then a stream of
              (splat_id u32, view u16, pixel u32, weight f32) records.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .masks import DEFAULT_VOID_CLASS, ClassTable, PanopticMap
from .uplift import SplatWeightTable

TENSOR_MAGIC = b"PMT1"
SPLAT_MAGIC = b"PSW1"

_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<u2"), 3: np.dtype("u1")}
_CODES = {np.dtype("float32"): 1, np.dtype("uint16"): 2, np.dtype("uint8"): 3}

_READ_CHUNK = 1 << 14  # elements read per step by read_tensor, into one buffer

_SPLAT_RECORD = np.dtype(
    [("splat", "<u4"), ("view", "<u2"), ("pixel", "<u4"), ("weight", "<f4")]
)


class FormatError(Exception):
    """Raised when a file does not conform to one of the binary formats."""


# What reading fields out of parsed JSON raises when the document has the
# wrong shape: a missing key, a list where a dict belongs, a non-numeric or
# infinite number. ValueError covers JSONDecodeError and UnicodeDecodeError.
JSON_FIELD_ERRORS = (KeyError, TypeError, AttributeError, OverflowError, ValueError)


def _write_files(files: dict) -> None:
    """Write each path in `files` as the concatenation of its bytes-like
    chunks. Every file is staged as a hidden temp file beside its target and
    moved into place only after all are written, so a crash while writing
    never leaves a half-written target."""
    targets = [Path(p) for p in files]
    staged = [t.with_name(f".{t.name}.{os.urandom(4).hex()}.tmp") for t in targets]
    try:
        for tmp, chunks in zip(staged, files.values()):
            with open(tmp, "wb") as f:
                for chunk in chunks:
                    f.write(chunk)
        for tmp, target in zip(staged, targets):
            os.replace(tmp, target)
    finally:
        for tmp in staged:
            tmp.unlink(missing_ok=True)


def _tensor_chunks(array: np.ndarray) -> list:
    array = np.asarray(array)
    code = _CODES.get(array.dtype)
    if code is None:
        raise ValueError(f"unsupported tensor dtype {array.dtype}")
    if array.ndim > 255:
        raise ValueError("too many dimensions")
    dims = struct.pack(f"<BB{array.ndim}I", code, array.ndim, *array.shape)
    # written through the buffer protocol, so the payload is not copied again
    return [TENSOR_MAGIC, dims, np.ascontiguousarray(array, dtype=_DTYPES[code])]


def write_tensor(path, array: np.ndarray) -> None:
    _write_files({path: _tensor_chunks(array)})


def read_tensor(path, dtype=None) -> np.ndarray:
    """Read a TensorFile into one array of `dtype` (default: the stored
    dtype), through a buffer of _READ_CHUNK elements, so the stored dtype is
    never held whole alongside a conversion."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != TENSOR_MAGIC:
            raise FormatError(f"{path}: bad tensor magic {magic!r}")
        header = f.read(2)
        if len(header) != 2:
            raise FormatError(f"{path}: truncated header")
        code, ndim = struct.unpack("<BB", header)
        if code not in _DTYPES:
            raise FormatError(f"{path}: unknown dtype code {code}")
        raw = f.read(4 * ndim)
        if len(raw) != 4 * ndim:
            raise FormatError(f"{path}: truncated dims")
        dims = struct.unpack(f"<{ndim}I", raw)
        stored = _DTYPES[code]
        count = math.prod(dims)
        expected = count * stored.itemsize
        # checked before allocating, so forged dims cannot exhaust memory
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != expected:
            raise FormatError(f"{path}: payload length {size} != expected {expected}")
        # not `dtype or stored`: a plain np.dtype is falsy
        out = np.empty(count, dtype=stored if dtype is None else dtype)
        buf = np.empty(min(_READ_CHUNK, count), dtype=stored)
        for start in range(0, count, _READ_CHUNK):
            chunk = buf[: min(_READ_CHUNK, count - start)]
            if f.readinto(chunk) != chunk.nbytes:
                raise FormatError(f"{path}: payload shrank while being read")
            out[start : start + chunk.size] = chunk
        return out.reshape(dims)


def _table_json(table: ClassTable) -> dict:
    return {"names": list(table.names), "is_thing": list(table.is_thing)}


def _table_from_json(meta) -> ClassTable:
    return ClassTable(tuple(meta["names"]), tuple(meta["is_thing"]))


def _sidecar(path) -> Path:
    return Path(path).with_suffix(".json")


def write_panoptic(path, pmap: PanopticMap) -> None:
    if _sidecar(path) == Path(path):
        raise ValueError(f"{path}: a *.json target would be overwritten by its sidecar")
    inst = pmap.instance_ids
    if inst.max(initial=0) > np.iinfo(np.uint16).max:
        raise ValueError("instance IDs exceed u16 range")
    if pmap.class_table.void_class != DEFAULT_VOID_CLASS:  # the sidecar omits it
        raise ValueError("panoptic files hold only the default void class")
    sidecar = {
        "instance_to_class": {str(k): int(v) for k, v in pmap.instance_to_class.items()},
        "class_table": _table_json(pmap.class_table),
        "void_id": 0,
    }
    _write_files({
        path: _tensor_chunks(inst.astype(np.uint16)),
        _sidecar(path): [json.dumps(sidecar, indent=1, sort_keys=True).encode()],
    })


def read_panoptic(path) -> PanopticMap:
    inst = read_tensor(path)
    if inst.ndim != 3:
        raise FormatError(f"{path}: panoptic instance map must be 3D (N, H, W)")
    try:
        meta = json.loads(_sidecar(path).read_text())
        table = _table_from_json(meta["class_table"])
        mapping = {int(k): int(v) for k, v in meta["instance_to_class"].items()}
    except JSON_FIELD_ERRORS as exc:
        raise FormatError(f"{_sidecar(path)}: bad sidecar: {exc}") from exc
    return PanopticMap.from_instances(inst, mapping, table)


def write_class_table(path, table: ClassTable) -> None:
    text = json.dumps(_table_json(table), indent=1, sort_keys=True)
    _write_files({path: [text.encode()]})


def read_class_table(path) -> ClassTable:
    try:
        meta = json.loads(Path(path).read_text())
        return _table_from_json(meta)
    except JSON_FIELD_ERRORS as exc:
        raise FormatError(f"{path}: bad class table: {exc}") from exc


def write_splats(path, table: SplatWeightTable) -> None:
    records = np.empty(table.num_records, dtype=_SPLAT_RECORD)
    records["splat"] = table.splat_ids
    records["view"] = table.views
    records["pixel"] = table.pixels
    records["weight"] = table.weights
    counts = (table.num_splats, table.num_views, table.height, table.width)
    _write_files({path: [SPLAT_MAGIC, struct.pack("<4I", *counts), records]})


def read_splats(path) -> SplatWeightTable:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != SPLAT_MAGIC:
            raise FormatError(f"{path}: bad splat magic {magic!r}")
        raw = f.read(16)
        if len(raw) != 16:
            raise FormatError(f"{path}: truncated splat header")
        num_splats, num_views, height, width = struct.unpack("<4I", raw)
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size % _SPLAT_RECORD.itemsize:
            raise FormatError(f"{path}: splat record stream length mismatch")
        records = np.fromfile(f, dtype=_SPLAT_RECORD)
    try:
        return SplatWeightTable(
            num_splats=num_splats,
            num_views=num_views,
            height=height,
            width=width,
            splat_ids=records["splat"].astype(np.int64),
            views=records["view"].astype(np.int64),
            pixels=records["pixel"].astype(np.int64),
            weights=records["weight"].astype(np.float64),
        )
    except ValueError as exc:
        raise FormatError(f"{path}: invalid splat table: {exc}") from exc
