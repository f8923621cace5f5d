"""Bit-exact binary file formats and their readers/writers.

TensorFile:   magic "PMT1", dtype code (u8: 1=f32, 2=u16, 3=u8), ndim (u8),
              dims (u32 LE each), then the row-major little-endian payload.
PanopticFile: instance map as a u16 TensorFile (N, H, W) plus a JSON sidecar
              (same path with a .json suffix) holding instance_to_class, the
              class table and void_id 0; keys canonical decimal IDs, classes
              JSON ints.
SplatFile:    magic "PSW1", counts G, N, H, W (u32 LE), then a stream of
              (splat_id u32, view u16, pixel u32, weight f32) records.

TensorFile and SplatFile readers return the stored dtypes; each container
widens its input.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .masks import ClassTable, PanopticMap
from .uplift import SplatWeightTable

TENSOR_MAGIC = b"PMT1"
SPLAT_MAGIC = b"PSW1"

_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<u2"), 3: np.dtype("u1")}
_CODES = {np.dtype("float32"): 1, np.dtype("uint16"): 2, np.dtype("uint8"): 3}

# The record dtype's field order is SplatWeightTable's column order: each
# record field is read into, and written from, the column at its position.
_SPLAT_RECORD = np.dtype(
    [("splat", "<u4"), ("view", "<u2"), ("pixel", "<u4"), ("weight", "<f4")]
)


class FormatError(Exception):
    """Raised when a file does not conform to one of the binary formats."""


# What reading fields out of parsed JSON raises when the document has the
# wrong shape: a missing key, a list where a dict belongs, a non-numeric or
# infinite number. ValueError covers JSONDecodeError and UnicodeDecodeError.
JSON_FIELD_ERRORS = (KeyError, TypeError, AttributeError, OverflowError, ValueError)


def write_files(files: dict) -> None:
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


def _tensor_chunks(dtype, shape: tuple, chunks):
    """The bytes-like chunks of a TensorFile of `dtype` and `shape`: its
    header, then each of `chunks` in the stored dtype, converted one at a
    time. Raises once the chunks are exhausted if their elements do not
    fill `shape`, so `write_files` leaves no such file behind."""
    code = _CODES.get(np.dtype(dtype))
    if code is None:
        raise ValueError(f"unsupported tensor dtype {dtype}")
    if len(shape) > 255:
        raise ValueError("too many dimensions")
    yield TENSOR_MAGIC + struct.pack(f"<BB{len(shape)}I", code, len(shape), *shape)
    count = 0
    for chunk in chunks:
        # written through the buffer protocol, so the payload is not copied again
        chunk = np.ascontiguousarray(chunk, dtype=_DTYPES[code])
        count += chunk.size
        yield chunk
    if count != math.prod(shape):
        raise ValueError(f"{count} tensor elements do not fill shape {shape}")


def write_tensor(path, array: np.ndarray) -> None:
    array = np.asarray(array)
    write_files({path: _tensor_chunks(array.dtype, array.shape, [array])})


def write_tensor_rows(path, dtype, shape: tuple, rows) -> None:
    """Write a TensorFile of `dtype` and `shape` whose rows (slices along the
    first axis) are the arrays `rows` yields, one row or a block of several
    each, converted one at a time, so no whole converted copy is held."""
    write_files({path: _tensor_chunks(dtype, shape, rows)})


def _read_tensor_header(f, path) -> tuple[np.dtype, tuple]:
    """The stored dtype and dims of the TensorFile open as `f`, leaving `f`
    at its payload, whose length is checked against the dims."""
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
    expected = math.prod(dims) * stored.itemsize
    # checked before any caller allocates, so forged dims cannot exhaust memory
    size = os.fstat(f.fileno()).st_size - f.tell()
    if size != expected:
        raise FormatError(f"{path}: payload length {size} != expected {expected}")
    return stored, dims


def _read_exactly(f, buf: np.ndarray, path) -> None:
    if f.readinto(buf) != buf.nbytes:
        raise FormatError(f"{path}: payload shrank while being read")


def read_tensor(path) -> np.ndarray:
    """Read a TensorFile into one array of its stored dtype, in one read."""
    with open(path, "rb") as f:
        stored, dims = _read_tensor_header(f, path)
        out = np.empty(dims, dtype=stored)
        _read_exactly(f, out.reshape(-1), path)
        return out


def read_tensor_rows(path):
    """Yield the rows (slices along the first axis) of a TensorFile in the
    stored dtype. Every row is read into the same buffer, which the next row
    overwrites, so one row is held at a time. The file is opened, and its
    header checked, when the first row is asked for."""
    with open(path, "rb") as f:
        stored, dims = _read_tensor_header(f, path)
        if not dims:
            raise FormatError(f"{path}: a 0-d tensor has no rows")
        row = np.empty(dims[1:], dtype=stored)
        for _ in range(dims[0]):
            _read_exactly(f, row.reshape(-1), path)
            yield row


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
    sidecar = {
        "instance_to_class": {str(k): c for k, c in pmap.instance_to_class.items()},
        "class_table": _table_json(pmap.class_table),
        "void_id": 0,
    }
    write_files({
        path: _tensor_chunks(np.uint16, inst.shape, [inst]),
        _sidecar(path): [json.dumps(sidecar, indent=1, sort_keys=True).encode()],
    })


def read_panoptic(path) -> PanopticMap:
    inst = read_tensor(path)
    if inst.ndim != 3:
        raise FormatError(f"{path}: panoptic instance map must be 3D (N, H, W)")
    try:
        meta = json.loads(_sidecar(path).read_text())
        table = _table_from_json(meta["class_table"])
        raw = meta["instance_to_class"]
        mapping = {int(k): c for k, c in raw.items()}
        if list(map(str, mapping)) != list(raw):  # "01", " 2", "1" beside "01"
            raise ValueError("instance IDs must be distinct canonical decimal keys")
        if any(type(c) is not int for c in mapping.values()):  # 1.7, "2", true
            raise ValueError("classes must be JSON integers")
        if type(meta["void_id"]) is not int or meta["void_id"] != 0:
            raise ValueError("void_id must be the integer 0")
    except JSON_FIELD_ERRORS as exc:
        raise FormatError(f"{_sidecar(path)}: bad sidecar: {exc}") from exc
    return PanopticMap(inst, mapping, table)


def write_class_table(path, table: ClassTable) -> None:
    text = json.dumps(_table_json(table), indent=1, sort_keys=True)
    write_files({path: [text.encode()]})


def read_class_table(path) -> ClassTable:
    try:
        meta = json.loads(Path(path).read_text())
        return _table_from_json(meta)
    except JSON_FIELD_ERRORS as exc:
        raise FormatError(f"{path}: bad class table: {exc}") from exc


def write_splats(path, table: SplatWeightTable) -> None:
    records = np.empty(table.num_records, dtype=_SPLAT_RECORD)
    columns = (table.splat_ids, table.views, table.pixels, table.weights)
    for name, column in zip(_SPLAT_RECORD.names, columns):
        records[name] = column
    counts = (table.num_splats, table.num_views, table.height, table.width)
    write_files({path: [SPLAT_MAGIC, struct.pack("<4I", *counts), records]})


def read_splats(path) -> SplatWeightTable:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != SPLAT_MAGIC:
            raise FormatError(f"{path}: bad splat magic {magic!r}")
        raw = f.read(16)
        if len(raw) != 16:
            raise FormatError(f"{path}: truncated splat header")
        counts = struct.unpack("<4I", raw)
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size % _SPLAT_RECORD.itemsize:
            raise FormatError(f"{path}: splat record stream length mismatch")
        records = np.fromfile(f, dtype=_SPLAT_RECORD)
    try:
        return SplatWeightTable(*counts, *(records[n] for n in _SPLAT_RECORD.names))
    except ValueError as exc:
        raise FormatError(f"{path}: invalid splat table: {exc}") from exc
