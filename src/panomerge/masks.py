"""Core containers for soft multi-view mask proposals and panoptic label maps.

Mask proposals are per-pixel probabilities in [0, 1] over N views of H x W
pixels. `SoftMaskSet` takes them as dense rows and stores only each row's
nonzero pixels (`support`, a CSR index as in `scipy.sparse`) and its sum
(`area`); its `values` rebuild the dense (m, N, H, W) array on each access.
Label maps are dense (N, H, W) uint16 arrays with instance ID 0 reserved for
void.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Mapping
from dataclasses import InitVar, dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

VOID_INSTANCE = 0
# The class that marks an instance ID as void, in every map and table
VOID_CLASS = 65535
# Instance IDs, in the map, as instance_to_class keys and as label-field
# columns, lie in [0, INSTANCE_ID_LIMIT): the u16 range of the PanopticFile.
INSTANCE_ID_LIMIT = 1 << 16


@dataclass(frozen=True)
class ClassTable:
    """Semantic vocabulary: class names and thing/stuff flags. Class IDs are
    indices into `names`, all below VOID_CLASS."""

    names: tuple[str, ...]
    is_thing: tuple[bool, ...]

    def __post_init__(self):
        if len(self.names) < 1:
            raise ValueError("class table must contain at least one class")
        if len(self.is_thing) != len(self.names):
            raise ValueError("is_thing length must match number of class names")
        if len(self.names) > VOID_CLASS:
            raise ValueError(f"a class table holds at most {VOID_CLASS} classes")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "is_thing", tuple(bool(t) for t in self.is_thing))

    @property
    def num_classes(self) -> int:
        return len(self.names)


class MaskSupport(NamedTuple):
    """Each proposal's nonzero pixels, the stored form of a `SoftMaskSet`.

    Row q's flat pixel indices into N * H * W, ascending, and their values are
    pixels[indptr[q]:indptr[q + 1]] and values[indptr[q]:indptr[q + 1]];
    bits[q] is the row's nonzero mask packed with np.packbits.
    """

    indptr: np.ndarray
    pixels: np.ndarray
    values: np.ndarray
    bits: np.ndarray


@dataclass(frozen=True, eq=False)
class SoftMaskSet:
    """A set of m soft mask proposals over N views of H x W pixels.

    rows:         a dense (m, N, H, W) array, or any iterable of m (N, H, W)
                  rows, entries in [0, 1]. Each row is widened to float64 and
                  checked on its own, and only its nonzero pixels are kept
                  (`support`). No row is referenced once it has been read, so
                  a caller may pass one reused buffer as every row.
    class_probs:  (m, C) float64 array of finite per-class scores. Rows need
                  not sum to one: a proposal's class is derived as the argmax
                  of its row, and no class map is stored.

    Stored: `shape` (m, N, H, W), a copy of `class_probs`, `support`, and
    `area`, each row's sum taken while the row was dense (a sum over its
    nonzeros alone rounds differently). The stored arrays are read-only. No
    dense array is kept: `values` rebuilds one on each access. The stored
    form costs 16 bytes per nonzero pixel (index and value) plus one bit per
    pixel, so it is smaller than the dense float64 array only while fewer
    than about half of the pixels are nonzero, and twice its size when all
    are.
    """

    rows: InitVar[Iterable[np.ndarray]]
    class_probs: np.ndarray
    class_table: ClassTable
    shape: tuple[int, int, int, int] = field(init=False)
    support: MaskSupport = field(init=False)
    area: np.ndarray = field(init=False)

    def __post_init__(self, rows):
        if isinstance(rows, np.ndarray) and rows.ndim != 4:
            raise ValueError("mask values must have shape (m, N, H, W)")
        shape, area, bits, nonzero = None, [], [], []
        for row in rows:
            row = np.asarray(row, dtype=np.float64)
            shape = row.shape if shape is None else shape
            if row.ndim != 3 or row.shape != shape:
                raise ValueError("mask values must have shape (m, N, H, W)")
            if row.size == 0:
                raise ValueError("m, N, H, W must all be >= 1")
            # written so that NaN fails it too; values above 1 are nonzero,
            # so they are checked once all nonzero values are joined
            if not row.min() >= 0.0:
                raise ValueError("mask values must lie in [0, 1]")
            flat = row.ravel()
            nz = flat > 0.0
            area.append(flat.sum())
            bits.append(np.packbits(nz))
            nonzero.append(flat[nz])
        if shape is None:
            raise ValueError("m, N, H, W must all be >= 1")
        m = len(area)
        probs = np.array(self.class_probs, dtype=np.float64)  # the set's own copy
        if probs.ndim != 2 or probs.shape[0] != m:
            raise ValueError("class_probs must have exactly m rows")
        if probs.shape[1] != self.class_table.num_classes:
            raise ValueError("class_probs columns must match class table size")
        if not np.isfinite(probs).all():
            raise ValueError("class_probs must be finite")
        indptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum([v.size for v in nonzero], out=indptr[1:])
        nonzero = np.concatenate(nonzero)
        if not nonzero.max(initial=0.0) <= 1.0:
            raise ValueError("mask values must lie in [0, 1]")
        # The pixels are unpacked from the bits only once the values are
        # joined and their per-row pieces freed: no joined array is ever held
        # beside its pieces, so building peaks near what the set holds.
        bits = np.stack(bits)
        pixels = np.empty(indptr[-1], dtype=np.intp)
        size = math.prod(shape)
        for q in range(m):
            nz = np.unpackbits(bits[q], count=size).view(bool)
            pixels[indptr[q] : indptr[q + 1]] = nz.nonzero()[0]
        support = MaskSupport(indptr, pixels, nonzero, bits)
        area = np.array(area)
        for a in (*support, area, probs):
            a.flags.writeable = False
        object.__setattr__(self, "class_probs", probs)
        object.__setattr__(self, "shape", (m, *shape))
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "area", area)

    def dense_rows(self, queries) -> np.ndarray:
        """The dense (len(queries), N, H, W) float64 values of the given rows."""
        sup = self.support
        out = np.zeros((len(queries), *self.shape[1:]))
        flat = out.reshape(len(queries), -1)
        for k, q in enumerate(queries):
            lo, hi = sup.indptr[q], sup.indptr[q + 1]
            flat[k, sup.pixels[lo:hi]] = sup.values[lo:hi]
        return out

    @property
    def values(self) -> np.ndarray:
        """The dense (m, N, H, W) float64 values, rebuilt from `support` on
        each access: O(m * N * H * W) time and memory. No stage of the
        pipeline reads it."""
        return self.dense_rows(range(self.num_queries))

    @property
    def num_queries(self) -> int:
        return self.shape[0]

    @property
    def num_views(self) -> int:
        return self.shape[1]

    @property
    def height(self) -> int:
        return self.shape[2]

    @property
    def width(self) -> int:
        return self.shape[3]


@dataclass(frozen=True, eq=False)
class PanopticMap:
    """Per-view instance ID maps with a shared instance->class table.

    Instance IDs are consistent across views: the same nonzero ID denotes
    the same object everywhere. Instance 0 is void. Integer (or bool) ID
    arrays, every ID in [0, INSTANCE_ID_LIMIT), are stored as a read-only
    uint16 copy, and `instance_to_class` as a read-only mapping of plain ints
    (each through `operator.index`, so True is 1 and a class of 1.5 raises
    TypeError): keys in that range, classes in [0, num_classes) or
    VOID_CLASS (void). A pixel's class is `instance_to_class[instance ID]`.
    `from_instances` is an alias of the constructor, kept for callers outside
    the package.
    """

    instance_ids: np.ndarray
    instance_to_class: Mapping[int, int]
    class_table: ClassTable

    def __post_init__(self):
        inst = np.asarray(self.instance_ids)
        if inst.ndim != 3:
            raise ValueError("instance map must have shape (N, H, W)")
        if not (np.issubdtype(inst.dtype, np.integer) or inst.dtype == np.bool_):
            raise ValueError(f"instance IDs must be integers, not {inst.dtype}")
        if inst.size and (inst.min() < 0 or inst.max() >= INSTANCE_ID_LIMIT):
            raise ValueError(f"instance IDs must lie in [0, {INSTANCE_ID_LIMIT})")
        inst = np.array(inst, dtype=np.uint16)  # the map's own copy
        inst.flags.writeable = False
        index = operator.index
        to_class = {index(i): index(c) for i, c in self.instance_to_class.items()}
        outside = [i for i in to_class if not 0 <= i < INSTANCE_ID_LIMIT]
        if outside:
            raise ValueError(f"mapped ID(s) {outside} not in [0, {INSTANCE_ID_LIMIT})")
        known = np.zeros(INSTANCE_ID_LIMIT, dtype=bool)
        known[[VOID_INSTANCE, *to_class]] = True
        if not known[inst].all():
            missing = np.unique(inst[~known[inst]]).tolist()
            raise ValueError(f"instance ID(s) {missing} have no class assignment")
        n = self.class_table.num_classes
        bad = sorted({c for c in to_class.values() if not 0 <= c < n} - {VOID_CLASS})
        if bad:
            raise ValueError(
                f"class ID(s) {bad} not in [0, {n}) or the void class {VOID_CLASS}"
            )
        object.__setattr__(self, "instance_ids", inst)
        object.__setattr__(self, "instance_to_class", MappingProxyType(to_class))

    @classmethod
    def from_instances(
        cls,
        instance_ids: np.ndarray,
        instance_to_class: Mapping[int, int],
        class_table: ClassTable,
    ) -> "PanopticMap":
        """Build a map from an instance-ID tensor and its instance->class table."""
        return cls(instance_ids, instance_to_class, class_table)

    @property
    def num_views(self) -> int:
        return self.instance_ids.shape[0]

    @property
    def height(self) -> int:
        return self.instance_ids.shape[1]

    @property
    def width(self) -> int:
        return self.instance_ids.shape[2]


def weighted_area(masks: SoftMaskSet, query: int) -> float:
    """Sum of a proposal's soft values over all views and pixels."""
    if not 0 <= query < masks.num_queries:
        raise IndexError(f"query {query} out of range for m={masks.num_queries}")
    return float(masks.dense_rows([query])[0].sum())


def pairwise_overlap(masks: SoftMaskSet, i: int, j: int) -> float:
    """Fuzzy intersection area: sum over positions of min(M_i, M_j)."""
    m = masks.num_queries
    if not 0 <= i < m:
        raise IndexError(f"query {i} out of range for m={m}")
    if not 0 <= j < m:
        raise IndexError(f"query {j} out of range for m={m}")
    a, b = masks.dense_rows([i, j])
    return float(np.minimum(a, b).sum())
