"""Binary feature-dump format: a size- and dimension-checked container
for labeled feature vectors, so externally trained encoders can feed the
engine.

Layout (little-endian):
  header: 8-byte magic "RSEFDMP1", u32 version, u32 d, u64 record count
  record: u32 class_id, u32 task_id, u8 split (0 train / 1 test), d * f32,
          packed (`record_dtype`)

Vectors are stored as float32 at this boundary only; everything in memory
is float64.
"""

from __future__ import annotations

import os
import struct
from typing import BinaryIO, Tuple

import numpy as np

from .errors import DumpFormatError

MAGIC = b"RSEFDMP1"
DUMP_VERSION = 1
SPLIT_TRAIN = 0
SPLIT_TEST = 1

_HEADER = struct.Struct("<8sIIQ")
# the most record bytes `write_dump` and `load_dump` hold at once
_BLOCK_BYTES = 8 << 20


def record_dtype(dimension: int) -> np.dtype:
    """The packed layout of one record, as the writer and reader share it."""
    return np.dtype([("class_id", "<u4"), ("task_id", "<u4"), ("split", "u1"),
                     ("vector", "<f4", (dimension,))])


def write_dump(path, class_ids, task_ids, splits, vectors) -> int:
    """Write one record per row of the (n, d) `vectors`, with its class id,
    task id and split (the four arrays `load_dump` returns); returns n.

    Everything is checked before `path` is opened, so a rejected write
    leaves no file behind: DumpFormatError "dimension" for `vectors` not
    (n, d) with d >= 1 or a column not of length n, "id" for an id column
    that is not integer-typed or holds a value outside [0, 2**32), "split"
    likewise for a split other than 0 or 1, and "nonfinite" naming the
    first record whose vector is not finite at float32 (a NaN or infinity,
    or a value beyond the float32 range). The records are then packed and
    written up to `_BLOCK_BYTES` at a time, so the write holds the float32
    vectors and one block.
    """
    with np.errstate(over="ignore"):   # out-of-range values become inf
        vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim != 2 or vectors.shape[1] == 0:
        raise DumpFormatError("dimension", f"vectors of shape {vectors.shape} are not (n, d >= 1)")
    count, dim = vectors.shape
    top = {"class_id": 2**32 - 1, "task_id": 2**32 - 1, "split": SPLIT_TEST}
    columns = {"vector": vectors}
    for field, values in zip(top, (class_ids, task_ids, splits)):
        column = np.asarray(values)
        if column.shape != (count,):
            raise DumpFormatError("dimension", f"{field} column of shape {column.shape} "
                                  f"does not match {count} vectors")
        # the cast into the record field would truncate a float and wrap an
        # integer out of the field's range
        code = "split" if field == "split" else "id"
        if count and column.dtype.kind not in "iu":   # [] reads as float
            raise DumpFormatError(code, f"{field} values must be integers of at most 64 bits, "
                                  f"got a {column.dtype} column")
        bad = np.flatnonzero((column < 0) | (column > top[field]))
        if bad.size:
            raise DumpFormatError(code, f"record {bad[0]} has {field} {column[bad[0]]}, "
                                  f"outside [0, {top[field]}]")
        columns[field] = column
    step = max(1, _BLOCK_BYTES // record_dtype(dim).itemsize)
    for start in range(0, count, step):
        bad = np.flatnonzero(~np.isfinite(vectors[start:start + step]).all(axis=1))
        if bad.size:
            raise DumpFormatError("nonfinite", f"record {start + bad[0]} contains values "
                                  "that are not finite at float32")
    block = np.empty(min(count, step), dtype=record_dtype(dim))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, DUMP_VERSION, dim, count))
        for start in range(0, count, step):
            part = block[:count - start]
            for field, column in columns.items():
                part[field] = column[start:start + len(part)]
            part.tofile(fh)
    return count


def _read_header(fh: BinaryIO) -> Tuple[int, int, int]:
    head = fh.read(_HEADER.size)
    if len(head) != _HEADER.size:
        raise DumpFormatError("truncated", f"truncated header: {len(head)} of "
                              f"{_HEADER.size} bytes", offset=len(head))
    magic, version, dim, count = _HEADER.unpack(head)
    if magic != MAGIC:
        raise DumpFormatError("magic", f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != DUMP_VERSION:
        raise DumpFormatError("version", f"unsupported dump version {version}", offset=8)
    return version, dim, count


def load_dump(path) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All records of a dump file in file order: int64 class ids, task ids
    and splits, and the (n, d) float64 vectors.

    The records are read up to `_BLOCK_BYTES` at a time, each block
    converted into the one (n, d) array returned, so the load holds the
    n * d * 8 bytes of vectors and 24 bytes of ids per record, plus one
    block.

    DumpFormatError codes: "magic", "version", "dimension" (0), then the
    file size against the header ("truncated" at the file length,
    "trailing" at the declared end), then the first faulty record: "split"
    before "nonfinite".
    """
    with open(path, "rb") as fh:
        _, dim, count = _read_header(fh)
        if dim == 0:
            raise DumpFormatError("dimension", "dump declares dimension 0", offset=12)
        head = record_dtype(0)   # a record without its vector
        record_size = head.itemsize + 4 * dim
        end = _HEADER.size + count * record_size
        size = os.fstat(fh.fileno()).st_size
        if size < end:
            raise DumpFormatError(
                "truncated", f"truncated dump at byte offset {size} "
                f"({count} records of {record_size} bytes end at {end})", offset=size,
            )
        if size > end:
            raise DumpFormatError("trailing", f"unexpected trailing bytes at offset {end}",
                                  offset=end)
        class_ids, task_ids, splits = (np.empty(count, dtype=np.int64) for _ in range(3))
        vectors = np.empty((count, dim))
        step = max(1, _BLOCK_BYTES // record_size)
        # an empty dump of any width is valid, even one too wide for a numpy record
        block = np.empty(min(count, step), dtype=record_dtype(dim if count else 0))
        for start in range(0, count, step):
            part = block[:count - start]
            got = fh.readinto(part.data)
            if got != part.nbytes:   # the file shrank after its size was checked
                offset = _HEADER.size + start * record_size + got
                raise DumpFormatError("truncated", f"truncated dump at byte offset {offset}",
                                      offset=offset)
            rows = slice(start, start + len(part))
            class_ids[rows], task_ids[rows], splits[rows] = (
                part["class_id"], part["task_id"], part["split"])
            with np.errstate(invalid="ignore"):   # a signalling nan is reported below
                vectors[rows] = part["vector"]
            bad_split = part["split"] > SPLIT_TEST
            faulty = np.flatnonzero(bad_split | ~np.isfinite(vectors[rows]).all(axis=1))
            if faulty.size:
                i = start + int(faulty[0])
                record = _HEADER.size + i * record_size
                if bad_split[faulty[0]]:
                    raise DumpFormatError(
                        "split", f"record {i} has invalid split {splits[i]}",
                        offset=record + head.fields["split"][1],
                    )
                raise DumpFormatError(
                    "nonfinite", f"record {i} contains non-finite values",
                    offset=record + head.itemsize,
                )
    return class_ids, task_ids, splits, vectors


def read_dump_header(path) -> Tuple[int, int, int]:
    """Return (version, dimension, record count) without reading records."""
    with open(path, "rb") as fh:
        return _read_header(fh)
