"""Binary feature-dump format: a streamable, dimension-checked container
for labeled feature vectors, so externally trained encoders can feed the
engine.

Layout (little-endian):
  header: 8-byte magic "RSEFDMP1", u32 version, u32 d, u64 record count
  record: u32 class_id, u32 task_id, u8 split (0 train / 1 test), d * f32

Vectors are stored as float32 at this boundary only; everything in memory
is float64.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterable, Iterator, Tuple

import numpy as np

from .errors import DumpFormatError

MAGIC = b"RSEFDMP1"
DUMP_VERSION = 1
SPLIT_TRAIN = 0
SPLIT_TEST = 1

_HEADER = struct.Struct("<8sIIQ")
_RECORD_HEAD = struct.Struct("<IIB")

# record tuple: (class_id, task_id, split, vector)
DumpRecord = Tuple[int, int, int, np.ndarray]


def write_dump(path, dimension: int, records: Iterable[DumpRecord]) -> int:
    """Write records to `path`; returns the record count."""
    records = list(records)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, DUMP_VERSION, dimension, len(records)))
        for class_id, task_id, split, vector in records:
            vector = np.asarray(vector, dtype=np.float32)
            if vector.shape != (dimension,):
                raise DumpFormatError(
                    "dimension", f"record vector shape {vector.shape} != ({dimension},)"
                )
            if split not in (SPLIT_TRAIN, SPLIT_TEST):
                raise DumpFormatError("split", f"invalid split value {split}")
            fh.write(_RECORD_HEAD.pack(class_id, task_id, split))
            fh.write(vector.tobytes())
    return len(records)


def _read_exact(fh: BinaryIO, size: int, offset: int, what: str) -> bytes:
    buf = fh.read(size)
    if len(buf) != size:
        raise DumpFormatError(
            "truncated",
            f"truncated {what} at byte offset {offset + len(buf)} "
            f"(needed {size} bytes, got {len(buf)})",
            offset=offset + len(buf),
        )
    return buf


def read_dump(path) -> Iterator[DumpRecord]:
    """Stream validated records from a dump file.

    Raises DumpFormatError with a stable code on: bad magic ("magic"),
    unsupported version ("version"), truncation ("truncated", carries the
    byte offset), or non-finite payload values ("nonfinite").
    """
    with open(path, "rb") as fh:
        offset = 0
        head = _read_exact(fh, _HEADER.size, offset, "header")
        magic, version, dim, count = _HEADER.unpack(head)
        if magic != MAGIC:
            raise DumpFormatError("magic", f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
        if version != DUMP_VERSION:
            raise DumpFormatError("version", f"unsupported dump version {version}", offset=8)
        if dim == 0:
            raise DumpFormatError("dimension", "dump declares dimension 0", offset=12)
        offset = _HEADER.size
        vec_bytes = 4 * dim
        for i in range(count):
            rec_head = _read_exact(fh, _RECORD_HEAD.size, offset, f"record {i} header")
            class_id, task_id, split = _RECORD_HEAD.unpack(rec_head)
            offset += _RECORD_HEAD.size
            if split not in (SPLIT_TRAIN, SPLIT_TEST):
                raise DumpFormatError(
                    "split", f"record {i} has invalid split {split}", offset=offset - 1
                )
            payload = _read_exact(fh, vec_bytes, offset, f"record {i} payload")
            offset += vec_bytes
            vector = np.frombuffer(payload, dtype="<f4").astype(np.float64)
            if not np.all(np.isfinite(vector)):
                raise DumpFormatError(
                    "nonfinite", f"record {i} contains non-finite values",
                    offset=offset - vec_bytes,
                )
            yield class_id, task_id, split, vector
        trailing = fh.read(1)
        if trailing:
            raise DumpFormatError(
                "trailing", f"unexpected trailing bytes at offset {offset}", offset=offset
            )


def read_dump_header(path) -> Tuple[int, int, int]:
    """Return (version, dimension, record count) without reading records."""
    with open(path, "rb") as fh:
        head = _read_exact(fh, _HEADER.size, 0, "header")
    magic, version, dim, count = _HEADER.unpack(head)
    if magic != MAGIC:
        raise DumpFormatError("magic", f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != DUMP_VERSION:
        raise DumpFormatError("version", f"unsupported dump version {version}", offset=8)
    return version, dim, count
