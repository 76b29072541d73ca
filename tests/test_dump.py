import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from driftcomp.dump import (
    DUMP_VERSION,
    MAGIC,
    SPLIT_TEST,
    SPLIT_TRAIN,
    load_dump,
    read_dump_header,
    write_dump,
)
from driftcomp.errors import DumpFormatError

HEADER = struct.Struct("<8sIIQ")
RECORD_HEAD = struct.Struct("<IIB")


def struct_write(path, d, records):
    """The record-at-a-time writer the packed layout must reproduce."""
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, DUMP_VERSION, d, len(records)))
        for class_id, task_id, split, vector in records:
            fh.write(RECORD_HEAD.pack(class_id, task_id, split))
            fh.write(np.asarray(vector, dtype=np.float32).tobytes())


def reference_load(data):
    """Outcome of reading dump bytes record by record, after a check of the
    declared size: the arrays, or a DumpFormatError's (code, offset)."""
    if len(data) < HEADER.size:
        return ("truncated", len(data))
    magic, version, dim, count = HEADER.unpack_from(data)
    if magic != MAGIC:
        return ("magic", 0)
    if version != DUMP_VERSION:
        return ("version", 8)
    if dim == 0:
        return ("dimension", 12)
    end = HEADER.size + count * (RECORD_HEAD.size + 4 * dim)
    if len(data) < end:
        return ("truncated", len(data))
    if len(data) > end:
        return ("trailing", end)
    rows, offset = [], HEADER.size
    for _ in range(count):
        class_id, task_id, split = RECORD_HEAD.unpack_from(data, offset)
        offset += RECORD_HEAD.size
        if split not in (SPLIT_TRAIN, SPLIT_TEST):
            return ("split", offset - 1)
        vector = np.frombuffer(data, dtype="<f4", count=dim, offset=offset).astype(np.float64)
        if not np.all(np.isfinite(vector)):
            return ("nonfinite", offset)
        offset += 4 * dim
        rows.append((class_id, task_id, split, vector))
    return ([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows],
            np.array([r[3] for r in rows]).reshape(count, dim))


def load_outcome(path):
    try:
        class_ids, task_ids, splits, vectors = load_dump(path)
    except DumpFormatError as err:
        return (err.code, err.offset)
    assert class_ids.dtype == task_ids.dtype == splits.dtype == np.int64
    assert vectors.dtype == np.float64 and vectors.shape[0] == class_ids.size
    return (class_ids.tolist(), task_ids.tolist(), splits.tolist(), vectors)


def sample_records(rng, count=20, d=6):
    out = []
    for i in range(count):
        vec = rng.standard_normal(d).astype(np.float32)
        out.append((i % 5, 1 + i % 3, i % 2, vec))
    return out


class TestRoundTrip:
    def test_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        records = sample_records(rng)
        path = tmp_path / "features.bin"
        assert write_dump(path, 6, records) == 20
        class_ids, task_ids, splits, vectors = load_dump(path)
        assert vectors.shape == (20, 6) and vectors.dtype == np.float64
        for i, (c0, t0, s0, v0) in enumerate(records):
            assert (c0, t0, s0) == (class_ids[i], task_ids[i], splits[i])
            # written float32 -> read back to float64 without further loss
            np.testing.assert_array_equal(v0.astype(np.float64), vectors[i])

    def test_header_fields(self, tmp_path):
        path = tmp_path / "f.bin"
        write_dump(path, 4, [(0, 1, SPLIT_TRAIN, np.zeros(4))])
        assert read_dump_header(path) == (DUMP_VERSION, 4, 1)

    def test_empty_dump(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_dump(path, 8, [])
        assert read_dump_header(path) == (DUMP_VERSION, 8, 0)
        class_ids, task_ids, splits, vectors = load_dump(path)
        assert class_ids.size == task_ids.size == splits.size == 0
        assert vectors.shape == (0, 8)

    @pytest.mark.parametrize("d", [1, 6])
    def test_bytes_match_struct_writer(self, tmp_path, d):
        rng = np.random.default_rng(d)
        records = [(int(c), int(t), s, rng.standard_normal(d) * 10.0 ** rng.integers(-30, 30))
                   for c, t, s in [(0, 1, 0), (2**32 - 1, 7, 1), (5, 2**32 - 1, 0), (3, 0, 1)]]
        records.append((9, 2, SPLIT_TEST, [1.5] * d))
        write_dump(tmp_path / "new.bin", d, records)
        struct_write(tmp_path / "old.bin", d, records)
        assert (tmp_path / "new.bin").read_bytes() == (tmp_path / "old.bin").read_bytes()

    def test_write_rejects_wrong_dimension(self, tmp_path):
        with pytest.raises(DumpFormatError) as err:
            write_dump(tmp_path / "f.bin", 4, [(0, 1, 0, np.zeros(5))])
        assert err.value.code == "dimension"

    def test_write_rejects_bad_split(self, tmp_path):
        with pytest.raises(DumpFormatError) as err:
            write_dump(tmp_path / "f.bin", 4, [(0, 1, 7, np.zeros(4))])
        assert err.value.code == "split"

    @pytest.mark.parametrize("bad", [1e39, -1e39, np.nan, np.inf, -np.inf])
    def test_write_rejects_nonfinite_before_opening(self, tmp_path, bad):
        # 1e39 is finite in float64 and beyond the float32 range
        path = tmp_path / "f.bin"
        records = [(0, 1, 0, np.zeros(4)), (1, 1, 1, np.array([1.0, bad, 0.0, 2.0]))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DumpFormatError, match="record 1 ") as err:
                write_dump(path, 4, records)
        assert err.value.code == "nonfinite"
        assert not path.exists()
        path.write_bytes(b"kept")
        with pytest.raises(DumpFormatError):
            write_dump(path, 4, records)
        assert path.read_bytes() == b"kept"

    def test_float32_max_round_trips(self, tmp_path):
        top = float(np.finfo(np.float32).max)   # 3.4028235e38
        path = tmp_path / "f.bin"
        write_dump(path, 2, [(0, 1, 0, [top, -top])])
        np.testing.assert_array_equal(load_dump(path)[3], [[top, -top]])


class TestCorruptInputs:
    def write_valid(self, path, count=3, d=4):
        rng = np.random.default_rng(2)
        write_dump(path, d, sample_records(rng, count=count, d=d))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.bin"
        self.write_valid(path)
        data = bytearray(path.read_bytes())
        data[:8] = b"XXXXXXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(DumpFormatError) as err:
            load_dump(path)
        assert err.value.code == "magic" and err.value.offset == 0

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "f.bin"
        self.write_valid(path)
        data = bytearray(path.read_bytes())
        data[8:12] = struct.pack("<I", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(DumpFormatError) as err:
            load_dump(path)
        assert err.value.code == "version"

    def test_truncated_payload_names_offset(self, tmp_path):
        path = tmp_path / "f.bin"
        self.write_valid(path, count=2, d=4)
        data = path.read_bytes()
        cut = len(data) - 7  # mid-vector of the last record
        (tmp_path / "cut.bin").write_bytes(data[:cut])
        with pytest.raises(DumpFormatError) as err:
            load_dump(tmp_path / "cut.bin")
        assert err.value.code == "truncated"
        assert err.value.offset == cut

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(MAGIC + b"\x01")
        with pytest.raises(DumpFormatError) as err:
            read_dump_header(path)
        assert err.value.code == "truncated"

    def test_nonfinite_payload(self, tmp_path):
        path = tmp_path / "f.bin"
        vec = np.array([1.0, np.nan, 0.0, 2.0], dtype=np.float32)
        # bypass FeatureRecord-level checks: pack the bytes by hand
        with open(path, "wb") as fh:
            fh.write(HEADER.pack(MAGIC, DUMP_VERSION, 4, 1))
            fh.write(struct.pack("<IIB", 0, 1, SPLIT_TEST))
            fh.write(vec.tobytes())
        with pytest.raises(DumpFormatError) as err:
            load_dump(path)
        assert err.value.code == "nonfinite"

    def test_invalid_split_in_file(self, tmp_path):
        path = tmp_path / "f.bin"
        with open(path, "wb") as fh:
            fh.write(HEADER.pack(MAGIC, DUMP_VERSION, 2, 1))
            fh.write(struct.pack("<IIB", 0, 1, 9))
            fh.write(np.zeros(2, dtype=np.float32).tobytes())
        with pytest.raises(DumpFormatError) as err:
            load_dump(path)
        assert err.value.code == "split"

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "f.bin"
        self.write_valid(path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DumpFormatError) as err:
            load_dump(path)
        assert err.value.code == "trailing"

    def test_zero_dimension_header(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(HEADER.pack(MAGIC, DUMP_VERSION, 0, 0))
        with pytest.raises(DumpFormatError) as err:
            load_dump(path)
        assert err.value.code == "dimension"


class TestFaultOrder:
    def write_records(self, path, d, heads_and_vectors):
        with open(path, "wb") as fh:
            fh.write(HEADER.pack(MAGIC, DUMP_VERSION, d, len(heads_and_vectors)))
            for head, vec in heads_and_vectors:
                fh.write(RECORD_HEAD.pack(*head))
                fh.write(np.asarray(vec, dtype=np.float32).tobytes())

    def test_first_faulty_record_wins(self, tmp_path):
        path = tmp_path / "f.bin"
        record_size = RECORD_HEAD.size + 8
        self.write_records(path, 2, [((0, 1, 0), [1, 2]), ((0, 1, 1), [np.inf, 0]),
                                     ((0, 1, 5), [1, 2])])
        with pytest.raises(DumpFormatError) as err:
            load_dump(path)
        assert err.value.code == "nonfinite"
        assert err.value.offset == HEADER.size + record_size + RECORD_HEAD.size

    def test_split_checked_before_values(self, tmp_path):
        path = tmp_path / "f.bin"
        self.write_records(path, 2, [((0, 1, 0), [1, 2]), ((0, 1, 2), [np.nan, 0])])
        with pytest.raises(DumpFormatError) as err:
            load_dump(path)
        assert err.value.code == "split"
        assert err.value.offset == HEADER.size + 2 * RECORD_HEAD.size + 8 - 1

    def test_size_fault_wins_over_faulty_record(self, tmp_path):
        path = tmp_path / "f.bin"
        self.write_records(path, 2, [((0, 1, 9), [np.nan, 0]), ((0, 1, 0), [1, 2])])
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(DumpFormatError) as err:
            load_dump(path)
        assert (err.value.code, err.value.offset) == ("truncated", len(data) - 1)
        path.write_bytes(data + b"\x00")
        with pytest.raises(DumpFormatError) as err:
            load_dump(path)
        assert (err.value.code, err.value.offset) == ("trailing", len(data))


class TestAgainstRecordLoop:
    # the record loop casts a signalling nan to float64, which numpy warns about
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**16), count=st.integers(0, 6), d=st.integers(1, 4),
           kind=st.sampled_from(["truncate", "flip", "count", "dimension"]),
           where=st.integers(0, 2**16), value=st.integers(0, 2**32 - 1),
           mask=st.integers(1, 255),
           part=st.sampled_from(["any byte", "split byte", "float exponent"]))
    def test_one_mutation_matches_reference(self, tmp_path, seed, count, d, kind, where,
                                            value, mask, part):
        path = tmp_path / "f.bin"
        write_dump(path, d, sample_records(np.random.default_rng(seed), count=count, d=d))
        data = bytearray(path.read_bytes())
        if kind == "truncate":
            data = data[:where % len(data)]
        elif kind == "flip":
            record = HEADER.size + (where % count if count else 0) * (RECORD_HEAD.size + 4 * d)
            if count and part == "split byte":
                data[record + RECORD_HEAD.size - 1] ^= mask
            elif count and part == "float exponent":
                # flip the high byte's clear exponent bits: inf or nan unless
                # the exponent's lowest bit, in the byte below, is clear
                high = record + RECORD_HEAD.size + 4 * (value % d) + 3
                data[high] ^= ~data[high] & 0x7F or mask
            else:
                data[where % len(data)] ^= mask
        elif kind == "count":
            data[16:24] = struct.pack("<Q", value % (count + 4) if value % 2 else value)
        else:
            data[12:16] = struct.pack("<I", value % (d + 3) if value % 2 else value)
        path.write_bytes(bytes(data))
        want, got = reference_load(bytes(data)), load_outcome(path)
        if isinstance(want[0], str):
            assert got == want
        else:
            assert got[:3] == want[:3]
            np.testing.assert_array_equal(got[3], want[3])

    def test_huge_declared_count_raises_without_allocating(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(HEADER.pack(MAGIC, DUMP_VERSION, 4, 2**40) + bytes(100))
        tracemalloc.start()
        try:
            with pytest.raises(DumpFormatError) as err:
                load_dump(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.code == "truncated" and err.value.offset == HEADER.size + 100
        assert peak < 1 << 20
