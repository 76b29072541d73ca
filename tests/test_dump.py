import struct

import numpy as np
import pytest

from driftcomp.dump import (
    DUMP_VERSION,
    MAGIC,
    SPLIT_TEST,
    SPLIT_TRAIN,
    read_dump,
    read_dump_header,
    write_dump,
)
from driftcomp.errors import DumpFormatError

HEADER = struct.Struct("<8sIIQ")


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
        loaded = list(read_dump(path))
        assert len(loaded) == 20
        for (c0, t0, s0, v0), (c1, t1, s1, v1) in zip(records, loaded):
            assert (c0, t0, s0) == (c1, t1, s1)
            # written float32 -> read back to float64 without further loss
            np.testing.assert_array_equal(v0.astype(np.float64), v1)

    def test_header_fields(self, tmp_path):
        path = tmp_path / "f.bin"
        write_dump(path, 4, [(0, 1, SPLIT_TRAIN, np.zeros(4))])
        assert read_dump_header(path) == (DUMP_VERSION, 4, 1)

    def test_empty_dump(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_dump(path, 8, [])
        assert read_dump_header(path) == (DUMP_VERSION, 8, 0)
        assert list(read_dump(path)) == []

    def test_streaming_is_lazy(self, tmp_path):
        path = tmp_path / "f.bin"
        rng = np.random.default_rng(1)
        write_dump(path, 6, sample_records(rng, count=10))
        it = read_dump(path)
        first = next(it)
        assert first[0] == 0 and first[3].shape == (6,)

    def test_write_rejects_wrong_dimension(self, tmp_path):
        with pytest.raises(DumpFormatError) as err:
            write_dump(tmp_path / "f.bin", 4, [(0, 1, 0, np.zeros(5))])
        assert err.value.code == "dimension"

    def test_write_rejects_bad_split(self, tmp_path):
        with pytest.raises(DumpFormatError) as err:
            write_dump(tmp_path / "f.bin", 4, [(0, 1, 7, np.zeros(4))])
        assert err.value.code == "split"


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
            list(read_dump(path))
        assert err.value.code == "magic" and err.value.offset == 0

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "f.bin"
        self.write_valid(path)
        data = bytearray(path.read_bytes())
        data[8:12] = struct.pack("<I", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(DumpFormatError) as err:
            list(read_dump(path))
        assert err.value.code == "version"

    def test_truncated_payload_names_offset(self, tmp_path):
        path = tmp_path / "f.bin"
        self.write_valid(path, count=2, d=4)
        data = path.read_bytes()
        cut = len(data) - 7  # mid-vector of the last record
        (tmp_path / "cut.bin").write_bytes(data[:cut])
        with pytest.raises(DumpFormatError) as err:
            list(read_dump(tmp_path / "cut.bin"))
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
            list(read_dump(path))
        assert err.value.code == "nonfinite"

    def test_invalid_split_in_file(self, tmp_path):
        path = tmp_path / "f.bin"
        with open(path, "wb") as fh:
            fh.write(HEADER.pack(MAGIC, DUMP_VERSION, 2, 1))
            fh.write(struct.pack("<IIB", 0, 1, 9))
            fh.write(np.zeros(2, dtype=np.float32).tobytes())
        with pytest.raises(DumpFormatError) as err:
            list(read_dump(path))
        assert err.value.code == "split"

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "f.bin"
        self.write_valid(path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DumpFormatError) as err:
            list(read_dump(path))
        assert err.value.code == "trailing"

    def test_zero_dimension_header(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(HEADER.pack(MAGIC, DUMP_VERSION, 0, 0))
        with pytest.raises(DumpFormatError) as err:
            list(read_dump(path))
        assert err.value.code == "dimension"
