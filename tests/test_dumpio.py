from __future__ import annotations

import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deptharb import AttentionField, DumpError, read_dump, round_trip32, write_dump


def random_field(seed: int, shape=(3, 8, 8)) -> AttentionField:
    rng = np.random.default_rng(seed)
    return AttentionField(maps=rng.uniform(0.0, 2.0, size=shape))


class TestRoundTrip:
    def test_values_survive_bit_exactly_at_32_bits(self, tmp_path):
        field = random_field(1)
        path = tmp_path / "field.darb"
        write_dump(str(path), field, seed=42)
        loaded, seed = read_dump(str(path))
        assert seed == 42
        assert loaded.maps.shape == field.maps.shape
        assert np.array_equal(loaded.maps, field.maps.astype(np.float32).astype(np.float64))

    def test_write_read_write_is_stable(self, tmp_path):
        field = random_field(2)
        p1 = tmp_path / "a.darb"
        p2 = tmp_path / "b.darb"
        write_dump(str(p1), field, seed=7)
        loaded, _ = read_dump(str(p1))
        write_dump(str(p2), loaded, seed=7)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip32_matches_file_path(self, tmp_path):
        field = random_field(3)
        path = tmp_path / "c.darb"
        write_dump(str(path), field, seed=0)
        loaded, _ = read_dump(str(path))
        assert np.array_equal(loaded.maps, round_trip32(field).maps)

    def test_rounding_is_nearest(self):
        value = 1.0 + 2.0**-24 + 2.0**-30  # not representable at 32 bits
        field = AttentionField(maps=np.full((1, 2, 2), value))
        rounded = round_trip32(field)
        assert rounded.maps[0, 0, 0] == float(np.float32(value))
        assert rounded.maps[0, 0, 0] != value


# the largest double that rounds to a finite float32: halfway between float32's
# maximum and 2^128 rounds to even, which is 2^128, out of range
_F32_ROUNDS_FINITE = float(np.nextafter(2.0**128 - 2.0**103, 0.0))


def _float32_ties():
    """Doubles exactly halfway between two adjacent non-negative float32 values, subnormal ones too."""
    below = st.integers(0, 0x7F7FFFFE).map(lambda bits: np.array(bits, dtype=np.uint32).view(np.float32))
    return below.map(lambda f: (float(f) + float(np.nextafter(f, np.float32(np.inf)))) / 2)


dump_values = st.one_of(
    st.floats(0.0, _F32_ROUNDS_FINITE),
    st.floats(0.9 * _F32_ROUNDS_FINITE, _F32_ROUNDS_FINITE),  # near float32's maximum
    st.floats(0.0, 2.0**-126),  # float32's subnormals, and double ones
    _float32_ties(),
)


class TestRoundedWrite:
    @settings(max_examples=300)
    @given(st.lists(dump_values, min_size=1, max_size=12))
    def test_a_field_and_its_round_trip32_write_the_same_bytes(self, values):
        # a run scores its field rounded through float32 and dumps it unrounded
        field = AttentionField(maps=np.array(values).reshape(1, 1, -1))
        with tempfile.TemporaryDirectory() as tmp:
            raw, rounded = os.path.join(tmp, "raw.darb"), os.path.join(tmp, "rounded.darb")
            write_dump(raw, field, seed=5)
            write_dump(rounded, round_trip32(field), seed=5)
            with open(raw, "rb") as fh, open(rounded, "rb") as gh:
                assert fh.read() == gh.read()


class TestHeaderLayout:
    def test_exact_byte_layout(self, tmp_path):
        field = AttentionField(maps=np.arange(8.0).reshape(2, 2, 2))
        path = tmp_path / "layout.darb"
        write_dump(str(path), field, seed=0x0102030405060708)
        raw = path.read_bytes()
        assert raw[0:4] == b"DARB"
        assert struct.unpack_from("<H", raw, 4)[0] == 1
        assert struct.unpack_from("<III", raw, 6) == (2, 2, 2)
        assert struct.unpack_from("<Q", raw, 18)[0] == 0x0102030405060708
        payload = np.frombuffer(raw, dtype="<f4", offset=26)
        assert np.array_equal(payload, np.arange(8.0, dtype=np.float32))

    def test_seed_range_enforced(self, tmp_path):
        field = random_field(4)
        with pytest.raises(DumpError):
            write_dump(str(tmp_path / "x.darb"), field, seed=-1)
        with pytest.raises(DumpError):
            write_dump(str(tmp_path / "x.darb"), field, seed=2**64)

    @pytest.mark.parametrize("seed", [2.5, 3.0, np.float64(3.0), True, False, np.bool_(True), "3", None])
    def test_a_rejected_seed_leaves_the_file_untouched(self, tmp_path, seed):
        # a float seed raised struct.error after the file was opened and truncated; True was stored as 1
        path = tmp_path / "x.darb"
        write_dump(str(path), random_field(5, shape=(2, 64, 64)), seed=7)
        before = path.read_bytes()
        with pytest.raises(DumpError, match="^seed must be an unsigned 64-bit integer, got "):
            write_dump(str(path), random_field(4), seed=seed)
        assert path.read_bytes() == before

    def test_a_huge_seed_is_refused_with_a_short_message(self, tmp_path):
        # a repr of the seed would raise a bare ValueError: str refuses an integer of over 4300 digits
        message = "seed must be an unsigned 64-bit integer, got 10000000000000000000... (5001 digits)"
        with pytest.raises(DumpError, match=f"^{re.escape(message)}$"):
            write_dump(str(tmp_path / "x.darb"), random_field(4), seed=10**5000)
        assert len(message) < 200 and not (tmp_path / "x.darb").exists()

    @pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int64(5), 0])
    def test_numpy_integer_seeds_are_stored(self, tmp_path, seed):
        path = tmp_path / "x.darb"
        write_dump(str(path), random_field(4), seed=seed)
        assert read_dump(str(path))[1] == int(seed)


class TestReadErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.darb"
        path.write_bytes(b"NOPE" + bytes(22))
        with pytest.raises(DumpError, match="magic"):
            read_dump(str(path))

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.darb"
        path.write_bytes(struct.pack("<4sHIIIQ", b"DARB", 9, 2, 2, 1, 0) + bytes(16))
        with pytest.raises(DumpError, match="version"):
            read_dump(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.darb"
        path.write_bytes(b"DARB\x01")
        with pytest.raises(DumpError, match="short"):
            read_dump(str(path))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.darb"
        path.write_bytes(struct.pack("<4sHIIIQ", b"DARB", 1, 4, 4, 2, 0) + bytes(10))
        with pytest.raises(DumpError, match="payload"):
            read_dump(str(path))

    def test_trailing_garbage(self, tmp_path):
        field = random_field(5, shape=(1, 2, 2))
        path = tmp_path / "pad.darb"
        write_dump(str(path), field, seed=1)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(DumpError, match="payload"):
            read_dump(str(path))


@st.composite
def dump_like_bytes(draw):
    """A DARB header for a small field, then a payload of about the right length."""
    k, h, w = (draw(st.integers(0, 3)) for _ in range(3))
    size = 4 * k * h * w + draw(st.sampled_from([0, 0, 0, -1, 1]))
    header = struct.pack("<4sHIIIQ", b"DARB", draw(st.sampled_from([1, 1, 2])), h, w, k, 0)
    return header + draw(st.binary(min_size=max(size, 0), max_size=max(size, 0)))


class TestReadFuzz:
    # the pinned examples raised AttentionError (NaN, infinite, negative values)
    @settings(max_examples=300)
    @given(st.binary(max_size=64) | dump_like_bytes())
    @example(struct.pack("<4sHIIIQ", b"DARB", 1, 1, 1, 1, 0) + struct.pack("<f", float("nan")))
    @example(struct.pack("<4sHIIIQ", b"DARB", 1, 1, 1, 1, 0) + struct.pack("<f", float("inf")))
    @example(struct.pack("<4sHIIIQ", b"DARB", 1, 1, 2, 1, 0) + struct.pack("<2f", 1.0, -1.0))
    def test_arbitrary_bytes_raise_only_dump_error(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.darb")
            with open(path, "wb") as fh:
                fh.write(raw)
            try:
                read_dump(path)
            except DumpError:
                pass
