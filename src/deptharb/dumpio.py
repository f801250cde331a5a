"""Binary attention-dump files.

Layout (little-endian): magic "DARB", uint16 version = 1, uint32 H, W, K,
uint64 seed, then K*H*W IEEE-754 float32 values, object-major then
row-major.  In-memory float64 maps are rounded to nearest-even on write; a
read returns the rounded values widened back to float64, so write/read
round-trips are bit-exact at 32 bits.
"""

from __future__ import annotations

import struct

import numpy as np

from .attention import AttentionError, AttentionField
from .scene import check_value

MAGIC = b"DARB"
VERSION = 1
_HEADER = struct.Struct("<4sHIIIQ")


class DumpError(ValueError):
    """Raised for malformed dump files or shape mismatches."""


def write_dump(path: str, field: AttentionField, seed: int) -> None:
    """Write `field` and `seed` to `path`; a rejected seed leaves any file there untouched."""
    check_value("seed", seed, None, "an unsigned 64-bit integer", error=DumpError)
    k, h, w = field.maps.shape
    header = _HEADER.pack(MAGIC, VERSION, h, w, k, seed)
    payload = field.maps.astype("<f4").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_dump(path: str) -> tuple[AttentionField, int]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise DumpError(f"dump too short for header ({len(raw)} bytes)")
    magic, version, h, w, k, seed = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise DumpError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise DumpError(f"unsupported dump version {version}, expected {VERSION}")
    expected = _HEADER.size + k * h * w * 4
    if len(raw) != expected:
        raise DumpError(
            f"dump payload is {len(raw) - _HEADER.size} bytes, "
            f"expected {expected - _HEADER.size} for {k}x{h}x{w} maps"
        )
    values = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(k, h, w)
    try:
        return AttentionField(maps=values.astype(np.float64)), seed
    except AttentionError as exc:  # NaN, infinite or negative payload values
        raise DumpError(f"dump payload: {exc}") from exc


def round_trip32(field: AttentionField) -> AttentionField:
    """The field as a reader would see it: values rounded through float32."""
    return AttentionField(maps=field.maps.astype(np.float32).astype(np.float64))
