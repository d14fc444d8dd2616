"""Binary model checkpoints.

Layout (all integers little-endian):

    magic "DREC" (4 bytes)
    version: u16
    model name: u32 length + UTF-8 bytes
    config echo: u32 length + UTF-8 bytes
    tensor count: u32
    per tensor:
        name: u32 length + UTF-8 bytes
        rank: u8
        dims: u64 * rank
        values: f64 little-endian, row-major

Round-trips are bitwise lossless: tensors are stored as raw float64. The
file ends with the last tensor; a loader rejects any bytes after it. A
save writes a temporary file beside the target and renames it over the
target, so a failed save leaves the previous checkpoint as it was.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from gradrec.errors import (CheckpointMagicError, CheckpointTrailingBytesError,
                            CheckpointTruncatedError, CheckpointVersionError)

MAGIC = b"DREC"
VERSION = 1


def save_checkpoint(path: str | Path, model_name: str, config_text: str,
                    tensors: dict[str, np.ndarray]) -> None:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<H", VERSION)
    for text in (model_name, config_text):
        blob = text.encode("utf-8")
        out += struct.pack("<I", len(blob)) + blob
    out += struct.pack("<I", len(tensors))
    for name, value in tensors.items():
        # note: ascontiguousarray would promote rank-0 tensors to rank 1;
        # tobytes(order="C") already linearizes any layout
        arr = np.asarray(value, dtype=np.float64)
        blob = name.encode("utf-8")
        out += struct.pack("<I", len(blob)) + blob
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
        out += arr.tobytes(order="C")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(bytes(out))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.path = path
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointTruncatedError(
                f"{self.path}: truncated checkpoint (needed {n} bytes at offset {self.pos}, "
                f"file has {len(self.blob)})")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def string(self) -> str:
        return self.take(self.u32()).decode("utf-8")


def load_checkpoint(path: str | Path) -> tuple[str, str, dict[str, np.ndarray]]:
    """Returns (model name, config echo, tensors)."""
    reader = _Reader(Path(path).read_bytes(), str(path))
    magic = reader.take(4)
    if magic != MAGIC:
        raise CheckpointMagicError(f"{path}: bad magic {magic!r} (expected {MAGIC!r})")
    version = reader.u16()
    if version != VERSION:
        raise CheckpointVersionError(f"{path}: unsupported checkpoint version {version}")
    model_name = reader.string()
    config_text = reader.string()
    tensors: dict[str, np.ndarray] = {}
    for _ in range(reader.u32()):
        name = reader.string()
        rank = reader.u8()
        dims = struct.unpack(f"<{rank}Q", reader.take(8 * rank)) if rank else ()
        count = 1
        for d in dims:
            count *= d
        raw = reader.take(8 * count)
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
    extra = len(reader.blob) - reader.pos
    if extra:
        raise CheckpointTrailingBytesError(
            f"{path}: {extra} trailing bytes after the last tensor at offset {reader.pos}")
    return model_name, config_text, tensors
