"""Binary model checkpoints.

Layout of format version 2 (all integers little-endian):

    magic "DREC" (4 bytes)
    version: u16
    payload length: u64
    payload:
        model name: u32 length + UTF-8 bytes
        config echo: u32 length + UTF-8 bytes
        tensor count: u32
        per tensor:
            name: u32 length + UTF-8 bytes
            dtype: u8 (0 f64, 1 i64, 2 UTF-8 strings)
            rank: u8 (1 for strings)
            dims: u64 * rank
            values: f64 or i64, row-major; strings: a u32 byte length
                per string, then the strings' bytes
    crc32: u32 (zlib) of every byte before it

Numbers round-trip bitwise: they are stored raw. A tensor given as a
``list`` of ``str`` is stored as strings and loads as a list; an integer
array loads as int64 and anything else as float64.

A loader checks the magic, the version, the length against the file size
(short: truncated; long: trailing bytes), then the checksum, and only
then parses, so a flipped bit surfaces as a checksum error, never as a
decoding error. A save streams its sections into a temporary file beside
the target and renames it over the target, so a failed save leaves the
previous checkpoint as it was.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from gradrec.errors import (CheckpointChecksumError, CheckpointError, CheckpointMagicError,
                            CheckpointTrailingBytesError, CheckpointTruncatedError,
                            CheckpointVersionError)

MAGIC = b"DREC"
VERSION = 2
HEADER = struct.Struct("<4sHQ")  # magic, version, payload length
F64, I64, STR = 0, 1, 2
DTYPES = {F64: np.dtype("<f8"), I64: np.dtype("<i8")}


def _text(text: str) -> bytes:
    blob = text.encode("utf-8")
    return struct.pack("<I", len(blob)) + blob


def _tensor_chunks(name: str, value) -> list:
    """The bytes of one tensor entry, array values as views, not copies."""
    if isinstance(value, list):
        blobs = [s.encode("utf-8") for s in value]
        lengths = np.array([len(b) for b in blobs], dtype="<u4")
        return [_text(name), struct.pack("<BBQ", STR, 1, len(blobs)), lengths.tobytes(),
                b"".join(blobs)]
    arr = np.asarray(value)
    code = I64 if arr.dtype.kind in "iu" else F64
    arr = arr.astype(DTYPES[code], copy=False)
    # note: ascontiguousarray promotes rank 0 to rank 1; only the bytes are taken from it
    data = memoryview(np.ascontiguousarray(arr)).cast("B")
    return [_text(name), struct.pack(f"<BB{arr.ndim}Q", code, arr.ndim, *arr.shape), data]


def save_checkpoint(path: str | Path, model_name: str, config_text: str,
                    tensors: dict[str, np.ndarray | list[str]]) -> None:
    chunks = [_text(model_name), _text(config_text), struct.pack("<I", len(tensors))]
    for name, value in tensors.items():
        chunks += _tensor_chunks(name, value)
    header = HEADER.pack(MAGIC, VERSION, sum(len(chunk) for chunk in chunks))
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            crc = 0
            for chunk in [header, *chunks]:
                fh.write(chunk)
                crc = zlib.crc32(chunk, crc)
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException as err:
        tmp.unlink(missing_ok=True)
        if isinstance(err, OSError) and err.filename == str(tmp):
            err.filename = str(path)  # name the file the caller asked for, not its temporary
        raise


class _Reader:
    def __init__(self, blob: memoryview, path: str):
        self.blob = blob
        self.path = path
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.blob):
            raise CheckpointTruncatedError(
                f"{self.path}: truncated checkpoint (needed {n} bytes at offset {self.pos}, "
                f"{len(self.blob)} available)")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self) -> str:
        return str(self.take(self.unpack("<I")[0]), "utf-8")

    def array(self, dtype, count: int) -> np.ndarray:
        return np.frombuffer(self.take(dtype.itemsize * count), dtype=dtype)

    def tensor(self) -> np.ndarray | list[str]:
        code, rank = self.unpack("<BB")
        dims = self.unpack(f"<{rank}Q")
        if code == STR and rank == 1:
            ends = np.cumsum(self.array(np.dtype("<u4"), dims[0]), dtype=np.int64).tolist()
            blob = bytes(self.take(ends[-1] if ends else 0))
            text = blob.decode("utf-8")
            if len(text) == len(blob):  # ASCII: byte offsets are character offsets
                return [text[a:b] for a, b in zip([0] + ends[:-1], ends)]
            return [blob[a:b].decode("utf-8") for a, b in zip([0] + ends[:-1], ends)]
        if code not in DTYPES:
            raise CheckpointError(f"{self.path}: unknown tensor dtype {code} of rank {rank}")
        # one copy out of the file buffer, which is then dropped
        return self.array(DTYPES[code], math.prod(dims)).reshape(dims).copy()


def load_checkpoint(path: str | Path) -> tuple[str, str, dict[str, np.ndarray | list[str]]]:
    """Returns (model name, config echo, tensors)."""
    blob = Path(path).read_bytes()
    reader = _Reader(memoryview(blob), str(path))
    magic = bytes(reader.take(4))
    if magic != MAGIC:
        raise CheckpointMagicError(f"{path}: bad magic {magic!r} (expected {MAGIC!r})")
    (version,) = reader.unpack("<H")
    if version != VERSION:
        raise CheckpointVersionError(
            f"{path}: unsupported checkpoint version {version} (this gradrec reads version "
            f"{VERSION}); retrain the model to write a current checkpoint")
    (size,) = reader.unpack("<Q")
    end = HEADER.size + size + 4
    if end > len(blob):
        raise CheckpointTruncatedError(
            f"{path}: truncated checkpoint (the header declares {end} bytes, "
            f"file has {len(blob)})")
    if end < len(blob):
        raise CheckpointTrailingBytesError(
            f"{path}: {len(blob) - end} trailing bytes after the checksum at offset {end}")
    (stored,) = struct.unpack_from("<I", blob, end - 4)
    actual = zlib.crc32(reader.blob[:end - 4])
    if actual != stored:
        raise CheckpointChecksumError(
            f"{path}: checksum mismatch (stored crc32 {stored:08x}, contents give "
            f"{actual:08x}); the file is corrupt")
    reader.blob = reader.blob[:end - 4]
    model_name = reader.string()
    config_text = reader.string()
    tensors = {}
    for _ in range(reader.unpack("<I")[0]):
        name = reader.string()
        tensors[name] = reader.tensor()
    if reader.pos != len(reader.blob):
        raise CheckpointTrailingBytesError(
            f"{path}: {len(reader.blob) - reader.pos} trailing bytes after the last tensor "
            f"at offset {reader.pos}")
    return model_name, config_text, tensors
