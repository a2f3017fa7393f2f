"""Binary file formats used throughout the benchmark.

UBM1 matrix format: magic bytes ``UBM1``, then u32 little-endian row count,
u32 little-endian column count, then rows*cols float64 little-endian values
in row-major order.  Label files are a u64 little-endian count followed by
that many u32 little-endian values.
"""

import struct
from pathlib import Path

import numpy as np

from .errors import ShapeError

MAGIC = b"UBM1"


def write_matrix(path, matrix: np.ndarray) -> None:
    """Write a 2-D float64 array as a UBM1 file."""
    m = np.ascontiguousarray(matrix, dtype="<f8")
    if m.ndim != 2:
        raise ShapeError(f"UBM1 stores 2-D matrices, got shape {m.shape}")
    rows, cols = m.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(m.tobytes(order="C"))


def read_matrix(path) -> np.ndarray:
    """Read a UBM1 file back into a float64 array."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ShapeError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    if len(raw) < 12:
        raise ShapeError(f"{path}: {len(raw)} bytes, shorter than the 12-byte header")
    rows, cols = struct.unpack_from("<II", raw, 4)
    expected = 12 + rows * cols * 8
    if len(raw) != expected:
        raise ShapeError(f"{path}: expected {expected} bytes, found {len(raw)}")
    data = np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=12)
    return data.reshape(rows, cols).astype(np.float64)


def write_labels(path, labels: np.ndarray) -> None:
    """Write an integer label vector with an 8-byte count header."""
    y = np.ascontiguousarray(labels, dtype="<u4")
    if y.ndim != 1:
        raise ShapeError(f"label file stores 1-D vectors, got shape {y.shape}")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", y.shape[0]))
        fh.write(y.tobytes())


def read_labels(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise ShapeError(f"{path}: {len(raw)} bytes, shorter than the 8-byte header")
    (count,) = struct.unpack_from("<Q", raw, 0)
    if len(raw) != 8 + 4 * count:
        raise ShapeError(f"{path}: expected {8 + 4 * count} bytes, found {len(raw)}")
    return np.frombuffer(raw, dtype="<u4", count=count, offset=8).astype(np.int64)
