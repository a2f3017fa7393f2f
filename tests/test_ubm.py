"""UBM1 matrix files and u32 label files: layout and round trips."""

import struct

import numpy as np
import pytest

from unlbench import ubm
from unlbench.errors import ShapeError


def test_ubm1_exact_byte_layout(tmp_path):
    path = tmp_path / "m.ubm1"
    ubm.write_matrix(path, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    raw = path.read_bytes()
    assert raw[:4] == b"UBM1"
    assert struct.unpack_from("<II", raw, 4) == (3, 2)
    values = struct.unpack_from("<6d", raw, 12)
    assert values == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert len(raw) == 12 + 48


def test_matrix_round_trip_bit_exact(tmp_path):
    m = np.random.default_rng(0).standard_normal((17, 5))
    path = tmp_path / "m.ubm1"
    ubm.write_matrix(path, m)
    back = ubm.read_matrix(path)
    assert np.array_equal(m, back)
    ubm.write_matrix(tmp_path / "again.ubm1", back)
    assert path.read_bytes() == (tmp_path / "again.ubm1").read_bytes()


def test_labels_round_trip_with_count_header(tmp_path):
    y = np.array([0, 3, 1, 2, 2], dtype=np.int64)
    path = tmp_path / "y.u32"
    ubm.write_labels(path, y)
    raw = path.read_bytes()
    assert struct.unpack_from("<Q", raw, 0) == (5,)
    assert len(raw) == 8 + 20
    assert np.array_equal(ubm.read_labels(path), y)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ubm1"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ShapeError):
        ubm.read_matrix(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "trunc.ubm1"
    ubm.write_matrix(path, np.ones((2, 2)))
    whole = path.read_bytes()
    # Cut in the data, and inside the 12-byte header after the magic.
    for size in (len(whole) - 8, 11, 6, 4):
        path.write_bytes(whole[:size])
        with pytest.raises(ShapeError):
            ubm.read_matrix(path)
    labels = tmp_path / "trunc.u32"
    ubm.write_labels(labels, np.arange(3))
    whole = labels.read_bytes()
    # Cut in the data, and inside the 8-byte count header.
    for size in (len(whole) - 4, 7, 0):
        labels.write_bytes(whole[:size])
        with pytest.raises(ShapeError):
            ubm.read_labels(labels)
