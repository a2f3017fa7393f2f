"""Each output check must reject a deliberately wrong input.

    python3 -m pytest perfbench/test_checks.py

Needs numpy and pytest only; the program is not imported.
"""

import math
import struct

import numpy as np
import pytest

import checks
from checks import CheckError


def write_ubm1(path, m):
    m = np.ascontiguousarray(m, dtype="<f8")
    path.write_bytes(b"UBM1" + struct.pack("<II", *m.shape) + m.tobytes())


def write_labels(path, y):
    path.write_bytes(struct.pack("<Q", len(y)) + np.asarray(y, dtype="<u4").tobytes())


def gram_cka(x, y):
    """Kernel form HSIC(K, L) / sqrt(HSIC(K, K) HSIC(L, L)) with explicit
    centering matrices: the textbook definition the checks' feature-space
    form must agree with."""
    n = x.shape[0]
    h = np.eye(n) - np.ones((n, n)) / n

    def hsic(k, l):
        return np.trace(h @ k @ h @ h @ l @ h)

    k, l = x @ x.T, y @ y.T
    return hsic(k, l) / math.sqrt(hsic(k, k) * hsic(l, l))


def test_feature_space_cka_matches_kernel_form():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal((40, 16)) * rng.uniform(0.1, 50)
        y = x @ rng.standard_normal((16, 16)) + rng.standard_normal((40, 16))
        assert abs(checks.cka(x, y) - gram_cka(x, y)) < 1e-12
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        assert abs(checks.cka(x, x @ q) - 1.0) < 1e-12


def test_collapsed_features_score_zero():
    assert checks.cka(np.zeros((10, 4)), np.ones((10, 4))) == 0.0


def _probe_features(tmp_path, rng):
    feats = {}
    for label in ("original", "retrained", "FT-r0"):
        (tmp_path / label).mkdir()
        feats[label] = rng.standard_normal((30, 8))
        write_ubm1(tmp_path / label / "oh-like.ubm1", feats[label])
    rows = []
    for method, role in (("original", "original"), ("retrained", "retrained"),
                         ("FT", "unlearned")):
        u = feats["FT-r0" if method == "FT" else method]
        rows.append({"method": method, "provenance": {"role": role, "repeat": 0},
                     "repr_scores": {"oh-like": {
                         "cka_ur": gram_cka(u, feats["retrained"]),
                         "cka_uo": gram_cka(u, feats["original"])}}})
    return rows


def test_cka_check_rejects_perturbed_value(tmp_path):
    rows = _probe_features(tmp_path, np.random.default_rng(1))
    assert checks.check_cka(rows, tmp_path) == 6
    rows[2]["repr_scores"]["oh-like"]["cka_ur"] += 1e-7
    with pytest.raises(CheckError, match="cka_ur"):
        checks.check_cka(rows, tmp_path)


def _row():
    logit = dict(fa=0.1, ra=0.9, tfa=0.2, tra=0.8, g_f=0.1, g_r=0.05, g_tf=0.2, g_tr=0.0)
    repr_scores = {"a": dict(knn_acc_u=0.7, knn_acc_r=0.8, g_knn=0.1, cka_ur=0.9, cka_uo=0.5),
                   "b": dict(knn_acc_u=0.6, knn_acc_r=0.6, g_knn=0.0, cka_ur=0.7, cka_uo=0.4)}
    agl = 0.9 * 0.95 * 0.8 * 1.0
    agr = (1 - 0.05) * 0.8
    return {"logit": logit, "repr_scores": repr_scores, "agl": agl, "agr": agr,
            "hlr": 2 / (1 / agl + 1 / agr), "mia": 0.5}


def test_score_identities_reject_wrong_values():
    checks.check_scores(_row(), "ok")
    for key in ("agl", "agr", "hlr"):
        row = _row()
        row[key] += 1e-9
        with pytest.raises(CheckError, match=key):
            checks.check_scores(row, "bad")
    row = _row()
    row["mia"] = 1.5
    with pytest.raises(CheckError, match=r"\[0, 1\]"):
        checks.check_scores(row, "bad")


@pytest.mark.parametrize("shipped", [True, False])
def test_mia_check_rejects_flipped_direction(shipped):
    checks.check_mia(retrained=0.98, original=0.4, shipped=shipped)
    with pytest.raises(CheckError):
        checks.check_mia(retrained=0.4, original=0.98, shipped=shipped)
    with pytest.raises(CheckError):
        checks.check_mia(retrained=0.95, original=0.9, shipped=shipped)


def test_mia_bar_holds_on_the_shipped_config_only():
    checks.check_mia(retrained=0.87, original=0.0, shipped=False)
    with pytest.raises(CheckError, match="< 0.9"):
        checks.check_mia(retrained=0.87, original=0.0, shipped=True)


def _sweep():
    return [[0.0, 0.9, 0.95, 0.99], [1e-3, 0.9, 0.95, 0.99], [1e-2, 0.88, 0.9, 0.9],
            [0.1, 0.7, 0.8, 0.8], [1.0, 0.4, 0.5, 0.5], [10.0, 0.2, 0.1, 0.1],
            [30.0, 0.2, 0.1, 0.1]]


def test_sweep_check_rejects_nan_cell_and_missing_cliff():
    checks.check_sweep(_sweep(), num_classes=6)
    rows = _sweep()
    rows[3][2] = float("nan")
    with pytest.raises(CheckError, match="non-finite"):
        checks.check_sweep(rows, num_classes=6)
    rows = _sweep()
    rows[-1][1] = 0.5
    with pytest.raises(CheckError, match="chance"):
        checks.check_sweep(rows, num_classes=6)
    rows = _sweep()
    rows[1][1] = 0.85
    with pytest.raises(CheckError, match="1e-3"):
        checks.check_sweep(rows, num_classes=6)


def test_dataset_check_rejects_wrong_row_count(tmp_path):
    y = np.repeat(np.arange(3), 4)
    write_ubm1(tmp_path / "X.ubm1", np.zeros((12, 2)))
    write_labels(tmp_path / "y.u32", y)
    checks.check_dataset(tmp_path, 3, dict.fromkeys(range(3), 4))
    with pytest.raises(CheckError, match="expected 15"):
        checks.check_dataset(tmp_path, 3, dict.fromkeys(range(3), 5))
    write_ubm1(tmp_path / "X.ubm1", np.zeros((11, 2)))
    with pytest.raises(CheckError, match="11 rows"):
        checks.check_dataset(tmp_path, 3, dict.fromkeys(range(3), 4))


def test_readers_reject_truncated_files(tmp_path):
    write_ubm1(tmp_path / "m.ubm1", np.ones((3, 2)))
    (tmp_path / "m.ubm1").write_bytes((tmp_path / "m.ubm1").read_bytes()[:-8])
    with pytest.raises(CheckError):
        checks.read_ubm1(tmp_path / "m.ubm1")
    (tmp_path / "n.ubm1").write_bytes(b"UBM2" + struct.pack("<II", 0, 0))
    with pytest.raises(CheckError, match="magic"):
        checks.read_ubm1(tmp_path / "n.ubm1")


def test_cli_check_rejects_nonzero_exit(tmp_path):
    calls = [{"argv": ["gen-data"], "exit": 0}, {"argv": ["train"], "exit": 2}]
    with pytest.raises(CheckError, match="train exited 2"):
        checks.check_cli_steps(tmp_path, {}, calls)


def test_cka_survives_astronomical_features():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 8))
    y = rng.standard_normal((30, 8))
    assert abs(checks.cka(x * 1e200, y) - gram_cka(x, y)) < 1e-12
