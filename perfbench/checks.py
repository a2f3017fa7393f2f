"""Output checks, made apart from the program.

Nothing here imports unlbench.  Files are read with this module's own
readers of the documented UBM1 and label formats; each score is recomputed
from its definition or held to a property the method must have, never to a
stored copy of an earlier output.  Every check raises CheckError.
"""

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

# The program scores a model whose centred self-similarity (HSIC of the
# Frobenius-normalised features) is below this floor as CKA 0.
SELF_HSIC_FLOOR = 1e-12
CKA_TOL = 1e-9
IDENTITY_TOL = 1e-12


class CheckError(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_ubm1(path) -> np.ndarray:
    """UBM1: b"UBM1", u32 LE rows, u32 LE cols, row-major f64 LE values."""
    raw = Path(path).read_bytes()
    _require(raw[:4] == b"UBM1", f"{path}: bad magic {raw[:4]!r}")
    rows, cols = struct.unpack_from("<II", raw, 4)
    _require(len(raw) == 12 + 8 * rows * cols, f"{path}: size does not match {rows}x{cols}")
    return np.frombuffer(raw, dtype="<f8", offset=12).reshape(rows, cols)


def read_labels(path) -> np.ndarray:
    """Label file: u64 LE count, then that many u32 LE labels."""
    raw = Path(path).read_bytes()
    (count,) = struct.unpack_from("<Q", raw, 0)
    _require(len(raw) == 8 + 4 * count, f"{path}: size does not match {count} labels")
    return np.frombuffer(raw, dtype="<u4", offset=8).astype(np.int64)


def cka(x: np.ndarray, y: np.ndarray) -> float:
    """Linear CKA in feature space, ||Yc'Xc||_F^2 / (||Xc'Xc||_F ||Yc'Yc||_F),
    after the program's documented Frobenius normalisation (Kornblith et
    al., 2019): features above 1e100 are first divided by their peak so
    the norm cannot overflow, and a norm above 1 is divided out."""
    def prep(m):
        peak = np.abs(m).max()
        m = m / peak if peak > 1e100 else m
        norm = np.linalg.norm(m)
        m = m / norm if norm > 1.0 else m
        return m - m.mean(axis=0)

    xc, yc = prep(x), prep(y)
    n = x.shape[0]
    sxx = np.linalg.norm(xc.T @ xc)
    syy = np.linalg.norm(yc.T @ yc)
    if min(sxx, syy) ** 2 / (n - 1) ** 2 < SELF_HSIC_FLOOR:
        return 0.0
    return float(np.linalg.norm(yc.T @ xc) ** 2 / (sxx * syy))


def agl(logit: dict) -> float:
    out = 1.0
    for g in ("g_f", "g_r", "g_tf", "g_tr"):
        out *= 1.0 - logit[g]
    return out


def agr(per_dataset: dict) -> float:
    """Random scenario: mean over every downstream dataset."""
    used = list(per_dataset.values())
    return (1.0 - sum(d["g_knn"] for d in used) / len(used)) \
        * (sum(d["cka_ur"] for d in used) / len(used))


def hlr(a: float, r: float) -> float:
    return 0.0 if a == 0.0 or r == 0.0 else 2.0 / (1.0 / a + 1.0 / r)


def check_scores(row: dict, what: str) -> None:
    """AGL, AGR and H-LR identities, every score in [0, 1]."""
    for key, want in (("agl", agl(row["logit"])), ("agr", agr(row["repr_scores"]))):
        _require(abs(row[key] - want) <= IDENTITY_TOL,
                 f"{what}: {key} {row[key]!r} != recomputed {want!r}")
    want = hlr(row["agl"], row["agr"])
    _require(abs(row["hlr"] - want) <= IDENTITY_TOL,
             f"{what}: hlr {row['hlr']!r} != recomputed {want!r}")
    scores = [row["agl"], row["agr"], row["hlr"], row["mia"], *row["logit"].values()]
    for d in row["repr_scores"].values():
        scores += d.values()
    _require(all(0.0 <= s <= 1.0 for s in scores), f"{what}: a score lies outside [0, 1]")


def _label(row: dict) -> str:
    if row["provenance"].get("role") in ("original", "retrained"):
        return row["method"]
    return f"{row['method']}-r{row['provenance']['repeat']}"


def check_cka(rows: list, features: Path) -> int:
    """Every cka_ur / cka_uo against the exported probe features; returns
    the number of pairs checked."""
    pairs = 0
    for row in rows:
        for name, d in row["repr_scores"].items():
            u = read_ubm1(features / _label(row) / f"{name}.ubm1")
            for key, ref in (("cka_ur", "retrained"), ("cka_uo", "original")):
                want = cka(u, read_ubm1(features / ref / f"{name}.ubm1"))
                _require(abs(d[key] - want) <= CKA_TOL,
                         f"{_label(row)}/{name}: {key} {d[key]!r} != recomputed {want!r}")
                pairs += 1
    return pairs


def check_mia(retrained: float, original: float, shipped: bool) -> None:
    """The attack must point the right way: the original model's forget set
    looks like members next to the retrained model's.  The absolute bar
    mia(retrained) >= 0.9 is the acceptance gate of the shipped config
    only; other seeds fall to 0.864 (see CHANGES.md)."""
    if shipped:
        _require(retrained >= 0.9, f"mia(retrained) {retrained} < 0.9")
    _require(original <= retrained - 0.2,
             f"mia(original) {original} > mia(retrained) - 0.2 = {retrained - 0.2}")


def check_default_run(out: Path, cfg: dict, shipped: bool) -> str:
    """report.json of `run` on cfg; returns its SHA-256 for the
    determinism check across the iterations of one session.  `shipped`
    says cfg is configs/default.json unchanged."""
    raw = (out / "report.json").read_bytes()
    rows = [r for r in json.loads(raw)["reports"] if r["status"] == "ok"]
    by_method = {r["method"]: r for r in rows}
    for r in rows:
        check_scores(r, r["method"])
    check_cka(rows, out / "features")

    retr, orig = by_method["retrained"], by_method["original"]
    for key in ("agl", "agr", "hlr"):
        _require(abs(retr[key] - 1.0) <= IDENTITY_TOL, f"retrained {key} {retr[key]!r} != 1")
    check_mia(retr["mia"], orig["mia"], shipped)

    data = cfg["data"]
    classes, per_class = data["num_train_classes"], data["per_class_train"]
    retain_rows = (classes - cfg["scenario"]["n_forget"]) * per_class
    echoed = {m["method"]: m for m in json.loads(raw)["config"]["methods"]}
    want = {"original": cfg["train"]["epochs"] * classes * per_class,
            "retrained": cfg["train"]["epochs"] * retain_rows,
            "FT": echoed["FT"]["base"]["epochs"] * retain_rows}
    for method, visits in want.items():
        if method in by_method:
            got = by_method[method]["sample_visits"]
            _require(got == visits, f"{method}: sample_visits {got} != {visits}")
    return hashlib.sha256(raw).hexdigest()


def check_sweep(rows: list, num_classes: int) -> None:
    """The dp-noise sweep: finite cells in [0, 1] and the DP cliff."""
    _require(len(rows) == 7, f"expected 7 sweep cells, got {len(rows)}")
    for sigma, *vals in rows:
        _require(all(math.isfinite(v) for v in vals), f"sigma {sigma}: non-finite cell {vals}")
        _require(all(0.0 <= v <= 1.0 for v in vals), f"sigma {sigma}: cell outside [0, 1]")
    knn = {sigma: k for sigma, k, _, _ in rows}
    _require(abs(knn[1e-3] - knn[0.0]) <= 0.02,
             f"knn moves {abs(knn[1e-3] - knn[0.0]):.4f} > 0.02 at sigma 1e-3")
    floor = 1.0 / num_classes + 0.10
    _require(knn[max(knn)] <= floor,
             f"knn {knn[max(knn)]:.4f} at sigma {max(knn)} above chance + 0.1 = {floor:.4f}")


def check_dataset(directory: Path, num_classes: int, per_class: dict) -> None:
    """Rows of X and y agree and each class has its expected count."""
    x = read_ubm1(directory / "X.ubm1")
    y = read_labels(directory / "y.u32")
    want = sum(per_class.values())
    _require(x.shape[0] == y.size == want,
             f"{directory.name}: {x.shape[0]} rows, {y.size} labels, expected {want}")
    counts = np.bincount(y, minlength=num_classes)
    for c in range(num_classes):
        _require(counts[c] == per_class.get(c, 0),
                 f"{directory.name}: class {c} has {counts[c]} rows, "
                 f"expected {per_class.get(c, 0)}")


def check_cli_steps(work: Path, cfg: dict, calls: list) -> None:
    for c in calls:
        _require(c["exit"] == 0, f"unlbench {c['argv'][0]} exited {c['exit']}")
    data = cfg["data"]
    classes = data["num_train_classes"]
    n_tr, n_te = data["per_class_train"], data["per_class_test"]
    check_dataset(work / "data" / "train", classes, dict.fromkeys(range(classes), n_tr))
    check_dataset(work / "data" / "test", classes, dict.fromkeys(range(classes), n_te))
    for d in data["downstream_specs"]:
        check_dataset(work / "data" / d["name"], d["num_classes"],
                      dict.fromkeys(range(d["num_classes"]), d["per_class"]))

    manifest = json.loads((work / "split" / "manifest.json").read_text())
    forget, retain = set(manifest["forget_classes"]), set(manifest["retain_classes"])
    n = cfg["scenario"]["n_forget"]
    _require(not forget & retain, "forget and retain classes overlap")
    _require(forget | retain == set(range(classes)), "forget and retain miss a class")
    _require(len(forget) == n, f"{len(forget)} forget classes, expected {n}")
    for part, keep, per in (("Df", forget, n_tr), ("Dr", retain, n_tr),
                            ("Df_te", forget, n_te), ("Dr_te", retain, n_te)):
        check_dataset(work / "split" / part, classes, dict.fromkeys(keep, per))

    for c in calls:
        if c["argv"][0] == "eval":
            out = Path(c["argv"][c["argv"].index("--out") + 1])
            check_scores(json.loads(out.read_text()), out.parent.name)
