"""Every CLI output, pinned.

Runs each of the nine commands once on a micro config and compares the
SHA-256 digest of every output with values recorded before the command
scaffold was last rewritten.  The ``seconds`` columns of ``loss.csv`` and
``efficiency.csv`` are wall-clock times, so they are dropped before
hashing; each manifest is hashed with its ``seconds`` and the timing files'
checksums dropped and its paths taken relative to the run directory.

The outputs pass through ``np.sin``, ``np.tanh``, ``np.geomspace`` and
BLAS matrix products, whose last bits may differ between numpy builds and
CPU dispatch targets.  So the test first checks that a fingerprint of
those operations matches the build the digests come from, and skips
otherwise (as ``tests/test_dopri5_pinned.py`` does for ``np.sin``).
"""

import hashlib
import json

import numpy as np
import pytest

from modfield.bench_cli import main
from modfield.training import TrainConfig, save_config


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _rational(rows, cols, mult):
    k = np.arange(rows * cols)
    return ((mult * k + 3) % 101 / 50.0 - 1.0).reshape(rows, cols)


def _fingerprint():
    """Digest of the libm and BLAS results the outputs depend on."""
    x = np.arange(-400, 401) / 64.0
    a, b = _rational(60, 6, 37), _rational(6, 6, 53)
    w_in, w_out = _rational(3, 6, 29), _rational(6, 2, 41)
    return _digest(np.sin(x), np.cos(x), np.tanh(x),
                   np.geomspace(0.1, 0.5, 15), a @ b, a[:, :3] @ w_in,
                   a @ w_out, a.T @ a, np.linalg.norm(a, axis=-1))


_FINGERPRINT = (
    "96d29d9e6aaba4297cc6acbe6ceb3ae95d208b5b290ac94a819cc2ba3723edd0")

pytestmark = pytest.mark.skipif(
    _fingerprint() != _FINGERPRINT,
    reason="libm or BLAS rounds differently from the build the digests "
           "come from")


def _micro_cfg():
    return TrainConfig(n_records=60, batch_size=20, epochs=2, h_min=0.1,
                       h_max=0.5, seed=9, n_terms=2, hidden=(6,),
                       print_every=0, n_steps=3)


# output directory -> the command and its arguments (run_all adds --config
# and --out); "{root}" is the directory of the whole run
RUNS = {
    "generate": ["generate"],
    "train": ["train", "--data", "{root}/generate/dataset.csv"],
    "train-alt": ["train-alt"],
    "field-error-map": ["field-error-map",
                        "--model", "{root}/train/model.json",
                        "--k", "2", "--grid-n", "5", "--h", "0.2"],
    "convergence": ["convergence", "--model", "{root}/train/model.json",
                    "--T", "1.0"],
    "efficiency": ["efficiency", "--model", "{root}/train/model.json",
                   "--T", "1.0", "--h-list", "0.25", "--tol-list", "1e-6",
                   "--k-list", "2", "--repeats", "3"],
    "invariant-drift": ["invariant-drift", "--model",
                        "{root}/train/model.json", "--T", "1.0",
                        "--h", "0.25", "--y0", "1.0,0.5"],
    "param-study": ["param-study", "--widths", "4", "--depths", "1",
                    "--data-sizes", "30", "--grid-n", "5"],
    "compare-alt": ["compare-alt", "--model-std", "{root}/train/model.json",
                    "--model-alt", "{root}/train-alt/model_alt.json",
                    "--T", "1.0", "--h-list", "0.125,0.25"],
}

TIMED = {"loss.csv", "efficiency.csv"}


def run_all(root):
    """Run every command under ``root``; one subdirectory per command."""
    cfg = root / "micro.cfg"
    save_config(_micro_cfg(), cfg)
    for name, argv in RUNS.items():
        argv = [a.format(root=root) for a in argv]
        rc = main([argv[0], "--config", str(cfg), "--out", str(root / name),
                   *argv[1:]])
        assert rc == 0, name


def _untimed_bytes(path):
    """The file's bytes, its ``seconds`` column dropped if it has one."""
    text = path.read_text()
    if path.name not in TIMED:
        return text.encode()
    lines, col = [], None
    for line in text.splitlines():
        if not line.startswith("#"):
            cells = line.split(",")
            col = cells.index("seconds") if col is None else col
            line = ",".join(cells[:col] + cells[col + 1:])
        lines.append(line)
    return ("\n".join(lines) + "\n").encode()


def _manifest_bytes(path, root):
    doc = json.loads(path.read_text())
    del doc["seconds"]
    prefix = f"{root}/"
    doc["inputs"] = [p.replace(prefix, "") for p in doc["inputs"]]
    for entry in doc["outputs"]:
        entry["path"] = entry["path"].replace(prefix, "")
        if entry["path"].rsplit("/", 1)[-1] in TIMED:
            del entry["sha256"]
    return json.dumps(doc, sort_keys=True).encode()


def digests(root):
    """``{relative path: sha256}`` of every file the commands wrote."""
    out = {}
    for path in sorted(root.glob("*/*")):
        rel = str(path.relative_to(root))
        data = (_manifest_bytes(path, root) if path.name.endswith(
            "-manifest.json") else _untimed_bytes(path))
        out[rel] = hashlib.sha256(data).hexdigest()
    return out


PINNED = {
    "compare-alt/compare-alt-manifest.json":
        "e305e1909715660b89e5797088a6897f96708aaeda9ee7ac937a6cd1b797a087",
    "compare-alt/compare_alt.csv":
        "b82cdd85ac364d350ebbd3eaef78e5fa4bd924a07841c19b58e5976060367be1",
    "convergence/convergence-manifest.json":
        "59a83a35f4d2a8d205ade4ba7fa95e7e45ce998248e30a746c872da434bb3dbc",
    "convergence/convergence.csv":
        "39a993563fb05cc909543bc8b4405e3c7ef58675a02e739db600b903b4703ab0",
    "efficiency/efficiency-manifest.json":
        "7b7211d04bf8c8ef3637f69abc534b1642b202e17c01ae5118cbc8b7026fa8d0",
    "efficiency/efficiency.csv":
        "2c2bf78924b8fa599a36a4e6309b579579cc10670c95b9350aace571af6bc8a7",
    "field-error-map/field-error-map-manifest.json":
        "7e7df01565a4d7db524067e3c782a69a27e855c017d89dc22510e778a0416056",
    "field-error-map/field_error_map.csv":
        "1d9e608d970173aad05345ebc8380ca4793175471001059ce9b43b2f9c1aba85",
    "field-error-map/field_error_max.csv":
        "7a801b2d0a84012487f779cfce5abe1c7b4a734eb13c8777d164d4a0da16fcb2",
    "generate/dataset.csv":
        "848e447eac548559021d1756c87d02d5e9e033a613e49660930ee84af2a02c35",
    "generate/generate-manifest.json":
        "e31a94ef50457a65623044247167c1b6209dafd913e8eb8e001ec426e4c274c0",
    "invariant-drift/invariant-drift-manifest.json":
        "3ae2907d8cffa2a76b012c7c684ad8a7de2ca24ad3813a9a4f57d6997b828e84",
    "invariant-drift/invariant_drift.csv":
        "5c3ade7df56830f7e3c7822d0109fc96900cec06cdf6d3286c564ee655f1bedb",
    "param-study/param-study-manifest.json":
        "e416fbc402d5ca81bb618e442170c18fc509442dbcd7f0d6062893f63aaf8069",
    "param-study/param_study.csv":
        "99ff95ee833dd4e078e11307acb0fb11498b5fc1a66d85a2ebe063fcc194e86b",
    "train/loss.csv":
        "bcac93aa2cb2d6ec25bd71c995ac6d02f59ec4daab92674b98a70a6dd1d5992f",
    "train/model.json":
        "5ef9daa76e6c5574debc2857771dcfccce30a969ff564cfc52b5cb3d0a054965",
    "train/train-manifest.json":
        "23a85b6ba00ba79ccda841d3e01bcea4fee31d29f0c3ebfabdee3c95a4b6703e",
    "train-alt/loss_alt.csv":
        "c7dd7c520c88134c878799f0d5f1a35a45f4b362ae2e8f63a712ee292be7e2ea",
    "train-alt/model_alt.json":
        "5c131ca601e39a23ef9e272bb2b34290b4d06a9f4a41c89e2a3d70d8816fc601",
    "train-alt/train-alt-manifest.json":
        "e5fa9879bf5ac1d67e557e4e1243b701404c4a3038709be5a9669a792f900536",
}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    run_all(root)
    return digests(root)


def test_every_output_is_pinned(written):
    assert sorted(written) == sorted(PINNED)


@pytest.mark.parametrize("rel", sorted(PINNED))
def test_output_bytes_are_pinned(written, rel):
    assert written[rel] == PINNED[rel]
