"""Golden digests: a generated dataset, its feature arrays, a trained
checkpoint and what eval writes for it, pinned.

The other byte-reproducibility tests compare two runs of the same code; these
compare against digests recorded once, so a refactor that changes a single
output bit fails here. Like the benchmark's reference values they are
platform-pinned (numpy's generators and libm on x86-64 Linux).
"""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from crashcast.cli import main
from crashcast.features import build_features
from crashcast.scenario import read_dataset
from test_cli import _child_env

# (count, seed, jobs, gen-data sha256, features sha256), all at
# --positive-ratio 0.5. Seed 3 x 40 also reaches a negative's safety-radius
# rejection and retry; seed 2 x 300 runs the per-graph route paths inside
# worker processes and writes about 165k rounded numbers.
GOLDEN = [
    (8, 7, 1, "dacf4a882dd0e47e2b06f5a844307fabbbca123cc6315e444b74102dc0055f7a",
     "28d6f15ae8e2cbc286bbfa00475ece139523fd31a95676137799b256a8928676"),
    (40, 3, 1, "f1387f01ce236074047a8aaace1a3bca9cf55c1114dd0a95134f16d6282c4cd3",
     "359c536f76decb9d5d7af0d7d6677f76c8bff4d934da24a2a5e1f3c704b0edc2"),
    (300, 2, 2, "f9e57958c9ac882f7f122f9a4af52ac5e3b97f88fea9562132415d898786347e",
     "44c864efed08b7b4d1d91bd5111ccae4d3634bda50aa3d23277a0adc8fdf9cea"),
]

_ARRAYS = ("visual", "text", "mask", "centers", "depths", "labels",
           "accident_frames")
_OBJECT_AXIS = ("visual", "text", "mask", "centers", "depths")
_MAX_OBJECTS = 19


def _features_digest(batch, ids) -> str:
    """The digest of the arrays padded on the object axis with +0.0 (False
    for the mask) to max_objects slots, the width they were recorded at
    (build_features stores only the slots the batch uses), then of the
    videos' ids."""
    h = hashlib.sha256()
    for name in _ARRAYS:
        arr = getattr(batch, name)
        if name in _OBJECT_AXIS:
            pad = _MAX_OBJECTS - batch.objects
            arr = np.pad(arr, [(0, 0), (0, 0), (0, pad)] + [(0, 0)] * (arr.ndim - 3))
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}:".encode())
        h.update(arr.tobytes())
    h.update(",".join(ids).encode())
    return h.hexdigest()


@pytest.mark.parametrize("count, seed, jobs, gen_sha256, features_sha256", GOLDEN,
                         ids=[f"seed{seed}-{count}" for count, seed, *_ in GOLDEN])
def test_gen_data_and_features_match_recorded_digests(tmp_path, count, seed, jobs,
                                                      gen_sha256, features_sha256):
    out = tmp_path / "golden.jsonl"
    assert main(["gen-data", "--count", str(count), "--positive-ratio", "0.5",
                 "--seed", str(seed), "--jobs", str(jobs), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == gen_sha256
    records = read_dataset(str(out))
    batch = build_features(records, 32, _MAX_OBJECTS)
    assert _features_digest(batch, [r.id for r in records]) == features_sha256


# (count, seed, batch size, checkpoint sha256) of one epoch at --feature-dim 8
# --max-objects 4 on a --positive-ratio 0.5 dataset. The whole set is one
# batch wider than 8 videos, so every stage of the forward runs over 24.
GOLDEN_CHECKPOINT = (24, 5, 24,
                     "d56d35e024f87394348a6fa3a72c1fba3f386fc1ba26fd92d848568abfdba281")


def _run_child(cwd, argv) -> None:
    """Run one command in a child interpreter, as the command line runs it,
    so nothing this process loaded or configured can reach the digests."""
    proc = subprocess.run([sys.executable, "-m", "crashcast", *argv], cwd=cwd,
                          env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The golden dataset and its one-epoch checkpoint, made once."""
    count, seed, batch_size, _ = GOLDEN_CHECKPOINT
    cwd = tmp_path_factory.mktemp("golden")
    _run_child(cwd, ["gen-data", "--count", str(count), "--positive-ratio", "0.5",
                     "--seed", str(seed), "--jobs", "1", "--out", "d.jsonl"])
    _run_child(cwd, ["train", "--data", "d.jsonl", "--epochs", "1",
                     "--seed", str(seed), "--batch-size", str(batch_size),
                     "--feature-dim", "8", "--max-objects", "4", "--out", "m.ckpt"])
    return cwd


def test_train_checkpoint_matches_recorded_digest(golden_run):
    digest = hashlib.sha256((golden_run / "m.ckpt").read_bytes()).hexdigest()
    assert digest == GOLDEN_CHECKPOINT[3]


def test_in_process_train_writes_the_golden_checkpoint(golden_run, tmp_path):
    # tests/conftest.py pins BLAS to one thread in this process, so a
    # command run here writes the bytes the command line does
    count, seed, batch_size, ckpt_sha256 = GOLDEN_CHECKPOINT
    out = tmp_path / "m.ckpt"
    assert main(["train", "--data", str(golden_run / "d.jsonl"), "--epochs", "1",
                 "--seed", str(seed), "--batch-size", str(batch_size),
                 "--feature-dim", "8", "--max-objects", "4", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ckpt_sha256


def test_train_after_numpy_was_imported_writes_the_golden_checkpoint(golden_run,
                                                                      tmp_path):
    # a library caller that loads numpy first, under an environment that
    # asks its BLAS for two threads: importing crashcast then pins the
    # loaded OpenBLAS through its setter
    count, seed, batch_size, ckpt_sha256 = GOLDEN_CHECKPOINT
    out = tmp_path / "m.ckpt"
    argv = ["train", "--data", str(golden_run / "d.jsonl"), "--epochs", "1",
            "--seed", str(seed), "--batch-size", str(batch_size),
            "--feature-dim", "8", "--max-objects", "4", "--out", str(out)]
    code = ("import sys, numpy, crashcast\n"
            "assert crashcast.BLAS_THREADS == 1, crashcast.BLAS_THREADS\n"
            "from crashcast.cli import main\n"
            f"sys.exit(main({argv!r}))\n")
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS"), "2")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**_child_env(), **threads})
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ckpt_sha256
    manifest = json.loads((tmp_path / "m.ckpt.manifest.json").read_text())
    assert manifest["blas_threads"] == 1


# sha256 of report.json and of the curves CSV that eval --jobs 1 writes for
# the golden checkpoint on its own training set: the forward's bytes, which
# the reference AP/mTTA checks see only to 1e-6
GOLDEN_EVAL = ("93bfd21c76a0d64f3b13294014bb3d1b147a1beb0c4a304216474213be2e8d65",
               "1ff06ca8218e0a4aa18b039bc06cef14084596eee755498853791fd6e99c98ef")


def test_eval_outputs_match_recorded_digests(golden_run):
    _run_child(golden_run, ["eval", "--data", "d.jsonl", "--checkpoint", "m.ckpt",
                            "--out", "r.json", "--curves", "r.csv", "--jobs", "1"])
    got = tuple(hashlib.sha256((golden_run / name).read_bytes()).hexdigest()
                for name in ("r.json", "r.csv"))
    assert got == GOLDEN_EVAL


# sha256 of the checkpoint and of the log that a --resume to 2 epochs writes,
# continuing the golden dataset's 1-epoch run; both runs score the dataset as
# --val-data too, so the log holds validation rows from each run
GOLDEN_RESUME = ("4cca2cb139f0508769b13cb6c6a5296a629163b0bd8eba8f86df758467080ddf",
                 "5de0e095fb2abc930cc0d7413bad28b0949aaf8bb005a7673a178f533599a98d")


def test_validation_and_resume_match_recorded_digests(golden_run, tmp_path):
    _, seed, batch_size, _ = GOLDEN_CHECKPOINT
    data = str(golden_run / "d.jsonl")
    common = ["--data", data, "--val-data", data, "--seed", str(seed),
              "--batch-size", str(batch_size), "--feature-dim", "8",
              "--max-objects", "4"]
    first, last = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    assert main(["train", *common, "--epochs", "1", "--out", str(first)]) == 0
    assert main(["train", *common, "--epochs", "2", "--resume", str(first),
                 "--out", str(last)]) == 0
    got = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                for path in (last, tmp_path / "two.ckpt.log.csv"))
    assert got == GOLDEN_RESUME
