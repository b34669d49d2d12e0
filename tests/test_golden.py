"""Golden digests: a generated dataset and its feature arrays, pinned.

The other byte-reproducibility tests compare two runs of the same code; these
compare against digests recorded once, so a refactor that changes a single
output bit fails here. Like the benchmark's reference values they are
platform-pinned (numpy's generators and libm on x86-64 Linux).
"""

import hashlib

from crashcast.cli import main
from crashcast.features import build_features
from crashcast.scenario import read_dataset

GEN_SHA256 = "dacf4a882dd0e47e2b06f5a844307fabbbca123cc6315e444b74102dc0055f7a"
FEATURES_SHA256 = "28d6f15ae8e2cbc286bbfa00475ece139523fd31a95676137799b256a8928676"

_ARRAYS = ("visual", "text", "mask", "centers", "depths", "labels",
           "accident_frames")


def _features_digest(batch) -> str:
    h = hashlib.sha256()
    for name in _ARRAYS:
        arr = getattr(batch, name)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}:".encode())
        h.update(arr.tobytes())
    h.update(",".join(batch.video_ids).encode())
    return h.hexdigest()


def test_gen_data_and_features_match_recorded_digests(tmp_path):
    out = tmp_path / "golden.jsonl"
    assert main(["gen-data", "--count", "8", "--positive-ratio", "0.5",
                 "--seed", "7", "--jobs", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_SHA256
    batch = build_features(read_dataset(str(out)), 32, 19)
    assert _features_digest(batch) == FEATURES_SHA256
