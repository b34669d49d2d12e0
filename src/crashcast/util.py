"""Shared helpers: seeded RNG streams, stable hashing, atomic writes."""

from __future__ import annotations

import hashlib
import os
import tempfile

import numpy as np


def stable_u64(*parts) -> int:
    """Map a tuple of strings/ints to a stable 64-bit integer.

    Independent of PYTHONHASHSEED, so results are reproducible across runs
    and processes.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def stream_rng(seed: int, *key) -> np.random.Generator:
    """Counter-based generator for an independent, reproducible substream.

    The same (seed, key) always yields the same stream; distinct keys give
    statistically independent streams, so records can be produced in any
    order or in parallel.
    """
    entropy = [seed & 0xFFFFFFFFFFFFFFFF]
    entropy.extend(stable_u64(k) for k in key)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write data to path via a synced temp file + rename, so readers never
    see a torn file and a crash never leaves a renamed but empty one."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """UTF-8 text through atomic_write_bytes; newlines are written as given."""
    atomic_write_bytes(path, text.encode("utf-8"))
