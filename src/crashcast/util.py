"""Shared helpers: seeded RNG streams, stable hashing, atomic writes, and
the in-order parallel map."""

from __future__ import annotations

import collections
import contextlib
import hashlib
import itertools
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
    """Hex sha256 of the file, read through one reused 64 KiB buffer."""
    h = hashlib.sha256()
    buf = bytearray(1 << 16)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


class HashingWriter:
    """The binary file atomic_writer yields: each write goes to the file and
    into a running sha256, so the digest of what was written needs no
    second read of the file."""

    __slots__ = ("_fh", "_sha")

    def __init__(self, fh):
        self._fh = fh
        self._sha = hashlib.sha256()

    def write(self, data) -> int:
        self._sha.update(data)
        return self._fh.write(data)

    def hexdigest(self) -> str:
        """Hex sha256 of every byte written so far."""
        return self._sha.hexdigest()


@contextlib.contextmanager
def atomic_writer(path: str):
    """Yield a HashingWriter whose file replaces path when the block ends.

    The data goes to a temp file beside path (``.tmp-*.part``), which is
    flushed, synced, given the mode a plain open() would create (0o666 less
    the umask) and renamed over path, so readers never see a torn file and a
    crash never leaves a renamed but partial one. An exception in the block
    removes the temp file and leaves path as it was; a killed process can
    leave the temp file, never a partial path. After the block the writer's
    hexdigest() is the sha256 of path's new bytes."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield HashingWriter(fh)
            fh.flush()
            umask = os.umask(0)  # read by setting it; put back at once
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str, data: bytes) -> str:
    """Write data to path through atomic_writer; returns its hex sha256."""
    with atomic_writer(path) as fh:
        fh.write(data)
    return fh.hexdigest()


def atomic_write_text(path: str, text: str) -> str:
    """UTF-8 text through atomic_write_bytes; newlines are written as given.
    Returns the hex sha256 of the bytes written."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def map_in_order(fn, items, workers: int):
    """Yield fn(item) for each item in order, each as soon as it and those
    before it are done.

    With workers <= 1 the items run here, one after another. Otherwise the
    first 2 * workers items are drawn and run on a pool of as many worker
    processes as workers or as those items, whichever is fewer (fn and the
    items must then pickle); a lone item runs here, as a pool of one would
    only copy it to another process. One more item is drawn as each result
    is yielded, so at most 2 * workers are drawn and not yet yielded and
    what is held does not grow with their number; an exception the
    iterable raises comes out of this map where it is drawn. When the pool
    cannot start or breaks, every item not yet yielded runs here, in order,
    so each result is yielded exactly once whatever becomes of the pool."""
    items = iter(items)
    if workers <= 1:
        yield from map(fn, items)
        return
    window = collections.deque(itertools.islice(items, 2 * workers))
    if min(workers, len(window)) > 1:
        # imported only here: the pool loads multiprocessing, which no
        # --jobs 1 command needs
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        with contextlib.ExitStack() as pools:
            try:
                pool = pools.enter_context(
                    ProcessPoolExecutor(max_workers=min(workers, len(window))))
            except OSError:
                pool = None
            futures = collections.deque()  # of the window's first items
            while pool and window:
                try:
                    for item in itertools.islice(window, len(futures), None):
                        futures.append(pool.submit(fn, item))
                    result = futures.popleft().result()
                except (OSError, BrokenProcessPool):
                    break
                window.popleft()
                yield result
                # drawn outside the try: an OSError the items raise is theirs
                window.extend(itertools.islice(items, 1))
    # what the pool did not yield, if it could not start or broke
    yield from map(fn, itertools.chain(window, items))
