"""Atomic writes: a whole new file or the old one, with the mode open()
would give. The in-order map: a bounded window of items ahead, on worker
processes. File hashes in a fixed buffer."""

import hashlib
import itertools
import os
import stat
import tracemalloc

import pytest

from crashcast.util import atomic_write_text, atomic_writer, map_in_order, sha256_file


def test_atomic_writer_exception_keeps_the_old_file(tmp_path):
    target = tmp_path / "out.jsonl"
    target.write_bytes(b"old\n")
    with pytest.raises(RuntimeError, match="stop"):
        with atomic_writer(str(target)) as fh:
            fh.write(b"new, but only part of it")
            raise RuntimeError("stop")
    assert target.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [target]


def test_atomic_writer_replaces_the_file_when_the_block_ends(tmp_path):
    target = tmp_path / "out.jsonl"
    target.write_bytes(b"old\n")
    with atomic_writer(str(target)) as fh:
        fh.write(b"first\n")
        fh.write(b"second\n")
        assert target.read_bytes() == b"old\n"
    assert target.read_bytes() == b"first\nsecond\n"
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_gives_the_mode_open_would(tmp_path, umask, mode):
    before = os.umask(umask)
    try:
        atomic_write_text(str(tmp_path / "atomic.txt"), "x\n")
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x\n")
    finally:
        os.umask(before)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"atomic.txt": mode, "plain.txt": mode}


def _drawn(log, items):
    for item in items:
        log.append(item)
        yield item


@pytest.mark.parametrize("workers", [1, 3])
def test_map_in_order_draws_only_a_window_ahead(workers):
    # an endless iterable: a map that drew it all would never yield
    drawn = []
    results = map_in_order(abs, _drawn(drawn, itertools.count(-1, -1)), workers)
    assert [next(results) for _ in range(10)] == list(range(1, 11))
    assert len(drawn) <= 10 + 2 * workers
    results.close()


def test_map_in_order_raises_what_the_items_raise_on_a_process_pool():
    # an OSError from the items is theirs, not a pool that broke, so it is
    # raised rather than the rest running in this process (where the
    # finished iterable would end the map quietly). Four items fill the
    # first window of two workers, so the pool is running when the fifth
    # draw raises.
    def items():
        yield from range(-1, -5, -1)
        raise OSError("cannot read the next item")

    with pytest.raises(OSError, match="cannot read the next item"):
        list(map_in_order(abs, items(), 2))


def test_sha256_file_hashes_in_a_fixed_buffer(tmp_path):
    # a 4 MiB file (and a short last read) goes through one reused buffer,
    # not a new bytes object per read. Measured: 2,053 KiB traced peak with
    # 1 MiB reads, 65 KiB with the 64 KiB buffer.
    data = os.urandom(1 << 22) + b"tail"
    path = tmp_path / "blob"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        digest = sha256_file(str(path))
        held = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(data).hexdigest()
    assert held < 256 << 10, held


def test_blas_is_pinned_in_the_test_process():
    # tests/conftest.py imports crashcast before numpy loads, so in-process
    # commands run at the command line's one BLAS thread
    import crashcast

    assert crashcast.BLAS_THREADS == 1
