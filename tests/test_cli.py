import argparse
import concurrent.futures
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crashcast
from crashcast import autodiff as ad
from crashcast import cli, roadnet, traineval
from crashcast.cli import _DEFAULTS, GEN_SPAN, main
from crashcast.riskmodel import ModelConfig, ModelParams
from crashcast.scenario.generate import GenerationError, generate_one
from crashcast.scenario.presets import multilane_map_xml
from crashcast.scenario.records import read_dataset


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A dataset plus a small trained checkpoint shared by the read-only
    tests; tests that write artifacts use their own tmp_path."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "d.jsonl"
    ckpt = root / "ckpt.bin"
    assert main(["gen-data", "--count", "12", "--positive-ratio", "0.5",
                 "--seed", "7", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--epochs", "2", "--seed",
                 "1", "--out", str(ckpt), "--feature-dim", "8",
                 "--max-objects", "4"]) == 0
    return root, data, ckpt


def _gen(out, *extra):
    return main(["gen-data", "--count", "8", "--positive-ratio", "0.5",
                 "--seed", "3", "--out", str(out), *map(str, extra)])


# ---------------------------------------------------------------------------
# gen-data

def test_gen_data_count_and_ratio(work):
    _, data, _ = work
    records = read_dataset(data)
    assert len(records) == 12
    assert sum(r.positive for r in records) == 6


def test_gen_data_same_flags_twice_byte_identical(tmp_path):
    out = tmp_path / "a.jsonl"
    assert _gen(out) == 0
    first = out.read_bytes()
    assert _gen(out, "--force") == 0
    assert out.read_bytes() == first


def test_gen_data_jobs_do_not_change_bytes(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert _gen(a) == 0
    assert _gen(b, "--jobs", 3) == 0
    assert a.read_bytes() == b.read_bytes()


def test_pools_start_no_more_workers_than_tasks(work, eval40, tmp_path,
                                               monkeypatch):
    # the pool starts all its workers at once, so one sized at --jobs
    # would start more processes than there are spans or chunks to run, and
    # one for a single task would only copy it to another process
    # (util imports the pool where it builds one, so the patch goes on the
    # name it imports)
    sizes = []
    pool = concurrent.futures.ProcessPoolExecutor

    def recording_pool(max_workers=None, **kwargs):
        sizes.append(max_workers)
        return pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(["gen-data", "--count", "2", "--jobs", "1", "--out", str(a)]) == 0
    assert main(["gen-data", "--count", "2", "--jobs", "8", "--out", str(b)]) == 0
    assert sizes == [2]
    assert a.read_bytes() == b.read_bytes()
    # eval streams its chunks of 8, so the pool's width comes from the
    # first window of 2 * --jobs chunks: one chunk starts none
    eight = _cycled(work, tmp_path / "eight.jsonl", 8)
    assert main(["eval", "--data", str(eight), "--checkpoint", str(work[2]),
                 "--out", str(tmp_path / "r8.json"), "--jobs", "3"]) == 0
    assert sizes == [2]
    assert main(["eval", "--data", str(eval40), "--checkpoint", str(work[2]),
                 "--out", str(tmp_path / "r40.json"), "--jobs", "2"]) == 0
    assert sizes == [2, 2]


def test_gen_data_missing_network_exits_2(tmp_path):
    code = main(["gen-data", "--network", str(tmp_path / "nope.xml"),
                 "--count", "3", "--out", str(tmp_path / "d.jsonl")])
    assert code == 2


def test_gen_data_network_file_used_for_negatives(tmp_path):
    net = tmp_path / "net.txt"
    net.write_text(multilane_map_xml())
    out = tmp_path / "d.jsonl"
    assert main(["gen-data", "--network", str(net), "--count", "4",
                 "--positive-ratio", "0.0", "--seed", "11",
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())
    assert str(net) in manifest["inputs"]
    assert len(read_dataset(out)) == 4


def test_gen_data_parses_the_network_once(tmp_path, monkeypatch):
    # the spans share the parsed graph (and its route cache) instead of
    # each parsing the file's text again
    net = tmp_path / "net.txt"
    net.write_text(multilane_map_xml())
    calls = []
    parse = roadnet.parse_network

    def counting(text):
        calls.append(len(text))
        return parse(text)

    monkeypatch.setattr(roadnet, "parse_network", counting)
    count = 2 * GEN_SPAN + 1  # three spans
    assert main(["gen-data", "--network", str(net), "--count", str(count),
                 "--positive-ratio", "0.0", "--jobs", "1",
                 "--out", str(tmp_path / "d.jsonl")]) == 0
    assert calls == [len(multilane_map_xml())]


_MAP = multilane_map_xml().encode()


def _l1b(attr: str, value: str) -> bytes:
    """The multilane map with one attribute of its edge l1b replaced."""
    return re.sub(rf'(id="l1b"[^>]* {attr}=")[^"]*'.encode(),
                  rf"\g<1>{value}".encode(), _MAP)


@pytest.mark.parametrize("network,message", [
    (_l1b("length", "inf"), "cannot parse network file {}: edge 'l1b' has "
                            "non-finite length inf (line 12)"),
    (_l1b("length", "1e400"), "cannot parse network file {}: edge 'l1b' has "
                              "non-finite length inf (line 12)"),
    (_l1b("speed", "0"), "cannot parse network file {}: edge 'l1b' has "
                         "nonpositive speed 0.0 (line 12)"),
    # a lead byte whose continuation is ASCII
    (_MAP[:444] + b"\xd6" + _MAP[445:],
     "network file {} is not UTF-8: invalid continuation byte at byte 444"),
    (_MAP.replace(b" speed=", b' internal="true" speed='),
     "network file {} has no trip endpoints: network has no non-internal edges"),
])
def test_gen_data_bad_network_exits_2_naming_file_and_place(tmp_path, capsys,
                                                           network, message):
    net = tmp_path / "net.xml"
    net.write_bytes(network)
    capsys.readouterr()
    assert _gen(tmp_path / "d.jsonl", "--network", net) == 2
    err = _one_error_line(capsys)
    assert message.format(net) in err, err
    assert list(tmp_path.iterdir()) == [net]


@st.composite
def _damaged_network(draw) -> bytes:
    """The multilane map cut short, with bytes flipped, with a numeric
    attribute set to an awkward value, or with an attribute dropped."""
    text = multilane_map_xml()
    kind = draw(st.sampled_from(["truncate", "flip", "value", "drop"]))
    if kind in ("value", "drop"):
        spans = [m.span() for m in re.finditer(
            r'\b(?:x|y|length|speed)="[^"]*"' if kind == "value"
            else r' \w+="[^"]*"', text)]
        lo, hi = draw(st.sampled_from(spans))
        if kind == "drop":
            return (text[:lo] + text[hi:]).encode()
        name = text[lo:text.index("=", lo)]
        value = draw(st.sampled_from(
            ["nan", "inf", "-inf", "1e400", "1e-320", "", "abc"]))
        return (text[:lo] + f'{name}="{value}"' + text[hi:]).encode()
    raw = bytearray(text.encode())
    if kind == "truncate":
        return bytes(raw[:draw(st.integers(0, len(raw) - 1))])
    for at, mask in draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                            st.integers(1, 255)),
                                  min_size=1, max_size=3)):
        raw[at] ^= mask
    return bytes(raw)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(network=_damaged_network())
def test_damaged_network_exits_0_2_or_3(network):
    # a flip can leave a network that still parses and routes, e.g. another
    # digit of a speed; such a run succeeds
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        (root / "net.xml").write_bytes(network)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["gen-data", "--network", str(root / "net.xml"),
                         "--count", "2", "--out", str(root / "out.jsonl")])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == [] and (root / "out.jsonl").exists()
        else:
            assert code in (2, 3), (network, lines)
            assert len(lines) == 1 and lines[0].startswith(
                "crashcast: error:"), (network, lines)
            assert [p.name for p in root.iterdir()] == ["net.xml"]


def test_gen_data_scenario_that_fails_every_attempt_says_why(tmp_path, capsys):
    # one 10 m edge: no ego route lasts the 6 s window
    net = tmp_path / "net.xml"
    net.write_text('<network><node id="a" x="0" y="0"/><node id="b" x="10" y="0"/>'
                   '<edge id="ab" from="a" to="b" length="10" speed="10"/></network>')
    capsys.readouterr()
    assert _gen(tmp_path / "d.jsonl", "--network", net) == 3
    assert _one_error_line(capsys) == (
        "crashcast: error: scenario 0 failed after 20 attempts: "
        "no ego route spanning 6.0 s in 50 draws")
    assert list(tmp_path.iterdir()) == [net]


@pytest.mark.parametrize("speed", ["1e-9", "1e-300"])
def test_gen_data_on_a_network_of_slow_edges_exits_0_or_3(tmp_path, capsys,
                                                         speed):
    # finite travel times of up to 1e300 s; the traffic sampled on them
    # must not grow with them
    net = tmp_path / "net.xml"
    net.write_text(re.sub(r'speed="[^"]*"', f'speed="{speed}"',
                          multilane_map_xml()))
    capsys.readouterr()
    code = _gen(tmp_path / "d.jsonl", "--network", net,
                "--positive-ratio", "0.0")
    err = capsys.readouterr().err
    assert code in (0, 3) and "Traceback" not in err, err
    assert len(err.splitlines()) <= 1 and err.count("crashcast: error:") <= 1, err


def test_gen_data_refuses_overwrite_without_force(tmp_path):
    out = tmp_path / "a.jsonl"
    assert _gen(out) == 0
    assert _gen(out) == 2


def test_gen_data_invalid_ratio_exits_2(tmp_path):
    code = main(["gen-data", "--count", "3", "--positive-ratio", "1.5",
                 "--out", str(tmp_path / "d.jsonl")])
    assert code == 2


def test_gen_data_manifest_records_output_hash(tmp_path):
    out = tmp_path / "a.jsonl"
    assert _gen(out) == 0
    manifest = json.loads((tmp_path / "a.jsonl.manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert manifest["config"]["seed"] == 3
    assert len(manifest["outputs"][str(out)]) == 64
    assert manifest["started_at"] <= manifest["finished_at"]


def _fail_in_the_third_span(monkeypatch) -> int:
    """Make generate_one fail at one scenario of the third span, after two
    spans were written; returns its index."""
    real = cli.generate_one
    failing_index = 2 * GEN_SPAN + 3

    def failing(seed, index, *args):
        if index == failing_index:
            raise GenerationError(f"scenario {index}: every attempt failed")
        return real(seed, index, *args)

    monkeypatch.setattr(cli, "generate_one", failing)
    return failing_index


@pytest.mark.parametrize("existing", [False, True])
def test_gen_data_failure_leaves_no_partial_output(tmp_path, monkeypatch,
                                                   capsys, existing):
    failing_index = _fail_in_the_third_span(monkeypatch)
    out = tmp_path / "d.jsonl"
    extra = []
    if existing:
        out.write_bytes(b"old\n")
        extra = ["--force"]
    capsys.readouterr()
    assert main(["gen-data", "--count", str(3 * GEN_SPAN), "--seed", "3",
                 "--out", str(out), *extra]) == 3
    assert f"scenario {failing_index}" in _one_error_line(capsys)
    left = sorted(p.name for p in tmp_path.iterdir())
    assert left == (["d.jsonl"] if existing else [])
    if existing:
        assert out.read_bytes() == b"old\n"


def test_gen_data_failure_in_a_worker_exits_3(tmp_path, monkeypatch, capsys):
    # the GenerationError a worker process raises comes back through the
    # pool and ends the run as in one process
    failing_index = _fail_in_the_third_span(monkeypatch)
    capsys.readouterr()
    assert main(["gen-data", "--count", str(3 * GEN_SPAN), "--seed", "3",
                 "--jobs", "2", "--out", str(tmp_path / "d.jsonl")]) == 3
    assert _one_error_line(capsys) == (
        f"crashcast: error: scenario {failing_index}: every attempt failed")
    assert list(tmp_path.iterdir()) == []


class _PoolThatCannotStart:
    def __init__(self, max_workers=None):
        raise OSError("cannot start a worker process")


class _PoolThatBreaksAfterOneTask:
    """Runs the first task in this process, then fails as a pool does when a
    worker dies: every later task's future raises BrokenProcessPool."""

    def __init__(self, max_workers=None):
        self.submitted = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, task):
        future = concurrent.futures.Future()
        if self.submitted:
            future.set_exception(BrokenProcessPool("a worker died"))
        else:
            future.set_result(fn(task))
        self.submitted += 1
        return future


@pytest.mark.parametrize("pool", [_PoolThatCannotStart,
                                  _PoolThatBreaksAfterOneTask])
@pytest.mark.parametrize("command", ["gen-data", "eval"])
def test_pool_failure_runs_the_rest_in_this_process(work, eval40, tmp_path,
                                                    monkeypatch, command, pool):
    # every span (gen-data) or chunk (eval) not yet written runs here, once
    made = []
    if command == "gen-data":
        module, name = cli, "_gen_span"
        args = ["--count", "30"]
        note = lambda task: made.append(task[4])  # the span's first index
        # spans of ceil(30 / 3) = 10
        expected = [0, 10, 20]
    else:
        module, name = traineval, "forward"
        args = ["--data", str(eval40), "--checkpoint", str(work[2])]
        note = lambda fb, *_: made.append(fb.batch_size)
        expected = [8] * 5
    real = getattr(module, name)

    def recording(*task):
        note(*task)
        return real(*task)

    monkeypatch.setattr(module, name, recording)
    a = tmp_path / "a.out"
    b = tmp_path / "b.out"
    assert main([command, *args, "--jobs", "1", "--out", str(a)]) == 0
    made.clear()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    assert main([command, *args, "--jobs", "3", "--out", str(b)]) == 0
    assert sorted(made) == expected
    assert a.read_bytes() == b.read_bytes()
    if command == "eval":
        assert (tmp_path / "a.out.curves.csv").read_bytes() == \
            (tmp_path / "b.out.curves.csv").read_bytes()


def test_gen_data_memory_is_flat_in_count(tmp_path, monkeypatch):
    # gen-data writes each span as it is made, so it holds no more for 12
    # spans than for 6. Every span repeats the same scenarios, made before
    # tracing starts, so the peak is what gen-data holds beyond generation
    # (whose own temporaries do not depend on the count either) and every
    # span takes the same room. Both datasets (12.5 kB a scenario) are
    # larger than the 64 KiB buffer through which the manifest's hash reads
    # them. Measured: the peak grew by 2.4 MB when every line was held to
    # the end, and by less than 0.1 MB with one span held at a time.
    made = [generate_one(3, i, GEN_SPAN, 0.5) for i in range(GEN_SPAN)]
    monkeypatch.setattr(cli, "generate_one",
                        lambda seed, index, *_: made[index % GEN_SPAN])

    def peak(n):
        out = tmp_path / f"{n}.jsonl"
        tracemalloc.start()
        try:
            assert main(["gen-data", "--count", str(n), "--seed", "3",
                         "--out", str(out)]) == 0
            held = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 2**20
        return held

    small, large = peak(6 * GEN_SPAN), peak(12 * GEN_SPAN)
    assert large - small < 2**19, (small, large)


def test_gen_data_draws_its_spans_as_it_needs_them(tmp_path, monkeypatch):
    # with every span stubbed out, what gen-data holds is its own
    # bookkeeping, which does not grow with --count. Measured: a list of
    # all 62,500 span tasks held 9.6 MB here.
    monkeypatch.setattr(cli, "_gen_span", lambda task: (b"", 0))
    out = tmp_path / "d.jsonl"
    tracemalloc.start()
    try:
        assert main(["gen-data", "--count", "1000000", "--out", str(out)]) == 0
        held = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held < 2**20, held


# ---------------------------------------------------------------------------
# config resolution

def test_each_command_takes_a_flag_per_config_key_and_config():
    # _resolve reads flags only for _DEFAULTS keys, so any other flag would
    # be ignored
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_DEFAULTS)
    for command, subparser in sub.choices.items():
        flags = {s for a in subparser._actions for s in a.option_strings}
        assert flags - {"-h", "--help"} == {
            "--config", *(f"--{k.replace('_', '-')}" for k in _DEFAULTS[command])
        }, command


@pytest.mark.parametrize("command", sorted(_DEFAULTS))
def test_help_lists_every_option_with_its_help_text(command, capsys,
                                                     monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    # argparse wraps help text at spaces and hyphens, so compare it with
    # every space taken out
    flat = "".join(out.split())
    options = [*cli._COMMANDS[command][1], ("config", None, "JSON config file")]
    for key, _, text in options:
        flag = f"--{key.replace('_', '-')}"
        assert re.search(rf"^  {flag}( |$)", out, re.M), flag
        assert "".join((text or "").split()) in flat, flag


def test_train_defaults_are_the_config_dataclasses_defaults():
    fields = [*dataclasses.fields(traineval.TrainConfig),
              *dataclasses.fields(ModelConfig)]
    assert {f.name: f.default for f in fields}.items() <= \
        _DEFAULTS["train"].items()


def test_config_file_overrides_defaults_flags_override_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"count": 5, "positive_ratio": 0.0}))
    a = tmp_path / "a.jsonl"
    assert main(["gen-data", "--config", str(cfg_path),
                 "--out", str(a)]) == 0
    assert len(read_dataset(a)) == 5

    b = tmp_path / "b.jsonl"
    assert main(["gen-data", "--config", str(cfg_path), "--count", "3",
                 "--out", str(b)]) == 0
    assert len(read_dataset(b)) == 3


def test_config_file_unknown_key_exits_2(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bogus": 1}))
    assert main(["gen-data", "--config", str(cfg_path),
                 "--out", str(tmp_path / "d.jsonl")]) == 2


# every config key of every command, by the JSON type it takes
_KEY_KINDS = {
    "gen-data": {"network": "path", "count": "int", "positive_ratio": "float",
                 "seed": "int", "out": "path", "jobs": "int", "force": "bool"},
    "train": {"data": "path", "val_data": "path", "out": "path",
              "resume": "path", "learning_rate": "float", "epochs": "int",
              "batch_size": "int", "seed": "int", "feature_dim": "int",
              "max_objects": "int", "force": "bool"},
    "eval": {"data": "path", "checkpoint": "path", "out": "path",
             "curves": "path", "threshold": "float", "jobs": "int",
             "force": "bool"},
}

# JSON texts of values no key takes: non-finite numbers (Python's json
# reads 1e400 as inf) and containers
_NEVER_VALID = st.one_of(
    st.sampled_from(["Infinity", "-Infinity", "NaN", "1e400", "-1e400"]),
    st.lists(st.integers(0, 3), max_size=2).map(json.dumps),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3),
                    max_size=1).map(json.dumps))


def _wrong(values):
    return _NEVER_VALID | values.map(json.dumps)


# per kind, the type the error names and the JSON texts of wrong values
_KINDS = {
    "bool": ("a JSON boolean", _wrong(
        st.integers() | st.floats() | st.text(max_size=4) | st.none())),
    # any JSON float, fractional or not (1.0), is not an integer
    "int": ("a JSON integer", _wrong(
        st.booleans() | st.floats() | st.text(max_size=4) | st.none())),
    "float": ("a finite JSON number", _wrong(
        st.booleans() | st.text(max_size=4) | st.none()
        | st.integers(min_value=2 ** 1024))),
    "path": ("a JSON string or null", _wrong(
        st.booleans() | st.integers() | st.floats())),
}


@st.composite
def _bad_config(draw):
    command = draw(st.sampled_from(sorted(_KEY_KINDS)))
    key = draw(st.sampled_from(sorted(_KEY_KINDS[command])))
    kind = _KEY_KINDS[command][key]
    return command, key, kind, draw(_KINDS[kind][1])


def test_config_key_kinds_cover_every_option():
    assert {c: set(k) for c, k in _KEY_KINDS.items()} == \
        {c: set(d) for c, d in _DEFAULTS.items()}


@settings(max_examples=100, derandomize=True, deadline=None)
@given(case=_bad_config())
def test_config_value_of_a_wrong_type_exits_2(work, case):
    # the flags make a run that would succeed, were the file value accepted
    command, key, kind, text = case
    _, data, ckpt = work
    flags = {"gen-data": {"count": 2},
             "train": {"data": data, "epochs": 1, "feature_dim": 8,
                       "max_objects": 4},
             "eval": {"data": data, "checkpoint": ckpt}}[command]
    with tempfile.TemporaryDirectory() as root:
        cfg_path = os.path.join(root, "cfg.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(f'{{"{key}": {text}}}')
        argv = [command, "--config", cfg_path,
                "--out", os.path.join(root, "out")]
        for flag, value in flags.items():
            if flag != key:
                argv += [f"--{flag.replace('_', '-')}", str(value)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        assert code == 2, (argv, text, lines)
        assert len(lines) == 1 and lines[0].startswith("crashcast: error:")
        assert f"{cfg_path}: {key} must be {_KINDS[kind][0]}" in lines[0], lines
        assert os.listdir(root) == ["cfg.json"]


# a value of each ranged key that its command does not take, with the check's text
_OUT_OF_RANGE = [
    ("gen-data", "count", 0, "must be >= 1"),
    ("gen-data", "positive_ratio", 1.5, "must lie in [0, 1]"),
    ("gen-data", "jobs", 0, "must be >= 1"),
    ("train", "learning_rate", -1.0, "must be a finite number >= 0, got -1.0"),
    ("train", "epochs", -1, "must be >= 0"),
    ("train", "batch_size", 0, "must be >= 1"),
    ("train", "feature_dim", 7, "must be even and >= 2"),
    ("train", "max_objects", 0, "must be >= 1"),
    ("eval", "threshold", 1.1, "must lie in [0, 1], got 1.1"),
    ("eval", "jobs", 0, "must be >= 1"),
]


def _ranged_run(work, root, command, key, value, via):
    """Exit code and stderr lines of a run that would succeed but for key's
    value, given as a flag or (via="file") in a config file in root."""
    _, data, ckpt = work
    flags = {"gen-data": {"count": 2},
             "train": {"data": data, "epochs": 1, "feature_dim": 8,
                       "max_objects": 4},
             "eval": {"data": data, "checkpoint": ckpt}}[command]
    flags = {k: v for k, v in flags.items() if k != key}
    argv = [command, "--out", str(root / "out")]
    if via == "flag":
        flags[key] = value
    else:
        (root / "cfg.json").write_text(json.dumps({key: value}))
        argv += ["--config", str(root / "cfg.json")]
    for flag, v in flags.items():
        argv += [f"--{flag.replace('_', '-')}", str(v)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue().splitlines()


@pytest.mark.parametrize("via", ["flag", "file"])
@pytest.mark.parametrize("command,key,value,text", _OUT_OF_RANGE)
def test_value_out_of_range_exits_2_naming_its_flag_or_config_file(
        work, tmp_path, command, key, value, text, via):
    code, lines = _ranged_run(work, tmp_path, command, key, value, via)
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("crashcast: error:"), lines
    where = (f"--{key.replace('_', '-')}" if via == "flag"
             else f"config file {tmp_path / 'cfg.json'}: {key}")
    assert lines[0] == f"crashcast: error: {where} {text}"
    assert [p.name for p in tmp_path.iterdir()] == (["cfg.json"] if via == "file" else [])


# a config file each command runs with, given its inputs and --out as flags
_CONFIGS = {
    "gen-data": {"count": 2, "positive_ratio": 0.5, "seed": 3},
    "train": {"epochs": 1, "seed": 1, "feature_dim": 8, "max_objects": 4,
              "batch_size": 8, "learning_rate": 0.001},
    "eval": {"threshold": 0.5},
}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(command=st.sampled_from(sorted(_CONFIGS)), data=st.data())
def test_damaged_config_file_exits_0_2_or_3(work, command, data):
    # a flip can leave a config the command takes, e.g. another seed; such a
    # run succeeds
    _, dataset, ckpt = work
    text = bytearray(json.dumps(_CONFIGS[command]).encode())
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(text) - 1),
                                         st.integers(0, 7)), max_size=3))
    for at, bit in flips:
        text[at] ^= 1 << bit
    text = bytes(text[:data.draw(st.none() | st.integers(0, len(text) - 1))])
    inputs = {"gen-data": [], "train": ["--data", str(dataset)],
              "eval": ["--data", str(dataset), "--checkpoint", str(ckpt)]}[command]
    with tempfile.TemporaryDirectory() as root:
        cfg_path = os.path.join(root, "cfg.json")
        with open(cfg_path, "wb") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", cfg_path,
                         "--out", os.path.join(root, "out"), *inputs])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
            assert os.path.exists(os.path.join(root, "out"))
        else:
            assert code in (2, 3), (text, lines)
            assert len(lines) == 1 and lines[0].startswith("crashcast: error:"), lines
            assert cfg_path in lines[0], (text, lines)
            assert os.listdir(root) == ["cfg.json"]


def test_env_seed_overrides_default_seed_only(tmp_path, monkeypatch):
    base = tmp_path / "base.jsonl"
    assert main(["gen-data", "--count", "4", "--seed", "99",
                 "--out", str(base)]) == 0

    monkeypatch.setenv("CRASHCAST_SEED", "99")
    via_env = tmp_path / "env.jsonl"
    assert main(["gen-data", "--count", "4", "--out", str(via_env)]) == 0
    assert via_env.read_bytes() == base.read_bytes()

    explicit = tmp_path / "flag.jsonl"
    assert main(["gen-data", "--count", "4", "--seed", "5",
                 "--out", str(explicit)]) == 0
    assert explicit.read_bytes() != base.read_bytes()


def test_usage_error_exits_2(tmp_path, capsys):
    assert main(["gen-data", "--no-such-flag"]) == 2
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


# ---------------------------------------------------------------------------
# train

def test_train_writes_checkpoint_sidecar_log_manifest(work):
    root, data, ckpt = work
    sidecar = json.loads((root / "ckpt.bin.json").read_text())
    assert set(sidecar) == {"model", "train", "frames", "fps", "sha256"}
    assert sidecar["model"] == {"feature_dim": 8, "max_objects": 4}
    assert sidecar["train"] == {"learning_rate": 1e-3, "epochs": 2,
                                "batch_size": 8, "seed": 1}
    assert sidecar["frames"] == 50 and sidecar["fps"] == 10
    assert sidecar["sha256"] == {
        "checkpoint": hashlib.sha256(ckpt.read_bytes()).hexdigest(),
        "log": hashlib.sha256((root / "ckpt.bin.log.csv").read_bytes()).hexdigest()}
    assert float(ad.load_checkpoint(str(ckpt))["meta.epochs_done"]) == 2.0

    log = (root / "ckpt.bin.log.csv").read_text().splitlines()
    assert log[0] == "step,epoch,split,L1,L2,L3,L"
    epoch_rows = [l for l in log[1:] if l.split(",")[2] == "epoch"]
    assert len(epoch_rows) == 2
    step_rows = [l for l in log[1:] if l.split(",")[2] == "train"]
    assert len(step_rows) == 2 * 2  # 12 records / batch 8 -> 2 steps/epoch

    manifest = json.loads((root / "ckpt.bin.manifest.json").read_text())
    assert str(data) in manifest["inputs"]
    assert manifest["blas_threads"] == crashcast.BLAS_THREADS
    assert set(manifest["outputs"]) == {str(ckpt), str(root / "ckpt.bin.json"),
                                        str(root / "ckpt.bin.log.csv")}


def test_manifest_output_hashes_come_from_the_writers(tmp_path, monkeypatch):
    # each output is hashed as it is written; only inputs are read to hash
    import builtins

    real_open, real_hash = builtins.open, cli.sha256_file
    read = []

    def recording_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
            read.append(os.path.abspath(file))
        return real_open(file, mode, *args, **kwargs)

    def recording_hash(path):
        read.append(os.path.abspath(path))
        return real_hash(path)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(cli, "sha256_file", recording_hash)
    data, ckpt, report = tmp_path / "d.jsonl", tmp_path / "m.bin", tmp_path / "r.json"
    commands = [
        (["gen-data", "--count", "4", "--out", str(data)], data, [data]),
        (["train", "--data", str(data), "--epochs", "1", "--feature-dim", "8",
          "--max-objects", "4", "--out", str(ckpt)], ckpt,
         [ckpt, tmp_path / "m.bin.json", tmp_path / "m.bin.log.csv"]),
        (["eval", "--data", str(data), "--checkpoint", str(ckpt),
          "--out", str(report)], report, [report, tmp_path / "r.json.curves.csv"]),
    ]
    for argv, out, outputs in commands:
        read.clear()
        assert main(argv) == 0
        assert not set(read) & {os.path.abspath(p) for p in outputs}, argv[0]
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["outputs"] == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs}
    assert os.path.abspath(data) in read  # eval still hashes its input


def test_every_input_is_hashed_before_it_is_read(work, tmp_path, monkeypatch):
    # the manifest's input hashes are taken before processing: no reader
    # opens a path that sha256_file has not hashed yet
    _, data, ckpt = work
    hashed, read = set(), []
    real_hash = cli.sha256_file

    def recording_hash(path):
        hashed.add(str(path))
        return real_hash(path)

    def checking(real):
        def reader(path, *args, **kwargs):
            read.append((str(path), str(path) in hashed))
            return real(path, *args, **kwargs)
        return reader

    monkeypatch.setattr(cli, "sha256_file", recording_hash)
    for module, name in ((cli, "read_dataset"), (cli, "iter_dataset"),
                         (cli, "_read_sidecar"), (cli, "_previous_log"),
                         (ad, "load_checkpoint")):
        monkeypatch.setattr(module, name, checking(getattr(module, name)))
    val = tmp_path / "val.jsonl"
    val.write_bytes(data.read_bytes())
    prev = _resumable(work, tmp_path, "prev.bin")
    assert main(_resume_args(data, prev, tmp_path / "x.bin",
                             "--val-data", val)) == 0
    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "r.json")]) == 0
    assert {path for path, _ in read} == {
        str(data), str(val), str(prev), f"{prev}.json", f"{prev}.log.csv",
        str(ckpt), f"{ckpt}.json"}
    assert [path for path, before in read if not before] == []


def test_train_epochs_zero_initial_checkpoint_empty_log(work, tmp_path):
    _, data, _ = work
    out = tmp_path / "zero.bin"
    assert main(["train", "--data", str(data), "--epochs", "0", "--seed",
                 "1", "--out", str(out), "--feature-dim", "8",
                 "--max-objects", "4"]) == 0
    log = (tmp_path / "zero.bin.log.csv").read_text()
    assert log == "step,epoch,split,L1,L2,L3,L\n"
    state = ad.load_checkpoint(str(out))
    assert float(state["meta.epochs_done"]) == 0.0
    assert float(state["opt.step"]) == 0.0


def test_train_determinism_across_runs(work, tmp_path):
    _, data, _ = work
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    args = ["train", "--data", str(data), "--epochs", "1", "--seed", "4",
            "--feature-dim", "8", "--max-objects", "4"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.bin.log.csv").read_text() == \
        (tmp_path / "b.bin.log.csv").read_text()


def test_train_resume_matches_uninterrupted(work, tmp_path):
    _, data, _ = work
    base = ["train", "--data", str(data), "--seed", "2", "--feature-dim",
            "8", "--max-objects", "4"]
    for extra in ([], ["--val-data", str(data)]):
        tag = "val" if extra else "plain"
        full = tmp_path / f"full-{tag}.bin"
        half = tmp_path / f"half-{tag}.bin"
        resumed = tmp_path / f"resumed-{tag}.bin"
        assert main(base + extra + ["--epochs", "4", "--out", str(full)]) == 0
        assert main(base + extra + ["--epochs", "2", "--out", str(half)]) == 0
        assert main(base + extra + ["--epochs", "4", "--out", str(resumed),
                                    "--resume", str(half)]) == 0
        for suffix in ("", ".json", ".log.csv"):
            assert (tmp_path / f"resumed-{tag}.bin{suffix}").read_bytes() == \
                (tmp_path / f"full-{tag}.bin{suffix}").read_bytes(), (tag, suffix)


def _resume_args(data, ckpt, out, *extra):
    """Flags that repeat the fixture checkpoint's settings, then extra ones."""
    return ["train", "--data", str(data), "--epochs", "3", "--seed", "1",
            "--feature-dim", "8", "--max-objects", "4", "--out", str(out),
            "--resume", str(ckpt), *map(str, extra)]


def _resumable(work, tmp_path, name, edit=lambda sidecar: None):
    """A copy of the fixture checkpoint and its log, with its sidecar edited."""
    _, _, ckpt = work
    copy = tmp_path / name
    copy.write_bytes(ckpt.read_bytes())
    (tmp_path / f"{name}.log.csv").write_bytes(
        (ckpt.parent / "ckpt.bin.log.csv").read_bytes())
    sidecar = json.loads((ckpt.parent / "ckpt.bin.json").read_text())
    edit(sidecar)
    (tmp_path / f"{name}.json").write_text(json.dumps(sidecar))
    return copy


def _vouch_for(ckpt: Path, sidecar: Path, log: bool = False) -> None:
    """Write <ckpt>.json as a copy of sidecar that records the sha256 of
    ckpt as it now is (of its <ckpt>.log.csv, with log), so that a run on
    an edited file meets the checks behind the sidecar's digest."""
    snap = json.loads(sidecar.read_text())
    path = Path(f"{ckpt}.log.csv") if log else ckpt
    snap["sha256"]["log" if log else "checkpoint"] = \
        hashlib.sha256(path.read_bytes()).hexdigest()
    Path(f"{ckpt}.json").write_text(json.dumps(snap))


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("crashcast: error:"), err
    return err[0]


@pytest.mark.parametrize("flag,value,key,there", [
    ("--seed", 99, "train.seed", 1),
    ("--batch-size", 3, "train.batch_size", 8),
    ("--learning-rate", 0.01, "train.learning_rate", 0.001),
    ("--feature-dim", 16, "model.feature_dim", 8),
    ("--max-objects", 5, "model.max_objects", 4),
])
def test_train_resume_setting_differs_from_sidecar_exits_2(
        work, tmp_path, capsys, flag, value, key, there):
    _, data, ckpt = work
    capsys.readouterr()
    code = main(_resume_args(data, ckpt, tmp_path / "x.bin", flag, value))
    assert code == 2
    err = _one_error_line(capsys)
    assert str(ckpt.parent / "ckpt.bin.json") in err and key in err, err
    assert f"{there!r}" in err and f"{value!r}" in err, err
    assert not (tmp_path / "x.bin").exists()


@pytest.mark.parametrize("key,there,here", [("fps", 10, 20), ("frames", 50, 49)],
                         ids=["fps", "frames"])
def test_train_resume_dataset_of_another_rate_exits_2(work, tmp_path, capsys,
                                                      key, there, here):
    _, data, ckpt = work
    other = tmp_path / "other.jsonl"
    records = [json.loads(line) for line in data.read_text().splitlines()]
    for record in records:
        if key == "frames":
            _drop_last_frame(record)
        else:
            record[key] = here
    other.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    code = main(_resume_args(other, ckpt, tmp_path / "x.bin"))
    assert code == 2
    err = _one_error_line(capsys)
    assert f"ckpt.bin.json: {key} is {there}, this run has {here}" in err, err


@pytest.mark.parametrize("missing", [".json", ".log.csv"])
def test_train_resume_without_sidecar_or_log_exits_2(work, tmp_path, capsys,
                                                     missing):
    prev = _resumable(work, tmp_path, "prev.bin")
    (tmp_path / f"prev.bin{missing}").unlink()
    capsys.readouterr()
    code = main(_resume_args(work[1], prev, tmp_path / "x.bin"))
    assert code == 2
    assert str(tmp_path / f"prev.bin{missing}") in _one_error_line(capsys)
    assert not (tmp_path / "x.bin").exists()


# every input of every command: its command line, in a directory that holds
# the fixture's dataset as d.jsonl and v.jsonl and its checkpoint, sidecar
# and log as c.bin*, a leading @ marking a file there; the input taken away;
# and what the error calls it
_TRAIN_INPUTS = ("train", "--data", "@d.jsonl", "--val-data", "@v.jsonl",
                 "--resume", "@c.bin", "--epochs", "3", "--seed", "1",
                 "--feature-dim", "8", "--max-objects", "4")
_EVAL_INPUTS = ("eval", "--data", "@d.jsonl", "--checkpoint", "@c.bin")
_MISSING_INPUTS = {
    "gen-data-network": (("gen-data", "--network", "@net.xml", "--count", "3"),
                         "net.xml", "network file"),
    "train-data": (_TRAIN_INPUTS, "d.jsonl", "dataset"),
    "train-val-data": (_TRAIN_INPUTS, "v.jsonl", "validation dataset"),
    "train-resume": (_TRAIN_INPUTS, "c.bin", "resume checkpoint"),
    "train-resume-sidecar": (_TRAIN_INPUTS, "c.bin.json",
                             "resume checkpoint config sidecar"),
    "train-resume-log": (_TRAIN_INPUTS, "c.bin.log.csv", "resume log"),
    "eval-checkpoint": (_EVAL_INPUTS, "c.bin", "checkpoint"),
    "eval-sidecar": (_EVAL_INPUTS, "c.bin.json", "checkpoint config sidecar"),
    "eval-data": (_EVAL_INPUTS, "d.jsonl", "dataset"),
}


@pytest.mark.parametrize("case", _MISSING_INPUTS)
def test_missing_input_exits_2_naming_it(work, tmp_path, capsys, case):
    argv, gone, what = _MISSING_INPUTS[case]
    _, data, ckpt = work
    for name, source in (("d.jsonl", data), ("v.jsonl", data), ("c.bin", ckpt)):
        (tmp_path / name).write_bytes(source.read_bytes())
    for suffix in (".json", ".log.csv"):
        (tmp_path / f"c.bin{suffix}").write_bytes(
            ckpt.with_name(ckpt.name + suffix).read_bytes())
    (tmp_path / gone).unlink(missing_ok=True)
    there = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    code = main([arg.replace("@", f"{tmp_path}{os.sep}") for arg in argv]
                + ["--out", str(tmp_path / "out")])
    assert code == 2
    assert _one_error_line(capsys) == (
        f"crashcast: error: {what} not found: {tmp_path / gone}")
    assert sorted(p.name for p in tmp_path.iterdir()) == there


@pytest.mark.parametrize("cut", ["last-epoch", "step", "header", "extra-row"])
def test_train_resume_log_not_matching_checkpoint_exits_2(work, tmp_path,
                                                          capsys, cut):
    prev = _resumable(work, tmp_path, "prev.bin")
    log = tmp_path / "prev.bin.log.csv"
    lines = log.read_text().splitlines()
    if cut == "last-epoch":
        lines = lines[:-3]
    elif cut == "step":
        lines[-1] = "7" + lines[-1][1:]
    elif cut == "header":
        lines = lines[1:]
    else:
        lines.append(lines[-2])
    log.write_text("\n".join(lines) + "\n")
    _vouch_for(prev, Path(f"{prev}.json"), log=True)
    capsys.readouterr()
    code = main(_resume_args(work[1], prev, tmp_path / "x.bin"))
    assert code == 2
    err = _one_error_line(capsys)
    assert str(log) in err, err
    assert ("lacks the step,epoch" if cut == "header"
            else "does not cover exactly") in err, err
    assert not (tmp_path / "x.bin").exists()


def test_train_resume_fewer_epochs_exits_2(work, tmp_path, capsys):
    _, data, ckpt = work
    capsys.readouterr()
    code = main(_resume_args(data, ckpt, tmp_path / "x.bin", "--epochs", 1))
    assert code == 2
    assert "--epochs must be >= 2" in _one_error_line(capsys)


@pytest.mark.parametrize("key,edit,expected", [
    ("meta.epochs_done", None, "lacks the meta.epochs_done tensor"),
    ("opt.step", None, "lacks the opt.step tensor"),
    ("opt.m.adj.u", None, "lacks the opt.m.adj.u tensor"),
    ("opt.v.head.b2", None, "lacks the opt.v.head.b2 tensor"),
    ("opt.v.adj.v", np.zeros(1), "opt.v.adj.v has shape (1,), expected (4, 4)"),
    ("opt.step", np.zeros(2), "opt.step has shape (2,), expected ()"),
    ("meta.epochs_done", np.array(1.0),
     "meta.epochs_done is 1.0, its sidecar"),
    *(("opt.step", np.array(step),
       f"opt.step is {step!r}, expected a whole number >= 0")
      for step in (np.inf, np.nan, 2.5, -1.0)),
    # a sign flip in a second moment, which Adam takes the root of
    ("opt.v.adj.v", np.diag([0.0, -0.0, 1e-9, -1.0]),
     "opt.v.adj.v holds a negative value"),
])
def test_train_resume_checkpoint_lacking_what_train_writes_exits_2(
        work, tmp_path, capsys, key, edit, expected):
    prev = _resumable(work, tmp_path, "prev.bin")
    state = ad.load_checkpoint(str(prev))
    if edit is None:
        del state[key]
    else:
        state[key] = edit
    ad.save_checkpoint(str(prev), state)
    _vouch_for(prev, Path(f"{prev}.json"))
    capsys.readouterr()
    code = main(_resume_args(work[1], prev, tmp_path / "x.bin"))
    assert code == 2
    err = _one_error_line(capsys)
    assert str(prev) in err and expected in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "prev.bin", "prev.bin.json", "prev.bin.log.csv"]


@pytest.mark.parametrize("key,expected", [
    pytest.param(key, expected, id=key) for key, expected in (
        ("head.w1", "non-finite gradient norm"),
        ("head.w2", "non-finite gradient norm"),
        # the forward (align.w1) or the backward pass (geom.a) overflows
        # while the loss and the gradient norm stay finite
        ("align.w1", "overflow encountered in multiply"),
        ("geom.a", "overflow encountered in multiply"))])
@pytest.mark.parametrize("value", [1e300, -1e300])
def test_train_resume_huge_value_exits_3_naming_the_checkpoint(
        work, tmp_path, capsys, key, expected, value):
    # finite, so every load check passes; training then overflows in the
    # first step it takes
    prev = _resumable(work, tmp_path, "prev.bin")
    state = ad.load_checkpoint(str(prev))
    state[key].flat[0] = value
    ad.save_checkpoint(str(prev), state)
    _vouch_for(prev, Path(f"{prev}.json"))
    capsys.readouterr()
    code = main(_resume_args(work[1], prev, tmp_path / "x.bin"))
    assert code == 3
    err = _one_error_line(capsys)
    assert f"resume checkpoint {prev}: {expected} at step 5 (epoch 2)" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "prev.bin", "prev.bin.json", "prev.bin.log.csv"]


# sidecar edits that leave it other than train writes it, each with what the
# error names; the first six held values that versions before 06938e1
# wrote, and every sidecar written before the digests lacks sha256
_SIDECAR_EDITS = {
    "no-model": (lambda s: s.pop("model"), "lacks the model key"),
    "model-gcn_layers": (lambda s: s["model"].update(gcn_layers=2),
                         "unknown key model.gcn_layers"),
    "features-section": (lambda s: s.update(features={
        "feature_dim": 8, "max_objects": 4, "feature_seed": 0}),
        "unknown key features"),
    "loss-section": (lambda s: s.update(loss={"fps": 10, "gamma": 50.0}),
                     "unknown key loss"),
    "train-clip_norm": (lambda s: s["train"].update(clip_norm=5.0),
                        "unknown key train.clip_norm"),
    "epochs_done": (lambda s: s.update(epochs_done=2), "unknown key epochs_done"),
    "no-sha256": (lambda s: s.pop("sha256"), "lacks the sha256 key"),
    "no-log-sha256": (lambda s: s["sha256"].pop("log"),
                      "lacks the sha256.log key"),
    "null-sha256": (lambda s: s["sha256"].update(checkpoint=None),
                    "sha256.checkpoint must be a JSON string, got null"),
    "nesting-bomb": (None, "is not valid JSON"),
}


def _fixture_sidecar(work) -> dict:
    return json.loads((work[2].parent / "ckpt.bin.json").read_text())


def _run_on_sidecar(work, root: Path, command: str, text: bytes,
                    damaged: str = "prev.bin.json"):
    """Exit code and stderr lines of eval or train --resume, with --out in
    root, on a copy in root of the fixture checkpoint, its log and its
    sidecar, the file named damaged (the sidecar by default) holding text."""
    prev = _resumable(work, root, "prev.bin")
    (root / damaged).write_bytes(text)
    out = root / "out"
    argv = (["eval", "--data", str(work[1]), "--checkpoint", str(prev),
             "--out", str(out)] if command == "eval"
            else _resume_args(work[1], prev, out))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue().splitlines()


def _assert_one_error_and_no_output(root: Path, lines) -> None:
    assert len(lines) == 1 and lines[0].startswith("crashcast: error:"), lines
    assert sorted(p.name for p in root.iterdir()) == [
        "prev.bin", "prev.bin.json", "prev.bin.log.csv"]


@pytest.mark.parametrize("edit", sorted(_SIDECAR_EDITS))
@pytest.mark.parametrize("command", ["eval", "resume"])
def test_sidecar_not_as_train_writes_it_exits_2(work, tmp_path, command, edit):
    change, names = _SIDECAR_EDITS[edit]
    if change is None:
        text = b"[" * 200_000
    else:
        sidecar = _fixture_sidecar(work)
        change(sidecar)
        text = json.dumps(sidecar).encode()
    code, lines = _run_on_sidecar(work, tmp_path, command, text)
    assert code == 2, lines
    _assert_one_error_and_no_output(tmp_path, lines)
    assert str(tmp_path / "prev.bin.json") in lines[0] and names in lines[0], lines


# every value of a sidecar, by its key, with the kind of config value it takes
_SIDECAR_KINDS = {"model.feature_dim": "int", "model.max_objects": "int",
                  "train.learning_rate": "float", "train.epochs": "int",
                  "train.batch_size": "int", "train.seed": "int",
                  "frames": "int", "fps": "int"}


@st.composite
def _bad_sidecar_value(draw):
    command = draw(st.sampled_from(["eval", "resume"]))
    key = draw(st.sampled_from(sorted(_SIDECAR_KINDS)))
    kind = _SIDECAR_KINDS[key]
    return command, key, kind, draw(_KINDS[kind][1])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=_bad_sidecar_value())
def test_sidecar_value_of_a_wrong_type_exits_2(work, case):
    command, key, kind, text = case
    sidecar = _fixture_sidecar(work)
    assert set(_SIDECAR_KINDS) == {f"{k}.{v}" for k in ("model", "train")
                                   for v in sidecar[k]} | {"frames", "fps"}
    *section, name = key.split(".")
    (sidecar[section[0]] if section else sidecar)[name] = "@value@"
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        code, lines = _run_on_sidecar(
            work, root, command,
            json.dumps(sidecar).replace('"@value@"', text).encode())
        assert code == 2, (command, key, text, lines)
        _assert_one_error_and_no_output(root, lines)
        assert f"{root / 'prev.bin.json'}: {key} must be {_KINDS[kind][0]}" \
            in lines[0], lines


@settings(max_examples=60, derandomize=True, deadline=None)
@given(command=st.sampled_from(["eval", "resume"]),
       damaged=st.sampled_from(["prev.bin.json", "prev.bin", "prev.bin.log.csv"]),
       data=st.data())
def test_damaged_sidecar_exits_0_2_or_3(work, command, damaged, data):
    # The sidecar, the checkpoint or the resume log, flipped and cut. The
    # sidecar records the sha256 of the checkpoint, and of the log that
    # resume reads, so any other bytes of those fail. A flip can leave a
    # sidecar that still fits the run, e.g. another seed for eval, and eval
    # does not read the log; such a run succeeds.
    original = (work[2].parent / damaged.replace("prev", "ckpt")).read_bytes()
    checked = damaged == "prev.bin" or (damaged == "prev.bin.log.csv"
                                        and command == "resume")
    text = bytearray(original)
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(text) - 1),
                                         st.integers(0, 7)), max_size=3))
    for at, bit in flips:
        text[at] ^= 1 << bit
    text = bytes(text[:data.draw(st.none() | st.integers(0, len(text) - 1))])
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        code, lines = _run_on_sidecar(work, root, command, text, damaged)
        if checked and text != original:
            assert code in (2, 3), (text, lines)
        if code == 0:
            assert lines == []
            written = {"eval": [".curves.csv"],
                       "resume": [".json", ".log.csv"]}[command]
            assert all((root / f"out{s}").exists() for s in ["", *written])
        else:
            assert code in (2, 3), (text, lines)
            _assert_one_error_and_no_output(root, lines)
            assert str(root / damaged) in lines[0], lines


@pytest.mark.parametrize("command,damaged", [
    ("eval", "prev.bin"), ("resume", "prev.bin"), ("resume", "prev.bin.log.csv")])
def test_file_its_sidecar_does_not_vouch_for_exits_2_naming_both(
        work, tmp_path, command, damaged):
    # the lowest bit of the first weight (boundary 7 starts the first
    # tensor's payload), and a digit of the last logged loss: each file
    # still parses and fits, and only its digest tells
    text = bytearray((work[2].parent / damaged.replace("prev", "ckpt")).read_bytes())
    if damaged == "prev.bin":
        text[_header_boundaries(bytes(text))[7]] ^= 1
    else:
        text[-2] = ord("1") if text[-2] == ord("0") else ord("0")
    code, lines = _run_on_sidecar(work, tmp_path, command, bytes(text), damaged)
    assert code == 2, lines
    _assert_one_error_and_no_output(tmp_path, lines)
    assert (f"{tmp_path / damaged} is not the file its sidecar "
            f"{tmp_path / 'prev.bin.json'} vouches for") in lines[0], lines


@pytest.mark.parametrize("key,value", [("feature_dim", 2**40),
                                       ("max_objects", 2**31)])
@pytest.mark.parametrize("command", ["eval", "resume"])
def test_sidecar_model_the_checkpoint_does_not_hold_exits_2_naming_both(
        work, tmp_path, command, key, value):
    # the model section alone is edited, so the checkpoint is still the one
    # its sidecar vouches for; a model of that size is never built (numpy
    # refuses both sizes up front, so nothing is allocated either way)
    sidecar = _fixture_sidecar(work)
    sidecar["model"][key] = value
    code, lines = _run_on_sidecar(work, tmp_path, command,
                                  json.dumps(sidecar).encode())
    assert code == 2, lines
    _assert_one_error_and_no_output(tmp_path, lines)
    assert (f"{tmp_path / 'prev.bin'} does not fit its sidecar "
            f"{tmp_path / 'prev.bin.json'}") in lines[0], lines


def test_train_missing_data_exits_2(tmp_path):
    code = main(["train", "--data", str(tmp_path / "nope.jsonl"),
                 "--epochs", "1", "--out", str(tmp_path / "x.bin")])
    assert code == 2


def test_train_out_of_memory_exits_3_writing_nothing(work, tmp_path, capsys,
                                                    monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr(cli, "train", exhausted)
    capsys.readouterr()
    code = main(["train", "--data", str(work[1]), "--epochs", "1",
                 "--out", str(tmp_path / "x.bin"), "--feature-dim", "8",
                 "--max-objects", "4"])
    assert code == 3
    assert _one_error_line(capsys) == \
        "crashcast: error: out of memory: Unable to allocate 298. GiB for an array"
    assert list(tmp_path.iterdir()) == []


def test_gen_data_out_of_memory_mid_write_exits_3_leaving_nothing(
        tmp_path, capsys, monkeypatch):
    # the second span's records fail, once the first span is in the temp file
    made = []

    def record_to_json(record):
        made.append(record)
        if len(made) > GEN_SPAN:
            assert [p.stat().st_size > 0 for p in tmp_path.glob(".tmp-*.part")] == [True]
            raise MemoryError()
        return real(record)

    real = cli.record_to_json
    monkeypatch.setattr(cli, "record_to_json", record_to_json)
    capsys.readouterr()
    assert main(["gen-data", "--count", str(2 * GEN_SPAN), "--seed", "3",
                 "--out", str(tmp_path / "d.jsonl")]) == 3
    assert _one_error_line(capsys) == "crashcast: error: out of memory"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_train_divergence_exits_3(work, tmp_path):
    _, data, _ = work
    code = main(["train", "--data", str(data), "--epochs", "3", "--seed",
                 "1", "--out", str(tmp_path / "x.bin"), "--feature-dim",
                 "8", "--max-objects", "4", "--learning-rate", "1e200"])
    assert code == 3


@pytest.mark.parametrize("rate", ["nan", "inf", "-1"])
def test_train_non_finite_or_negative_learning_rate_exits_2(work, tmp_path, capsys, rate):
    _, data, _ = work
    capsys.readouterr()
    code = main(["train", "--data", str(data), "--epochs", "1", "--seed", "1",
                 "--out", str(tmp_path / "x.bin"), "--feature-dim", "8",
                 "--max-objects", "4", "--learning-rate", rate])
    assert code == 2
    assert "--learning-rate must be a finite number >= 0" in _one_error_line(capsys)
    assert list(tmp_path.iterdir()) == []


def test_train_validation_rows_logged(work, tmp_path):
    _, data, _ = work
    out = tmp_path / "v.bin"
    assert main(["train", "--data", str(data), "--val-data", str(data),
                 "--epochs", "2", "--seed", "1", "--out", str(out),
                 "--feature-dim", "8", "--max-objects", "4"]) == 0
    log = (tmp_path / "v.bin.log.csv").read_text().splitlines()
    assert sum(1 for l in log[1:] if l.split(",")[2] == "val") == 2



@pytest.mark.parametrize("key,value", [("fps", 20), ("frames", 49)])
def test_train_val_data_of_another_shape_exits_3(work, tmp_path, capsys, key, value):
    _, data, _ = work
    val = tmp_path / "val.jsonl"
    records = [json.loads(line) for line in data.read_text().splitlines()]
    for record in records:
        if key == "frames":
            _drop_last_frame(record)
        else:
            record[key] = value
    val.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    code = main(["train", "--data", str(data), "--val-data", str(val),
                 "--epochs", "1", "--out", str(tmp_path / "x.bin"),
                 "--feature-dim", "8", "--max-objects", "4"])
    assert code == 3
    err = _one_error_line(capsys)
    frames, fps = (49, 10) if key == "frames" else (50, 20)
    assert (f"validation dataset {val}: frames {frames} and fps {fps} differ "
            "from the training data's 50 and 10") in err, err
    assert list(tmp_path.iterdir()) == [val]


def test_train_zero_frame_records_exit_3_naming_the_line(work, tmp_path, capsys):
    _, data, _ = work
    bad = tmp_path / "bad.jsonl"
    bad.write_text(_zero_frame_negatives(data))
    capsys.readouterr()
    code = main(["train", "--data", str(bad), "--epochs", "1",
                 "--out", str(tmp_path / "x.bin"), "--feature-dim", "8",
                 "--max-objects", "4"])
    assert code == 3
    assert f"{bad}:1: bad record: frames must be >= 1, got 0" in _one_error_line(capsys)
    assert list(tmp_path.iterdir()) == [bad]


# (input flag, input file name, --out): the output that --out implies
# lands on the input
_TRAIN_COLLISIONS = {
    "out-on-data": ("--data", "x.bin", "x.bin"),
    "log-on-data": ("--data", "x.bin.log.csv", "x.bin"),
    "sidecar-on-data": ("--data", "x.bin.json", "x.bin"),
    "manifest-on-data": ("--data", "x.bin.manifest.json", "x.bin"),
    "out-on-val-data": ("--val-data", "x.bin", "x.bin"),
    "log-on-val-data": ("--val-data", "x.bin.log.csv", "x.bin"),
    "sidecar-on-val-data": ("--val-data", "x.bin.json", "x.bin"),
    "manifest-on-val-data": ("--val-data", "x.bin.manifest.json", "x.bin"),
}


@pytest.mark.parametrize("case", sorted(_TRAIN_COLLISIONS))
def test_train_output_on_an_input_exits_2(work, tmp_path, capsys, case):
    _, data, _ = work
    flag, name, out = _TRAIN_COLLISIONS[case]
    victim = tmp_path / name
    victim.write_bytes(data.read_bytes())
    inputs = {"--data": str(data), "--val-data": str(data), flag: str(victim)}
    capsys.readouterr()
    code = main(["train", "--data", inputs["--data"], "--val-data",
                 inputs["--val-data"], "--epochs", "1",
                 "--out", str(tmp_path / out), "--feature-dim", "8",
                 "--max-objects", "4", "--force"])
    assert code == 2
    err = _one_error_line(capsys)
    assert f"{victim} is the same file as {flag} {victim}" in err, err
    assert victim.read_bytes() == data.read_bytes()
    assert list(tmp_path.iterdir()) == [victim]


@pytest.mark.parametrize("out,label", [("prev.bin", "--resume"),
                                       ("prev.bin.json", "its sidecar"),
                                       ("prev.bin.log.csv", "its log")])
def test_train_resume_into_its_own_files_exits_2_writing_nothing(
        work, tmp_path, capsys, out, label):
    prev = _resumable(work, tmp_path, "prev.bin")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    victim = tmp_path / out
    capsys.readouterr()
    code = main(_resume_args(work[1], prev, victim, "--force"))
    assert code == 2
    err = _one_error_line(capsys)
    assert f"--out {victim} is the same file as {label} {victim}" in err, err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_train_log_option_is_gone(work, tmp_path):
    _, data, _ = work
    out = tmp_path / "x.bin"
    args = ["train", "--data", str(data), "--epochs", "0", "--out", str(out)]
    assert main([*args, "--log", str(tmp_path / "custom.csv")]) == 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"log": str(tmp_path / "custom.csv")}))
    assert main([*args, "--config", str(cfg_path)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# ---------------------------------------------------------------------------
# eval

def test_eval_report_and_curves(work, tmp_path):
    _, data, ckpt = work
    out = tmp_path / "report.json"
    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"ap", "mtta", "threshold", "sweep", "videos"}
    assert 0.0 <= report["ap"] <= 1.0
    assert len(report["videos"]) == 12
    assert len(report["sweep"]) == 99

    records = read_dataset(data)
    curves = (tmp_path / "report.json.curves.csv").read_text().splitlines()
    assert curves[0] == "video_id,frame,u"
    assert len(curves) - 1 == sum(r.frames for r in records)
    vid, frame, u = curves[1].split(",")
    assert vid == records[0].id and frame == "1"
    assert 0.0 <= float(u) <= 1.0


def test_eval_curves_rows_are_id_frame_and_fmt_of_the_risk(work, tmp_path):
    # an id with % signs and a NUL, which the row template must copy as is
    _, data, ckpt = work
    lines = data.read_text().splitlines()
    first = json.loads(lines[0])
    first["id"] = "100%s\x00 %d%"
    odd = tmp_path / "odd.jsonl"
    odd.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n")
    out = tmp_path / "r.json"
    assert main(["eval", "--data", str(odd), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 0
    model_cfg = ModelConfig(**json.loads(Path(f"{ckpt}.json").read_text())["model"])
    params = ModelParams.init(model_cfg, np.random.default_rng(0))
    params.load_state_dict(ad.load_checkpoint(str(ckpt)))
    records = read_dataset(odd)
    curves = traineval.risk_curves(records, params, model_cfg)
    want = ["video_id,frame,u"] + [
        f"{rec.id},{t},{cli._fmt(u)}"
        for rec, curve in zip(records, curves) for t, u in enumerate(curve, 1)]
    got = (tmp_path / "r.json.curves.csv").read_text(encoding="utf-8")
    assert got.split("\n") == [*want, ""]
    assert got.startswith("video_id,frame,u\n100%s\x00 %d%,1,")


def test_eval_byte_reproducible(work, tmp_path):
    _, data, ckpt = work
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json.curves.csv").read_bytes() == \
        (tmp_path / "b.json.curves.csv").read_bytes()


@pytest.mark.parametrize("jobs", ["2", "3"])
def test_eval_jobs_do_not_change_bytes(work, tmp_path, jobs):
    _, data, ckpt = work
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(a)]) == 0
    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(b), "--jobs", jobs]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json.curves.csv").read_bytes() == \
        (tmp_path / "b.json.curves.csv").read_bytes()


def test_eval_threshold_out_of_range_exits_2(work, tmp_path):
    _, data, ckpt = work
    code = main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "r.json"), "--threshold", "1.1"])
    assert code == 2


@pytest.mark.parametrize("curves", ["r.json", "r.json.manifest.json"])
def test_eval_curves_on_another_output_exits_2(work, tmp_path, capsys,
                                              monkeypatch, curves):
    _, data, ckpt = work
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    code = main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "r.json"), "--curves", curves,
                 "--force"])
    assert code == 2
    assert f"--curves {curves} is the same file as" in _one_error_line(capsys)
    assert list(tmp_path.iterdir()) == []


# (input, output flag or None for the manifest of --out r.json)
_EVAL_COLLISIONS = {
    "out-on-data": ("--data", "--out"),
    "out-on-checkpoint": ("--checkpoint", "--out"),
    "out-on-sidecar": ("its sidecar", "--out"),
    "curves-on-data": ("--data", "--curves"),
    "curves-on-checkpoint": ("--checkpoint", "--curves"),
    "curves-on-sidecar": ("its sidecar", "--curves"),
    "manifest-on-data": ("--data", None),
    "manifest-on-checkpoint": ("--checkpoint", None),
    "manifest-on-sidecar": ("its sidecar", None),
}


@pytest.mark.parametrize("case", sorted(_EVAL_COLLISIONS))
def test_eval_output_on_an_input_exits_2(work, tmp_path, capsys, case):
    root, data, ckpt = work
    which, output = _EVAL_COLLISIONS[case]
    # the inputs live in tmp_path under names that the outputs can reach
    names = {"--data": "d.jsonl", "--checkpoint": "c.bin",
             "its sidecar": "c.bin.json"}
    if output is None:
        names[which] = "r.json.manifest.json"
        if which == "its sidecar":
            names["--checkpoint"] = "r.json.manifest"
    sources = {"--data": data, "--checkpoint": ckpt,
               "its sidecar": root / "ckpt.bin.json"}
    for key, name in names.items():
        (tmp_path / name).write_bytes(sources[key].read_bytes())
    before = sorted(tmp_path.iterdir())
    out, curves = tmp_path / "r.json", []
    victim = tmp_path / names[which]
    if output == "--out":
        out = victim
    elif output == "--curves":
        curves = ["--curves", str(victim)]
    argv = ["eval", "--data", str(tmp_path / names["--data"]),
            "--checkpoint", str(tmp_path / names["--checkpoint"]),
            "--out", str(out), *curves, "--force"]
    capsys.readouterr()
    assert main(argv) == 2
    err = _one_error_line(capsys)
    label = output or "the manifest"
    assert f"{label} {victim} is the same file as {which} {victim}" in err, err
    assert sorted(tmp_path.iterdir()) == before
    for key, name in names.items():
        assert (tmp_path / name).read_bytes() == sources[key].read_bytes()


def test_gen_data_output_on_the_network_exits_2(tmp_path, capsys):
    net = tmp_path / "net.xml"
    net.write_text(multilane_map_xml())
    before = net.read_bytes()
    capsys.readouterr()
    assert _gen(net, "--network", net, "--force") == 2
    err = _one_error_line(capsys)
    assert f"--out {net} is the same file as --network {net}" in err, err
    assert net.read_bytes() == before
    assert list(tmp_path.iterdir()) == [net]


# an output no file can be written to, later in the command's list than
# one that could be: its command, its name in the error, its path in the
# run's directory and whether that path is a directory there
_UNWRITABLE_OUTPUTS = {
    "eval-curves-a-directory": ("eval", "--curves", "c", True),
    "eval-curves-in-no-directory": ("eval", "--curves", "nodir/c.csv", False),
    "eval-manifest-a-directory": ("eval", "the manifest", "out.manifest.json",
                                  True),
    "train-log-a-directory": ("train", "the log", "out.log.csv", True),
    "gen-data-manifest-a-directory": ("gen-data", "the manifest",
                                      "out.manifest.json", True),
}


@pytest.mark.parametrize("case", sorted(_UNWRITABLE_OUTPUTS))
def test_output_no_file_can_be_written_to_exits_2_writing_nothing(
        work, tmp_path, capsys, case):
    command, name, where, is_dir = _UNWRITABLE_OUTPUTS[case]
    _, data, ckpt = work
    path = tmp_path / where
    if is_dir:
        path.mkdir()
    argv = {"gen-data": ["gen-data", "--count", "2"],
            "train": ["train", "--data", str(data), "--epochs", "1",
                      "--feature-dim", "8", "--max-objects", "4"],
            "eval": ["eval", "--data", str(data), "--checkpoint", str(ckpt)],
            }[command]
    if name == "--curves":
        argv += ["--curves", str(path)]
    there = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "out"), "--force"]) == 2
    err = _one_error_line(capsys)
    assert f"{name} {path}" in err, err
    assert sorted(tmp_path.rglob("*")) == there


def test_eval_checkpoint_config_mismatch_exits_2(work, tmp_path):
    _, data, ckpt = work
    other = tmp_path / "other.bin"
    other.write_bytes(ckpt.read_bytes())
    sidecar = json.loads((ckpt.parent / "ckpt.bin.json").read_text())
    sidecar["model"]["feature_dim"] = 16
    (tmp_path / "other.bin.json").write_text(json.dumps(sidecar))
    code = main(["eval", "--data", str(data), "--checkpoint", str(other),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_eval_one_class_dataset_exits_3_naming_it(work, tmp_path, capsys):
    _, data, ckpt = work
    positives = tmp_path / "positives.jsonl"
    positives.write_text("".join(
        line + "\n" for line in data.read_text().splitlines()
        if json.loads(line)["positive"]))
    capsys.readouterr()
    code = main(["eval", "--data", str(positives), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "r.json")])
    assert code == 3
    err = _one_error_line(capsys)
    assert str(positives) in err and "both classes" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["positives.jsonl"]


def _cycled(work, path: Path, count: int) -> Path:
    """A dataset of count records at path: the fixture's records in turn,
    each under an id of its own."""
    lines = work[1].read_text().splitlines(keepends=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(count):
            line = lines[i % len(lines)]
            rid = json.loads(line)["id"]
            fh.write(line.replace(f'"id":"{rid}"', f'"id":"{rid}-{i}"', 1))
    return path


def _eval_on(data: Path, ckpt: Path, out: Path,
             *extra) -> tuple[int, list[str]]:
    """Exit code and stderr lines of eval of ckpt on data with --out out."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(out), *extra])
    return code, err.getvalue().splitlines()


@pytest.fixture(scope="module")
def eval40(work, tmp_path_factory):
    """40 records: four full 8-record eval chunks and one more."""
    return _cycled(work, tmp_path_factory.mktemp("eval40") / "d.jsonl", 40)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_eval_bad_line_in_a_later_chunk_exits_3_and_writes_nothing(
        work, eval40, tmp_path, monkeypatch, jobs):
    # eval streams the dataset in chunks of 8, so the first four chunks are
    # scored (or, with --jobs 2, already submitted to the worker processes,
    # whose window holds four) before line 40 is read; the report, the
    # curves and the manifest are written only once every chunk is
    lines = eval40.read_text().splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines[:39]) + lines[39][:len(lines[39]) // 2] + "\n")
    scored = []
    if jobs == "1":
        real = traineval.forward

        def counting(fb, *args):
            scored.append(fb.batch_size)
            return real(fb, *args)

        monkeypatch.setattr(traineval, "forward", counting)
    else:
        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            # a worker process runs forward, so count what this one submits
            def submit(self, fn, videos):
                scored.append(len(videos))
                return super().submit(fn, videos)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            CountingPool)
    code, err = _eval_on(bad, work[2], tmp_path / "r.json", "--jobs", jobs)
    assert code == 3
    assert len(err) == 1 and err[0].startswith("crashcast: error:"), err
    assert f"{bad}:40: bad record" in err[0], err
    assert scored == [8, 8, 8, 8]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]


def test_eval_blank_dataset_exits_2_and_writes_nothing(work, tmp_path):
    blank = tmp_path / "blank.jsonl"
    blank.write_text("\n  \n\n")
    code, err = _eval_on(blank, work[2], tmp_path / "r.json")
    assert code == 2
    assert err == [f"crashcast: error: dataset is empty: {blank}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blank.jsonl"]


def test_eval_memory_is_flat_in_count(work, tmp_path):
    # eval streams its dataset a chunk at a time and keeps of each video
    # only its id, label, accident frame and curve, so 96 more videos raise
    # its traced peak by their report and curves alone. Both counts fill
    # whole 8-video chunks. Measured: 12.3 KiB more per video when every
    # record and curve line was held to the end, 1.0 KiB streamed.
    def peak(n):
        data = _cycled(work, tmp_path / f"{n}.jsonl", n)
        tracemalloc.start()
        try:
            code, err = _eval_on(data, work[2], tmp_path / f"{n}.json")
            held = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        return held

    small, large = peak(32), peak(128)
    assert large - small < 2**19, (small, large)


def _damage(lines: list[bytes], draw) -> bytes:
    """The dataset with one line damaged: cut inside it, the high bit of
    one of its bytes flipped, or one key dropped from it (of the record,
    its environment or the first object of a frame)."""
    at = draw(st.integers(0, len(lines) - 1), label="line")
    line = lines[at]
    kind = draw(st.sampled_from(["cut", "flip", "drop-key"]), label="kind")
    if kind == "cut":
        # a nonempty prefix of the line's JSON object, never all of it
        return b"".join(lines[:at]) + line[:draw(st.integers(1, len(line) - 2))]
    if kind == "flip":
        # the lines are ASCII, so a byte with its high bit set is never UTF-8
        damaged = bytearray(line)
        damaged[draw(st.integers(0, len(line) - 1), label="byte")] ^= 0x80
        line = bytes(damaged)
    else:
        record = json.loads(line)
        holders = [record, record["environment"],
                   *(frame[0] for frame in record["objects"] if frame)]
        holder = draw(st.sampled_from(holders), label="holder")
        del holder[draw(st.sampled_from(sorted(holder)), label="key")]
        line = json.dumps(record).encode() + b"\n"
    return b"".join(lines[:at]) + line + b"".join(lines[at + 1:])


@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data())
def test_eval_damaged_dataset_exits_2_or_3_and_writes_nothing(work, eval40,
                                                                data):
    lines = eval40.read_bytes().splitlines(keepends=True)
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        bad = root / "bad.jsonl"
        bad.write_bytes(_damage(lines, data.draw))
        code, err = _eval_on(bad, work[2], root / "r.json")
        assert code in (2, 3), err
        assert len(err) == 1 and err[0].startswith("crashcast: error:"), err
        assert sorted(p.name for p in root.iterdir()) == ["bad.jsonl"]


def test_eval_missing_sidecar_exits_2(work, tmp_path):
    _, data, ckpt = work
    bare = tmp_path / "bare.bin"
    bare.write_bytes(ckpt.read_bytes())
    code = main(["eval", "--data", str(data), "--checkpoint", str(bare),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_eval_invalid_sidecar_json_exits_2(work, tmp_path, capsys):
    _, data, ckpt = work
    other = tmp_path / "other.bin"
    other.write_bytes(ckpt.read_bytes())
    (tmp_path / "other.bin.json").write_text("{oops")
    capsys.readouterr()
    code = main(["eval", "--data", str(data), "--checkpoint", str(other),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("crashcast: error:")
    assert str(tmp_path / "other.bin.json") in err[0]
    assert not (tmp_path / "r.json").exists()


def _first_object(record):
    return next(frame for frame in record["objects"] if frame)[0]


def _drop_last_frame(record):
    for key in ("objects", "scene_labels"):
        record[key].pop()
    record["frames"] -= 1


# (kind of record edited, edit); the edited record is line 2 of the dataset
_RECORD_EDITS = {
    "extra-object-list": ("negative", lambda r: r["objects"].append([])),
    "x-not-a-number": ("negative", lambda r: _first_object(r).update(x="abc")),
    "x-nan": ("negative", lambda r: _first_object(r).update(x=float("nan"))),
    "x-inf": ("negative", lambda r: _first_object(r).update(x=float("inf"))),
    "x-bool": ("negative", lambda r: _first_object(r).update(x=True)),
    "x-null": ("negative", lambda r: _first_object(r).update(x=None)),
    "x-huge-int": ("negative", lambda r: _first_object(r).update(x=10**400)),
    "object-lacks-depth": ("negative", lambda r: _first_object(r).pop("depth")),
    "object-extra-key": ("negative", lambda r: _first_object(r).update(size=2.0)),
    "unknown-behavior": ("negative",
                         lambda r: _first_object(r).update(behavior="flying")),
    "fps-0": ("negative", lambda r: r.update(fps=0)),
    "positive-accident-0": ("positive", lambda r: r.update(accident_frame=0)),
    "positive-accident-99": ("positive", lambda r: r.update(accident_frame=99)),
    "negative-with-accident": ("negative", lambda r: r.update(accident_frame=10)),
    "fps-differs": ("negative", lambda r: r.update(fps=r["fps"] * 2)),
    "frames-differ": ("negative", _drop_last_frame),
    "object-id-int": ("negative", lambda r: _first_object(r).update(id=7)),
    "record-id-list": ("negative", lambda r: r.update(id=[r["id"]])),
    "scene-label-int": ("negative", lambda r: r["scene_labels"].__setitem__(0, 3)),
    "environment-int": ("negative", lambda r: r["environment"].update(weather=1)),
    "fps-float": ("negative", lambda r: r.update(fps=10.9)),
    "fps-bool": ("negative", lambda r: r.update(fps=True)),
    "frames-float": ("negative", lambda r: r.update(frames=float(r["frames"]))),
    "positive-string": ("positive", lambda r: r.update(positive="false")),
    "positive-accident-bool": ("positive", lambda r: r.update(accident_frame=True)),
    "positive-accident-float": ("positive",
                                lambda r: r.update(accident_frame=float(r["accident_frame"]))),
}


def _zero_frame_negatives(data) -> str:
    """The dataset's negatives, each cut to zero frames, as JSON lines."""
    records = [json.loads(line) for line in data.read_text().splitlines()]
    cut = [dict(r, frames=0, objects=[], scene_labels=[])
           for r in records if not r["positive"]]
    return "".join(json.dumps(r) + "\n" for r in cut)


@pytest.mark.parametrize("corrupt", ["cut", "missing-keys", "not-utf8",
                                     "deep-nesting", "zero-frames",
                                     *_RECORD_EDITS])
def test_eval_corrupt_dataset_exits_3_naming_the_line(work, tmp_path, capsys, corrupt):
    _, data, ckpt = work
    lines = data.read_text().splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    if corrupt == "cut":
        bad.write_text("".join(lines[:2]) + "\n" + lines[2][:len(lines[2]) // 2])
        where = f"{bad}:4:"
    elif corrupt == "missing-keys":
        bad.write_text(lines[0] + '{"id": "x"}\n')
        where = f"{bad}:2:"
    elif corrupt == "not-utf8":
        bad.write_bytes(lines[0].encode() + b'{"id": "\xff"}\n')
        where = f"{bad}:2:"
    elif corrupt == "deep-nesting":
        bad.write_text(lines[0] + "[" * 200_000 + "\n")
        where = f"{bad}:2:"
    elif corrupt == "zero-frames":
        bad.write_text(_zero_frame_negatives(data))
        where = f"{bad}:1: bad record: frames must be >= 1, got 0"
    else:
        kind, edit = _RECORD_EDITS[corrupt]
        records = [json.loads(line) for line in lines]
        first = next(r for r in records if r["positive"] != (kind == "positive"))
        record = next(r for r in records if r["positive"] == (kind == "positive"))
        edit(record)
        bad.write_text(json.dumps(first) + "\n" + json.dumps(record) + "\n")
        where = f"{bad}:2:"
    capsys.readouterr()
    code = main(["eval", "--data", str(bad), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "r.json")])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("crashcast: error:")
    assert where in err[0], err[0]
    assert not (tmp_path / "r.json").exists()


def _header_boundaries(blob: bytes) -> list[int]:
    """Every offset where a checkpoint field starts or ends: magic, version,
    count, then per tensor its name length, name, rank, dims and payload."""
    cuts = [0, 6, 8, 12]
    (count,) = struct.unpack_from("<I", blob, 8)
    off = 12
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        cuts.append(off)
        off += name_len
        cuts.append(off)
        (rank,) = struct.unpack_from("<I", blob, off)
        off += 4
        cuts.append(off)
        dims = struct.unpack_from(f"<{rank}Q", blob, off)
        off += 8 * rank
        cuts.append(off)
        off += 8 * int(np.prod(dims))
        cuts.append(off)
    assert off == len(blob)
    return cuts[:-1]  # the last boundary is the whole file


def test_truncated_checkpoint_raises_with_path_and_offset(work, tmp_path):
    _, _, ckpt = work
    blob = ckpt.read_bytes()
    cut_path = tmp_path / "cut.bin"
    cuts = _header_boundaries(blob)
    assert len(cuts) > 100
    for cut in cuts:
        cut_path.write_bytes(blob[:cut])
        with pytest.raises(ValueError) as info:
            ad.load_checkpoint(str(cut_path))
        msg = str(info.value)
        assert msg.startswith(f"{cut_path}: truncated checkpoint"), (cut, msg)
        at = int(re.search(r"at byte (\d+)", msg).group(1))
        assert at <= cut, (cut, msg)


@pytest.mark.parametrize("cut", [6, 12, 30])
def test_eval_truncated_checkpoint_exits_3(work, tmp_path, capsys, cut):
    _, data, ckpt = work
    short = tmp_path / "short.bin"
    short.write_bytes(ckpt.read_bytes()[:cut])
    _vouch_for(short, ckpt.parent / "ckpt.bin.json")
    capsys.readouterr()
    code = main(["eval", "--data", str(data), "--checkpoint", str(short),
                 "--out", str(tmp_path / "r.json")])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("crashcast: error:")
    assert str(short) in err[0] and "byte" in err[0]
    assert not (tmp_path / "r.json").exists()


def test_eval_checkpoint_rank_above_64_exits_3(work, tmp_path, capsys):
    # the first tensor's rank set to 65 and its first dim to 0, so the dims
    # it reads multiply to a payload that fits
    _, data, ckpt = work
    blob = bytearray(ckpt.read_bytes())
    (name_len,) = struct.unpack_from("<I", blob, 12)
    at = 16 + name_len
    struct.pack_into("<IQ", blob, at, 65, 0)
    deep = tmp_path / "deep.bin"
    deep.write_bytes(bytes(blob))
    _vouch_for(deep, ckpt.parent / "ckpt.bin.json")
    capsys.readouterr()
    code = main(["eval", "--data", str(data), "--checkpoint", str(deep),
                 "--out", str(tmp_path / "r.json")])
    assert code == 3
    err = _one_error_line(capsys)
    assert f"{deep}: tensor " in err and f"has rank 65 at byte {at}," in err, err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["eval", "resume"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_checkpoint_exits_3(work, tmp_path, capsys, command, value):
    prev = _resumable(work, tmp_path, "prev.bin")
    state = ad.load_checkpoint(str(prev))
    state["head.b2"].flat[0] = value
    ad.save_checkpoint(str(prev), state)
    _vouch_for(prev, Path(f"{prev}.json"))
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    if command == "eval":
        code = main(["eval", "--data", str(work[1]), "--checkpoint", str(prev),
                     "--out", str(tmp_path / "r.json")])
    else:
        code = main(_resume_args(work[1], prev, tmp_path / "x.bin"))
    assert code == 3
    err = _one_error_line(capsys)
    assert f"{prev}: tensor 'head.b2' holds a non-finite value" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


# ---------------------------------------------------------------------------
# entry point

def _child_env() -> dict:
    """The environment for a child interpreter that imports the same
    crashcast as this process, installed or not."""
    src = str(Path(crashcast.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


_SYNTHESIS_MODULES = ("crashcast.scenario.generate", "crashcast.scenario.presets",
                      "crashcast.trafficgen", "crashcast.roadnet",
                      "xml.parsers.expat")

# the module families a command line start leaves unloaded, each with a
# module's submodules: scipy costs about a third of a second to import and
# the CLI needs none of it, the pools load multiprocessing, which only a
# --jobs > 1 command uses, and each path loads only in the commands that
# run it (gen-data the synthesis, train and eval the model)
_UNLOADED_AT_START = {
    "scipy": ("scipy",),
    "worker-pools": ("multiprocessing", "concurrent.futures.process"),
    "synthesis": _SYNTHESIS_MODULES,
    "model": ("crashcast.autodiff", "crashcast.features", "crashcast.riskmodel",
              "crashcast.losses", "crashcast.traineval"),
}

_START = """
import json, sys
import crashcast.cli as cli
loaded = {"import": sorted(sys.modules)}
assert cli.main(["gen-data", "--count", "2", "--jobs", "1",
                 "--out", sys.argv[1]]) == 0
loaded["gen-data"] = sorted(sys.modules)
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def started(tmp_path_factory):
    """sys.modules of a child interpreter after `import crashcast.cli`, and
    after a gen-data run in it."""
    out = tmp_path_factory.mktemp("start") / "d.jsonl"
    proc = subprocess.run([sys.executable, "-c", _START, str(out)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("stage,family", [
    *(("import", family) for family in _UNLOADED_AT_START),
    *(("gen-data", family) for family in _UNLOADED_AT_START
      if family != "synthesis")])
def test_command_line_start_leaves_a_module_family_unloaded(started, stage,
                                                             family):
    names = _UNLOADED_AT_START[family]
    assert [m for m in started[stage]
            if any(m == n or m.startswith(n + ".") for n in names)] == []

_TRAIN_AND_EVAL = """
import sys
import crashcast.cli as cli
data, out = sys.argv[1:]
assert cli.main(["train", "--data", data, "--epochs", "1", "--feature-dim",
                 "8", "--max-objects", "4", "--out", out + "/m.bin"]) == 0
assert cli.main(["eval", "--data", data, "--checkpoint", out + "/m.bin",
                 "--out", out + "/r.json"]) == 0
print(sorted(m for m in {0!r} if m in sys.modules))
import crashcast.scenario as scenario
names = {{}}
exec("from crashcast.scenario import *", names)
print(sorted(scenario.__all__), sorted(set(names) - {{"__builtins__"}}))
try:
    from crashcast.scenario import generate_one
except ImportError:
    print("no generate_one")
"""

# the scenario package is the record layer; synthesis names live in
# crashcast.scenario.generate and crashcast.scenario.presets
_RECORD_LAYER = ["BEHAVIOR_LABELS", "EgoCamera", "EnvironmentProfile",
                 "ScenarioRecord", "iter_dataset", "read_dataset",
                 "record_from_json", "record_to_json", "scene_label"]


def test_train_and_eval_leave_the_synthesis_path_unloaded(work, tmp_path):
    # only gen-data runs scenario synthesis, and only --jobs > 1 a worker
    # pool; train and eval at --jobs 1 would otherwise compile their
    # modules on every start without running them
    modules = _SYNTHESIS_MODULES + ("multiprocessing", "concurrent.futures.process")
    proc = subprocess.run(
        [sys.executable, "-c", _TRAIN_AND_EVAL.format(modules),
         str(work[1]), str(tmp_path)],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    unloaded, exported, missing = proc.stdout.splitlines()[-3:]
    assert unloaded == "[]"
    # __all__ names exactly the record layer, and a star-import binds
    # nothing else
    assert exported == f"{_RECORD_LAYER} {_RECORD_LAYER}"
    assert missing == "no generate_one"


@pytest.mark.parametrize("module", ["crashcast", "crashcast.cli"])
def test_module_invocation_subprocess(tmp_path, module):
    out = tmp_path / "d.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", module, "gen-data", "--count", "2",
         "--positive-ratio", "0.5", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert "wrote 2 scenarios" in proc.stdout
    assert len(read_dataset(out)) == 2


@pytest.mark.parametrize("first", ["crashcast", "numpy"])
def test_import_pins_blas_to_one_thread(first):
    # the pin overrides the environment before numpy loads, and numpy's
    # bundled OpenBLAS through its setter after
    code = ("import os, sys, {0}, crashcast; print(os.environ["
            "'OPENBLAS_NUM_THREADS'], crashcast.BLAS_THREADS)").format(first)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**_child_env(),
                                          "OPENBLAS_NUM_THREADS": "4"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a multi-threaded BLAS would reorder the training sums; the CLI pins it
    # to one thread whatever the environment says
    commands = (
        ["gen-data", "--count", "12", "--seed", "5", "--out", "d.jsonl"],
        ["train", "--data", "d.jsonl", "--epochs", "2", "--seed", "1",
         "--out", "m.bin"],
        ["eval", "--data", "d.jsonl", "--checkpoint", "m.bin", "--out", "r.json"],
    )
    runs = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        env = {**_child_env(), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "crashcast", *argv],
                                  cwd=cwd, env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        runs.append(cwd)
    names = sorted(p.name for p in runs[0].iterdir())
    assert names == sorted(p.name for p in runs[1].iterdir())
    assert len(names) == 9
    for name in names:
        one, two = (run / name for run in runs)
        if name.endswith(".manifest.json"):
            manifests = [json.loads(p.read_text()) for p in (one, two)]
            for manifest in manifests:
                assert manifest.pop("blas_threads") == 1
                del manifest["started_at"], manifest["finished_at"]
            assert manifests[0] == manifests[1], name
        else:
            assert one.read_bytes() == two.read_bytes(), name
