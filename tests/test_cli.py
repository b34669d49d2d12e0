import contextlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crashcast
from crashcast import autodiff as ad
from crashcast import cli
from crashcast.cli import _DEFAULTS, main
from crashcast.scenario import read_dataset
from crashcast.scenario.presets import multilane_map_xml


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


def test_gen_data_pool_has_one_worker_per_span(tmp_path, monkeypatch):
    # the pool starts all its workers at once, so one sized at --jobs
    # would start more processes than there are spans to run
    sizes = []
    pool = cli.ProcessPoolExecutor

    def recording_pool(max_workers=None, **kwargs):
        sizes.append(max_workers)
        return pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", recording_pool)
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(["gen-data", "--count", "2", "--jobs", "1", "--out", str(a)]) == 0
    assert main(["gen-data", "--count", "2", "--jobs", "8", "--out", str(b)]) == 0
    assert sizes == [2]
    assert a.read_bytes() == b.read_bytes()


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


# ---------------------------------------------------------------------------
# config resolution

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
    assert set(sidecar) == {"model", "train", "frames", "fps"}
    assert sidecar["model"] == {"feature_dim": 8, "max_objects": 4}
    assert sidecar["train"] == {"learning_rate": 1e-3, "epochs": 2,
                                "batch_size": 8, "seed": 1}
    assert sidecar["frames"] == 50 and sidecar["fps"] == 10
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


def test_train_resume_dataset_of_another_rate_exits_2(work, tmp_path, capsys):
    _, data, ckpt = work
    faster = tmp_path / "faster.jsonl"
    records = [json.loads(line) for line in data.read_text().splitlines()]
    for record in records:
        record["fps"] = 20
    faster.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    code = main(_resume_args(faster, ckpt, tmp_path / "x.bin"))
    assert code == 2
    err = _one_error_line(capsys)
    assert "ckpt.bin.json: fps is 10, this run has 20" in err, err


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
    capsys.readouterr()
    code = main(_resume_args(work[1], prev, tmp_path / "x.bin"))
    assert code == 2
    assert str(log) in _one_error_line(capsys)
    assert not (tmp_path / "x.bin").exists()


# the sections and keys that train sidecars of earlier versions hold beside
# the current ones, at the values those versions wrote for the fixture
_EARLIER_TRAIN_KEYS = {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
                       "clip_norm": 5.0}
_EARLIER_LOSS = {"fps": 10, "gamma": 50.0, "tau_c": 0.1,
                 "neighbor_mask_radius": 2, "t_pool": None,
                 "earliness_units": "seconds"}


def test_train_resume_from_sidecar_of_earlier_versions(work, tmp_path):
    now = _resumable(work, tmp_path, "now.bin")
    old = _resumable(work, tmp_path, "old.bin", _earlier_format)
    assert set(json.loads((tmp_path / "old.bin.json").read_text())) == {
        "model", "features", "loss", "train", "frames", "fps", "epochs_done"}
    assert main(_resume_args(work[1], now, tmp_path / "a.bin")) == 0
    assert main(_resume_args(work[1], old, tmp_path / "b.bin")) == 0
    for suffix in ("", ".json", ".log.csv"):
        assert (tmp_path / f"a.bin{suffix}").read_bytes() == \
            (tmp_path / f"b.bin{suffix}").read_bytes(), suffix


@pytest.mark.parametrize("section,key,value", [
    ("train", "clip_norm", 1.0),
    ("loss", "t_pool", 1),
    ("loss", "gamma", 10.0),
    (None, "epochs_done", 3),
])
def test_train_resume_retired_key_at_another_value_exits_2(
        work, tmp_path, capsys, section, key, value):
    def edit(sidecar):
        _earlier_format(sidecar)
        (sidecar if section is None else sidecar[section])[key] = value

    prev = _resumable(work, tmp_path, "prev.bin", edit)
    capsys.readouterr()
    code = main(_resume_args(work[1], prev, tmp_path / "x.bin"))
    assert code == 2
    err = _one_error_line(capsys)
    assert str(tmp_path / "prev.bin.json") in err
    assert (key if section is None else f"{section}.{key}") in err, err


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
    capsys.readouterr()
    code = main(_resume_args(work[1], prev, tmp_path / "x.bin"))
    assert code == 2
    err = _one_error_line(capsys)
    assert str(prev) in err and expected in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "prev.bin", "prev.bin.json", "prev.bin.log.csv"]


def test_train_resume_sidecar_without_model_exits_2(work, tmp_path, capsys):
    _, data, ckpt = work
    prev = tmp_path / "prev.bin"
    prev.write_bytes(ckpt.read_bytes())
    sidecar = json.loads((ckpt.parent / "ckpt.bin.json").read_text())
    del sidecar["model"]
    (tmp_path / "prev.bin.json").write_text(json.dumps(sidecar))
    capsys.readouterr()
    code = main(["train", "--data", str(data), "--epochs", "3", "--seed",
                 "1", "--out", str(tmp_path / "x.bin"),
                 "--resume", str(prev)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("crashcast: error:")
    assert str(tmp_path / "prev.bin.json") in err[0] and "'model'" in err[0]


def test_train_missing_data_exits_2(tmp_path):
    code = main(["train", "--data", str(tmp_path / "nope.jsonl"),
                 "--epochs", "1", "--out", str(tmp_path / "x.bin")])
    assert code == 2


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


def test_eval_jobs_do_not_change_bytes(work, tmp_path):
    _, data, ckpt = work
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(a)]) == 0
    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(b), "--jobs", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


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


# the keys that sidecars of earlier versions hold beside the model shape,
# at the values those versions wrote
_EARLIER_MODEL_KEYS = {"gcn_layers": 2, "tcn_kernel": 3, "scale": 1.0 / 1280.0,
                       "tau_text": 0.5, "velocity_sign": "as-printed"}
_EARLIER_FEATURE_KEYS = {"feature_dim": 8, "max_objects": 4,
                         "feature_seed": 0, "noise_sigma": 0.01}


def _with_sidecar(work, tmp_path, name, edit):
    """A copy of the fixture checkpoint whose sidecar is edited in place."""
    _, _, ckpt = work
    copy = tmp_path / name
    copy.write_bytes(ckpt.read_bytes())
    sidecar = json.loads((ckpt.parent / "ckpt.bin.json").read_text())
    edit(sidecar)
    (tmp_path / f"{name}.json").write_text(json.dumps(sidecar))
    return copy


def _earlier_format(sidecar, older=False):
    sidecar["model"].update(_EARLIER_MODEL_KEYS)
    sidecar["features"] = dict(_EARLIER_FEATURE_KEYS)
    sidecar["train"].update(_EARLIER_TRAIN_KEYS)
    sidecar["loss"] = dict(_EARLIER_LOSS)
    sidecar["epochs_done"] = sidecar["train"]["epochs"]
    if older:  # before the edge-weight constants moved to the model
        sidecar["features"].update(
            {k: _EARLIER_MODEL_KEYS[k] for k in ("scale", "tau_text", "velocity_sign")})


def test_eval_sidecar_of_earlier_versions_gives_same_bytes(work, tmp_path):
    data, ckpt = work[1], work[2]
    assert set(json.loads((ckpt.parent / "ckpt.bin.json").read_text())["model"]) \
        == {"feature_dim", "max_objects"}
    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "new.json")]) == 0
    for older in (False, True):
        old = _with_sidecar(work, tmp_path, f"old{older}.bin",
                            lambda s: _earlier_format(s, older))
        out = tmp_path / f"old{older}.json"
        assert main(["eval", "--data", str(data), "--checkpoint", str(old),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "new.json").read_bytes()
        assert (tmp_path / f"old{older}.json.curves.csv").read_bytes() == \
            (tmp_path / "new.json.curves.csv").read_bytes()


@pytest.mark.parametrize("section,key,value", [
    ("model", "velocity_sign", "negated"),
    ("model", "tcn_kernel", 5),
    ("features", "feature_seed", 4),
    ("features", "max_objects", 5),
])
def test_eval_retired_sidecar_key_at_another_value_exits_2(
        work, tmp_path, capsys, section, key, value):
    def edit(sidecar):
        _earlier_format(sidecar)
        sidecar[section][key] = value

    other = _with_sidecar(work, tmp_path, "other.bin", edit)
    capsys.readouterr()
    code = main(["eval", "--data", str(work[1]), "--checkpoint", str(other),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("crashcast: error:")
    assert str(tmp_path / "other.bin.json") in err[0]
    assert f"{section}.{key}" in err[0], err[0]
    assert not (tmp_path / "r.json").exists()
    assert not (tmp_path / "r.json.curves.csv").exists()


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
    assert not (tmp_path / "r.json").exists()


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


@pytest.mark.parametrize("corrupt", ["cut", "missing-keys", "not-utf8",
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
    (tmp_path / "short.bin.json").write_bytes(
        (ckpt.parent / "ckpt.bin.json").read_bytes())
    capsys.readouterr()
    code = main(["eval", "--data", str(data), "--checkpoint", str(short),
                 "--out", str(tmp_path / "r.json")])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("crashcast: error:")
    assert str(short) in err[0] and "byte" in err[0]
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["eval", "resume"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_checkpoint_exits_3(work, tmp_path, capsys, command, value):
    prev = _resumable(work, tmp_path, "prev.bin")
    state = ad.load_checkpoint(str(prev))
    state["head.b2"].flat[0] = value
    ad.save_checkpoint(str(prev), state)
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


def test_cli_import_leaves_scipy_unloaded():
    # scipy costs about a third of a second to import; the CLI needs none of it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, crashcast.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


@pytest.mark.parametrize("first,pinned", [("crashcast", "1"),
                                          ("numpy", "None")])
def test_import_pins_blas_to_one_thread(first, pinned):
    # the pin overrides the environment, and takes effect only before numpy
    code = ("import os, sys, {0}, crashcast; print(os.environ["
            "'OPENBLAS_NUM_THREADS'], crashcast.BLAS_THREADS)").format(first)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**_child_env(),
                                          "OPENBLAS_NUM_THREADS": "4"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", pinned]


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
