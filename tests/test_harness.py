"""Manifest discipline, scale presets, and the CLI surface."""

import csv
import hashlib
import json
import struct
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from camarl.acd import (
    SeriesSample, collect_dataset, load_dataset, save_dataset, train_acd)
from camarl.errors import (
    CollectionError, ConfigurationError, IncompatibleInputsError, UsageError)
from camarl.harness import (
    ExperimentManifest, default_config, new_manifest, read_manifest,
    write_manifest)
from camarl.harness.cli import main
from camarl.marl import read_log, read_run, write_log


# ----------------------------------------------------------------- defaults

def test_default_config_desk_values():
    cfg = default_config("lj-sp", "idql", seed=4)
    assert cfg.total_steps == 200_000
    assert cfg.eval_interval == 10_000
    assert cfg.epsilon_anneal_episodes == 800
    assert cfg.batch_size == 8
    assert cfg.target_sync == 20
    assert cfg.eval_episodes == 20
    assert cfg.seed == 4 and cfg.n_hidden == 64


def test_default_config_paper_scale():
    cfg = default_config("sk3", "icl", paper_scale=True)
    assert cfg.total_steps == 2_000_000
    assert cfg.eval_interval == 2_500
    assert cfg.epsilon_anneal_episodes == 50_000
    assert cfg.batch_size == 32
    assert cfg.target_sync == 200


def test_default_config_overrides():
    cfg = default_config("pp", "idql", total_steps=123, eval_interval=61)
    assert cfg.total_steps == 123 and cfg.eval_interval == 61
    # None means "keep the preset"
    assert default_config("pp", "idql", total_steps=None).total_steps \
        == 200_000
    with pytest.raises(ConfigurationError):
        default_config("pp", "idql", total_stepz=5)
    with pytest.raises(ConfigurationError):
        default_config("pp", "nope")


# default_config's every field per id and scale, pinned so that no
# rewrite of the preset tables moves a value: PRESET_FIELDS per id and
# scale, and PRESET_COMMON for the rest
PRESET_FIELDS = ("total_steps", "eval_interval", "eval_episodes",
                 "epsilon_anneal_episodes", "target_sync", "batch_size")
PRESET_COMMON = {
    "trainer": "idql", "seed": 0, "gamma": 0.99, "epsilon_start": 1.0,
    "epsilon_end": 0.05, "buffer_capacity": 5000, "lr": 0.0005,
    "grad_clip": 10.0, "n_hidden": 64, "strict_mask": False}
PRESETS = {
    ("pp", False): (200_000, 10_000, 20, 1000, 20, 8),
    ("pp-sp", False): (200_000, 10_000, 20, 1000, 20, 8),
    ("lj", False): (200_000, 10_000, 20, 800, 20, 8),
    ("lj-sp", False): (200_000, 10_000, 20, 800, 20, 8),
    ("sk3", False): (60_000, 3_000, 20, 700, 20, 8),
    ("sk3-sp", False): (60_000, 3_000, 20, 700, 20, 8),
    ("sk5", False): (120_000, 6_000, 20, 1200, 20, 8),
    ("sk5-sp", False): (120_000, 6_000, 20, 1200, 20, 8),
    ("pp", True): (1_000_000, 10_000, 20, 50_000, 200, 32),
    ("pp-sp", True): (1_000_000, 10_000, 20, 50_000, 200, 32),
    ("lj", True): (1_000_000, 10_000, 20, 50_000, 200, 32),
    ("lj-sp", True): (1_000_000, 10_000, 20, 50_000, 200, 32),
    ("sk3", True): (2_000_000, 2_500, 20, 50_000, 200, 32),
    ("sk3-sp", True): (2_000_000, 2_500, 20, 50_000, 200, 32),
    ("sk5", True): (2_000_000, 10_000, 20, 50_000, 200, 32),
    ("sk5-sp", True): (2_000_000, 10_000, 20, 50_000, 200, 32),
}


@pytest.mark.parametrize("env_id, paper_scale", PRESETS,
                         ids=[f"{e}-{'paper' if p else 'desk'}"
                              for e, p in PRESETS])
def test_default_config_presets_pinned(env_id, paper_scale):
    want = dict(PRESET_COMMON, env_id=env_id,
                **dict(zip(PRESET_FIELDS, PRESETS[env_id, paper_scale])))
    got = asdict(default_config(env_id, "idql", paper_scale=paper_scale))
    assert got == want
    assert all(type(got[k]) is type(v) for k, v in want.items())


# ---------------------------------------------------------------- manifests

def _train_config():
    """A full train manifest config: every TrainConfig field but the
    seed, plus the encoder."""
    config = asdict(default_config("pp", "idql"))
    del config["seed"]
    return dict(config, encoder=None)


def test_manifest_roundtrip(tmp_path):
    m = new_manifest("exp", "train", _train_config(), [0, 1])
    assert m.created_at and m.substrate_version
    write_manifest(tmp_path / "exp", m)
    back = read_manifest(tmp_path / "exp")
    assert back == m
    # reading the file path directly works too
    assert read_manifest(tmp_path / "exp" / "manifest.json") == m


def test_manifest_validation():
    with pytest.raises(ConfigurationError):
        new_manifest("x", "explode", {}, [])
    with pytest.raises(ConfigurationError):
        new_manifest("", "train", _train_config(), [0])
    # the config holds every key its kind's executor reads, a train
    # config's missing keys named in TrainConfig field order
    with pytest.raises(ConfigurationError, match="must be an object"):
        ExperimentManifest("x", "report", ["runs"], []).validate()
    lacking = [f for f in _train_config() if f != "env_id"]
    with pytest.raises(ConfigurationError,
                       match="lacks " + ", ".join(lacking) + "$"):
        new_manifest("x", "train", {"env_id": "pp"}, [0])
    # and no key it does not read
    with pytest.raises(ConfigurationError, match="unknown totl_steps$"):
        new_manifest("x", "train", dict(_train_config(), totl_steps=40), [0])
    with pytest.raises(ConfigurationError, match="lacks policy, lazy_prob"):
        new_manifest("x", "collect", {"env_id": "pp", "episodes": 1,
                                      "seed": 0}, [])
    # the collect values are checked too
    collect = {"env_id": "pp", "policy": "scripted", "episodes": 1,
               "seed": 0, "lazy_prob": 0.5}
    assert new_manifest("x", "collect", collect, []).config == collect
    for key, value in (("episodes", "1"), ("episodes", -1),
                       ("episodes", True), ("seed", 1.5), ("seed", -1),
                       ("lazy_prob", "0.5"), ("lazy_prob", 1.5),
                       ("env_id", None), ("policy", 3)):
        with pytest.raises(ConfigurationError, match=f"invalid {key}"):
            new_manifest("x", "collect", {**collect, key: value}, [])


def test_manifest_refuses_reuse(tmp_path):
    m = new_manifest("exp", "report", {"runs": ["r"]}, [])
    write_manifest(tmp_path / "d", m)
    with pytest.raises(UsageError):
        write_manifest(tmp_path / "d", m)
    write_manifest(tmp_path / "d", m, overwrite=True)


def test_read_manifest_errors(tmp_path):
    with pytest.raises(UsageError):
        read_manifest(tmp_path / "missing")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_text("{nope")
    with pytest.raises(ConfigurationError):
        read_manifest(bad)
    (bad / "manifest.json").write_text('{"name": "x"}')
    with pytest.raises(ConfigurationError):
        read_manifest(bad)


# -------------------------------------------------------------- dataset api

def test_dataset_file_roundtrip(tmp_path):
    samples = collect_dataset("sk3-sp", 3, seed=9)
    path = tmp_path / "ds.ckpt"
    save_dataset(path, samples)
    back = load_dataset(path)
    assert len(back) == 3
    for a, b in zip(samples, back):
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.bits, b.bits)
        assert (a.env_id, a.seed, a.length) == (b.env_id, b.seed, b.length)


def test_dataset_rejects_mixing(tmp_path):
    a = SeriesSample(x=np.zeros((5, 100, 53)), env_id="lj",
                     bits=np.zeros(4, dtype=np.uint8), length=100)
    b = SeriesSample(x=np.zeros((5, 100, 53)), env_id="lj-sp",
                     bits=np.zeros(4, dtype=np.uint8), length=100)
    with pytest.raises(ConfigurationError):
        save_dataset(tmp_path / "mix.ckpt", [a, b])
    with pytest.raises(ConfigurationError):
        train_acd([a, b], epochs=1, enc_hidden=8, dec_hidden=4)
    with pytest.raises(UsageError):
        save_dataset(tmp_path / "none.ckpt", [])


# ---------------------------------------------------------------------- cli

TINY = ["--steps", "240", "--eval-interval", "120"]


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Two tiny finished training experiments plus a collected dataset."""
    root = tmp_path_factory.mktemp("cli")
    rc = main(["train", "--env", "sk3-sp", "--trainer", "idql",
               "--seeds", "0,1", *TINY, "--out", str(root / "idql"),
               "--quiet"])
    assert rc == 0
    rc = main(["train", "--env", "sk3-sp", "--trainer", "icl",
               "--seeds", "0,1", *TINY, "--out", str(root / "icl"),
               "--quiet"])
    assert rc == 0
    rc = main(["collect", "--env", "sk3-sp", "--episodes", "6",
               "--seed", "3", "--out", str(root / "ds")])
    assert rc == 0
    return root


def test_cli_train_fanout(cli_runs):
    out = cli_runs / "idql"
    assert (out / "manifest.json").exists()
    for seed in (0, 1):
        d = out / f"seed_{seed}"
        assert (d / "train_log.csv").exists()
        assert (d / "run.json").exists()
        assert (d / "agent_0.ckpt").exists()
    assert (out / "curve_eval_return_mean.csv").exists()
    assert (out / "curve_eval_return_mean.svg").exists()
    assert (out / "curve_win_rate.csv").exists()
    logs = [read_log(out / f"seed_{s}" / "train_log.csv", 3) for s in (0, 1)]
    # shared evaluation grid: scheduled checkpoints, then the horizon
    for log in logs:
        assert [r["step"] for r in log] == [0, 120, 240]


def test_cli_train_seeds_share_one_grid(tmp_path):
    # sk3 episodes run past several 4-step grid points; every seed still
    # logs each of them, so the curves and the report aggregate all six
    out = tmp_path / "t"
    assert main(["train", "--env", "sk3", "--trainer", "idql",
                 "--steps", "30", "--eval-interval", "4",
                 "--seeds", "0,1,2,3,4,5", "--out", str(out),
                 "--quiet"]) == 0
    runs = [out / f"seed_{s}" for s in range(6)]
    for run in runs:
        log = read_log(run / "train_log.csv", 3)
        assert [r["step"] for r in log] == [*range(0, 30, 4), 30]
    assert (out / "curve_eval_return_mean.csv").exists()
    assert main(["report", "--runs", *map(str, runs),
                 "--out", str(tmp_path / "rep")]) == 0


def test_cli_trainer_codes_match_logs(cli_runs):
    meta = json.loads((cli_runs / "icl" / "seed_0" / "run.json").read_text())
    assert meta["trainer"] == "icl"
    assert meta["n_hidden"] == 64


def test_cli_acd_marl_requires_encoder(tmp_path, capsys):
    rc = main(["train", "--env", "sk3-sp", "--trainer", "acd-marl",
               "--seeds", "0", *TINY, "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.strip().count("\n") == 0


def test_cli_encoder_rejected_for_idql(cli_runs, tmp_path, capsys):
    rc = main(["train", "--env", "sk3-sp", "--trainer", "idql",
               "--seeds", "0", "--encoder", "whatever.ckpt",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    # a rerun manifest is held to the same rule
    manifest = json.loads((cli_runs / "idql" / "manifest.json").read_text())
    manifest["config"]["encoder"] = "whatever.ckpt"
    (tmp_path / "exp").mkdir()
    (tmp_path / "exp" / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    assert main(["rerun", "--manifest", str(tmp_path / "exp"),
                 "--out", str(out)]) == 2
    assert "--encoder" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "x").exists()


def test_parser_destinations_are_manifest_keys():
    # a setting of these commands is one add_argument plus one
    # CONFIG_FIELDS entry; train's config also takes the preset rows
    import argparse

    from camarl.harness.cli import build_parser
    from camarl.harness.manifest import CONFIG_FIELDS

    def commands(parser):
        return next(a for a in parser._actions if isinstance(
            a, argparse._SubParsersAction)).choices

    top = commands(build_parser())
    acd = commands(top["acd"])
    for kind, parser in {"collect": top["collect"], "acd-train": acd["train"],
                         "acd-eval": acd["eval"],
                         "report": top["report"]}.items():
        dests = {a.dest for a in parser._actions} - {"help", "out", "quiet"}
        assert sorted(dests) == sorted(CONFIG_FIELDS[kind]), kind


def test_cli_unknown_env_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--env", "marsbase", "--trainer", "idql",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_cli_collect_outputs(cli_runs, capsys):
    ds = cli_runs / "ds"
    assert (ds / "manifest.json").exists()
    back = load_dataset(ds / "dataset.ckpt")
    direct = collect_dataset("sk3-sp", 6, seed=3, lazy_prob=0.5)
    assert len(back) == len(direct)
    for a, b in zip(direct, back):
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.bits, b.bits)


def test_cli_collect_prints_label_shares(tmp_path, capsys):
    rc = main(["collect", "--env", "pp-sp", "--episodes", "4", "--seed", "3",
               "--out", str(tmp_path / "d")])
    assert rc == 0
    out, err = capsys.readouterr()
    bits = np.stack([s.bits for s in load_dataset(tmp_path / "d" /
                                                  "dataset.ckpt")])
    assert 0 < bits.mean() < 1
    tally, shares = out.splitlines()
    assert tally.startswith("collected 4 winning episodes")
    assert shares == "1-labels per agent: " + ", ".join(
        f"{100.0 * b.mean():.1f}%" for b in bits.T)
    assert err == ""


def test_cli_collect_warns_on_one_label_class(tmp_path, capsys):
    # every sk label is 1 by construction
    rc = main(["collect", "--env", "sk3-sp", "--episodes", "2",
               "--out", str(tmp_path / "d")])
    assert rc == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1] == "1-labels per agent: 100.0%, 100.0%, 100.0%"
    assert err.startswith("warning: every label in the dataset is 1")
    assert len(err.splitlines()) == 1


def test_cli_collect_error_exit_code(tmp_path, monkeypatch, capsys):
    import camarl.harness.cli as cli_mod

    def boom(*a, **k):
        raise CollectionError("no winning episodes in 12 attempts")

    monkeypatch.setattr(cli_mod, "collect_dataset", boom)
    rc = main(["collect", "--env", "sk3-sp", "--episodes", "2",
               "--out", str(tmp_path / "d")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error:")


SK_IDQL = ["train", "--env", "sk3-sp", "--trainer", "idql", *TINY]


@pytest.mark.parametrize("argv", [
    [*SK_IDQL, "--seeds=-1"],
    [*SK_IDQL, "--seeds", ""],
    [*SK_IDQL, "--seeds", "1,1"],
    ["collect", "--env", "sk3-sp", "--episodes", "1", "--seed", "-1"],
    ["acd", "train", "--data", "DATA", "--epochs", "1", "--seed", "-1"],
], ids=["train-negative", "train-empty", "train-repeated", "collect-negative",
        "acd-train-negative"])
def test_cli_bad_seeds_are_usage_errors(cli_runs, tmp_path, capsys, argv):
    data = str(cli_runs / "ds" / "dataset.ckpt")
    out = tmp_path / "out"
    argv = [data if a == "DATA" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_cli_acd_train_one_sample_writes_nothing(tmp_path, capsys):
    data = tmp_path / "one.ckpt"
    save_dataset(data, collect_dataset("sk3-sp", 1, seed=3))
    out = tmp_path / "fit"
    assert main(["acd", "train", "--data", str(data), "--epochs", "1",
                 "--out", str(out)]) == 2
    assert "need at least 2" in capsys.readouterr().err
    assert not out.exists()


SK_ACD_MARL = ["train", "--env", "sk3-sp", "--trainer", "acd-marl", *TINY]
COLLECT_ONE = ["collect", "--env", "sk3-sp", "--episodes", "1"]


@pytest.mark.parametrize("argv, code", [
    (["acd", "train", "--data", "MISSING"], 2),
    (["acd", "eval", "--model", "MISSING", "--data", "DATA"], 2),
    ([*SK_ACD_MARL, "--encoder", "MISSING"], 2),
    ([*COLLECT_ONE, "--policy", "EMPTY"], 2),
    (["report", "--runs", "EMPTY"], 2),
    (["acd", "eval", "--model", "DATA", "--data", "DATA"], 3),
    ([*SK_ACD_MARL, "--encoder", "DATA"], 3),
    ([*COLLECT_ONE, "--policy", "TORN"], 3),
    (["report", "--runs", "TORN"], 3),
    (["report", "--runs", "KEYLESS"], 3),
    ([*COLLECT_ONE, "--policy", "KEYLESS"], 3),
    (["report", "--runs", "NOLOG"], 2),
], ids=["acd-train-missing-data", "acd-eval-missing-model",
        "train-missing-encoder", "collect-policy-without-run",
        "report-without-run", "acd-eval-dataset-as-model",
        "train-dataset-as-encoder", "collect-policy-torn-run",
        "report-torn-run", "report-keyless-run", "collect-policy-keyless-run",
        "report-run-without-log"])
def test_cli_unreadable_inputs_exit_typed(cli_runs, tmp_path, capsys, argv,
                                          code):
    # 2 for a file that cannot be opened, 3 for one of the wrong kind;
    # either way before the output directory is made
    (tmp_path / "empty").mkdir()
    (tmp_path / "torn").mkdir()
    (tmp_path / "torn" / "run.json").write_text('{"env_id": "sk')
    (tmp_path / "keyless").mkdir()
    (tmp_path / "keyless" / "run.json").write_text("{}")
    (tmp_path / "nolog").mkdir()
    (tmp_path / "nolog" / "run.json").write_bytes(
        (cli_runs / "idql" / "seed_0" / "run.json").read_bytes())
    paths = {"MISSING": tmp_path / "missing.ckpt",
             "DATA": cli_runs / "ds" / "dataset.ckpt",
             "EMPTY": tmp_path / "empty", "TORN": tmp_path / "torn",
             "KEYLESS": tmp_path / "keyless", "NOLOG": tmp_path / "nolog"}
    out = tmp_path / "out"
    argv = [str(paths[a]) if a in paths else a for a in argv]
    assert main([*argv, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("env_id", 3), ("trainer", None), ("agents", 5), ("agents", ["a", 1]),
    ("agents", []), ("n_hidden", "64"), ("n_hidden", 0), ("n_hidden", True),
], ids=["env-id-int", "trainer-null", "agents-int", "agents-mixed",
        "agents-empty", "n-hidden-str", "n-hidden-zero", "n-hidden-bool"])
def test_cli_mistyped_run_json_exits_typed(cli_runs, tmp_path, capsys, field,
                                           value):
    # a run.json field of the wrong type is a wrong-kind input (exit 3),
    # not a TypeError from the code that reads it
    meta = json.loads((cli_runs / "idql" / "seed_0" / "run.json").read_text())
    meta[field] = value
    run = tmp_path / "run"
    run.mkdir()
    (run / "run.json").write_text(json.dumps(meta))
    for name in meta["agents"] if field != "agents" else ():
        (run / name).write_bytes(
            (cli_runs / "idql" / "seed_0" / name).read_bytes())
    out = tmp_path / "out"
    assert main([*COLLECT_ONE, "--policy", str(run), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err, err
    assert not out.exists()


def _assert_exit_3_writes_nothing(argv, out, capsys, word):
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert word in err, err
    assert not out.exists()


ACD_TRAIN = ["acd", "train", "--data", "DATA", "--epochs", "1"]


@pytest.mark.parametrize("argv, word", [
    (["collect", "--env", "sk3-sp", "--episodes", "0"], "episodes"),
    ([*ACD_TRAIN, "--epochs", "0"], "epochs"),
    ([*ACD_TRAIN, "--epochs", "-3"], "epochs"),
    ([*ACD_TRAIN, "--batch", "0"], "batch"),
    ([*ACD_TRAIN, "--batch", "-1"], "batch"),
    ([*ACD_TRAIN, "--sigma", "-1"], "sigma"),
    ([*ACD_TRAIN, "--sigma", "0"], "sigma"),
    ([*ACD_TRAIN, "--train-frac", "1"], "train_frac"),
    ([*ACD_TRAIN, "--sigma", "inf"], "sigma"),
], ids=["collect-episodes-0", "epochs-0", "epochs-negative", "batch-0",
        "batch-negative", "sigma-negative", "sigma-0", "train-frac-1",
        "sigma-infinity"])
def test_cli_bad_config_values_fail_before_output(cli_runs, tmp_path, capsys,
                                                  argv, word):
    data = str(cli_runs / "ds" / "dataset.ckpt")
    _assert_exit_3_writes_nothing([data if a == "DATA" else a for a in argv],
                                  tmp_path / "out", capsys, word)


def test_cli_acd_train_bad_length_fails_before_output(tmp_path, capsys):
    from camarl.nn.checkpoint import load_checkpoint, save_checkpoint

    samples = collect_dataset("sk3-sp", 2, seed=3)
    good = tmp_path / "good.ckpt"
    save_dataset(good, samples)
    # save_dataset refuses a length outside 1..T and writes no file
    samples[1] = replace(samples[1], length=0)
    refused = tmp_path / "refused.ckpt"
    with pytest.raises(ConfigurationError, match="lengths"):
        save_dataset(refused, samples)
    assert not refused.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["good.ckpt"]
    # a file that carries one anyway is refused on load
    arrays, meta = load_checkpoint(good)
    meta["lengths"][1] = 0
    data = tmp_path / "bad.ckpt"
    save_checkpoint(data, arrays, meta)
    with pytest.raises(ConfigurationError, match="lengths"):
        load_dataset(data)
    _assert_exit_3_writes_nothing(
        ["acd", "train", "--data", str(data), "--epochs", "1"],
        tmp_path / "out", capsys, "lengths")


def test_cli_negative_episodes_stay_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["collect", "--env", "sk3-sp", "--episodes", "-1",
                 "--out", str(out)]) == 2
    assert "episodes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", [
    "n_samples", "seeds", "lengths", "env_id", "x_0", "bits_5"])
def test_cli_incomplete_dataset_exits_typed(cli_runs, tmp_path, capsys,
                                            field):
    # a dataset checkpoint that lacks a field or array load_dataset reads
    from camarl.nn.checkpoint import load_checkpoint, save_checkpoint

    arrays, meta = load_checkpoint(cli_runs / "ds" / "dataset.ckpt")
    arrays.pop(field, None)
    meta.pop(field, None)
    data = tmp_path / "incomplete.ckpt"
    save_checkpoint(data, arrays, meta)
    _assert_exit_3_writes_nothing(
        ["acd", "train", "--data", str(data), "--epochs", "1"],
        tmp_path / "out", capsys, field)


@pytest.mark.parametrize("edit, word", [
    (lambda m: m.update(env_id=3), "env_id"),
    (lambda m: m.update(seeds=["a"] * len(m["seeds"])), "seeds"),
    (lambda m: m["lengths"].append(1), "lengths"),
], ids=["env-id-int", "seeds-strings", "lengths-one-too-many"])
def test_cli_acd_eval_malformed_dataset_exits_typed(cli_runs, cli_acd,
                                                    tmp_path, capsys, edit,
                                                    word):
    # a dataset header field of the wrong type or length, before the
    # encoder is compared with it
    from camarl.nn.checkpoint import load_checkpoint, save_checkpoint

    arrays, meta = load_checkpoint(cli_runs / "ds" / "dataset.ckpt")
    edit(meta)
    data = tmp_path / "bad.ckpt"
    save_checkpoint(data, arrays, meta)
    _assert_exit_3_writes_nothing(
        ["acd", "eval", "--model", str(cli_acd / "fit" / "encoder.ckpt"),
         "--data", str(data)], tmp_path / "out", capsys, word)


@pytest.mark.parametrize("command", ["eval", "train"])
@pytest.mark.parametrize("edit, word", [
    (lambda a: a.update(x_0=a["x_0"].ravel()), "x_0"),
    (lambda a: a.update(bits_0=np.ones(7)), "bits_0"),
    (lambda a: a.update(x_0=a["x_0"][:, :30]), "x_0"),
    (lambda a: a.update(bits_0=np.full_like(a["bits_0"], 2.0)), "bits_0"),
    (lambda a: a["x_0"][0, 3, 2:3].fill(-0.25), "x_0"),
    (lambda a: a["x_0"][-1, 0, 1:2].fill(0.5), "x_0"),
    (lambda a: a["x_0"][0, -1, 0:1].fill(0.5), "x_0"),
], ids=["x-1d", "bits-length-7", "x-length-30", "bits-2", "obs-below-0",
        "reward-channel-1", "nonzero-past-length"])
def test_cli_acd_malformed_dataset_array_exits_typed(cli_runs, cli_acd,
                                                     tmp_path, capsys,
                                                     command, edit, word):
    # an x_k or bits_k unlike the header's env id's (N+1, T, D) and (N,)
    # 0/1, or an x_k nonzero past its header length (the last step lies
    # past every fixture episode's), whether or not the command goes on
    # to read it
    from camarl.nn.checkpoint import load_checkpoint, save_checkpoint

    arrays, meta = load_checkpoint(cli_runs / "ds" / "dataset.ckpt")
    edit(arrays)
    data = tmp_path / "bad.ckpt"
    save_checkpoint(data, arrays, meta)
    given = (["--model", str(cli_acd / "fit" / "encoder.ckpt")]
             if command == "eval" else ["--epochs", "1"])
    _assert_exit_3_writes_nothing(["acd", command, *given, "--data",
                                   str(data)], tmp_path / "out", capsys, word)


NON_FINITE = pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])


@pytest.mark.parametrize("command", ["eval", "train"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e308],
                         ids=["nan", "inf", "minus-inf", "1e308"])
def test_cli_acd_non_finite_dataset_exits_typed(cli_runs, cli_acd, tmp_path,
                                                capsys, command, value):
    # one non-finite cell of one sample would otherwise be scored, and so
    # would a finite one far outside the observation range [0, 1]
    from camarl.nn.checkpoint import load_checkpoint, save_checkpoint

    arrays, meta = load_checkpoint(cli_runs / "ds" / "dataset.ckpt")
    arrays["x_1"][0, 0, 0] = value
    data = tmp_path / "bad.ckpt"
    save_checkpoint(data, arrays, meta)
    given = (["--model", str(cli_acd / "fit" / "encoder.ckpt")]
             if command == "eval" else ["--epochs", "1"])
    _assert_exit_3_writes_nothing(["acd", command, *given, "--data",
                                   str(data)], tmp_path / "out", capsys, "x_1")


@pytest.mark.parametrize("argv", [
    ["acd", "eval", "--data", "DATA", "--model"],
    [*SK_ACD_MARL, "--encoder"],
], ids=["acd-eval", "train-acd-marl"])
@NON_FINITE
def test_cli_non_finite_encoder_exits_typed(cli_runs, cli_acd, tmp_path,
                                            capsys, argv, value):
    from camarl.nn.checkpoint import load_checkpoint, save_checkpoint

    arrays, meta = load_checkpoint(cli_acd / "fit" / "encoder.ckpt")
    name = sorted(arrays)[-1]
    arrays[name].flat[-1] = value
    model = tmp_path / "bad.ckpt"
    save_checkpoint(model, arrays, meta)
    data = str(cli_runs / "ds" / "dataset.ckpt")
    _assert_exit_3_writes_nothing(
        [data if a == "DATA" else a for a in argv] + [str(model)],
        tmp_path / "out", capsys, name)


def test_cli_acd_eval_dataset_of_no_samples_exits_typed(cli_runs, cli_acd,
                                                        tmp_path, capsys):
    # save_dataset refuses to write one; load_dataset refuses to read one
    from camarl.nn.checkpoint import load_checkpoint, save_checkpoint

    meta = load_checkpoint(cli_runs / "ds" / "dataset.ckpt")[1]
    meta.update(n_samples=0, seeds=[], lengths=[])
    data = tmp_path / "empty.ckpt"
    save_checkpoint(data, {}, meta)
    _assert_exit_3_writes_nothing(
        ["acd", "eval", "--model", str(cli_acd / "fit" / "encoder.ckpt"),
         "--data", str(data)], tmp_path / "out", capsys, "no samples")


@pytest.mark.parametrize("experiment, edit, word", [
    ("idql", lambda m: m.update(config=list(m["config"])), "object"),
    ("idql", lambda m: m["config"].pop("trainer"), "trainer"),
    ("ds", lambda m: m["config"].pop("policy"), "policy"),
    ("idql", lambda m: m["config"].update(total_steps="40"), "total_steps"),
    ("idql", lambda m: m["config"].update(strict_mask=0), "strict_mask"),
    ("ds", lambda m: m["config"].update(episodes="1"), "episodes"),
    ("ds", lambda m: m["config"].update(lazy_prob=None), "lazy_prob"),
    ("ds", lambda m: m["config"].update(episodes=0), "episodes"),
    ("fit", lambda m: m["config"].update(epochs=0), "epochs"),
    ("fit", lambda m: m["config"].update(epochs=-3), "epochs"),
    ("fit", lambda m: m["config"].update(batch=0), "batch"),
    ("fit", lambda m: m["config"].update(batch=True), "batch"),
    ("fit", lambda m: m["config"].update(sigma=-1.0), "sigma"),
    ("fit", lambda m: m["config"].update(sigma="0.1"), "sigma"),
    ("fit", lambda m: m["config"].update(train_frac=0), "train_frac"),
    ("fit", lambda m: m["config"].update(seed=-1), "seed"),
    ("fit", lambda m: m["config"].update(data=None), "data"),
    ("idql", lambda m: m.update(kind="report", config={"runs": []},
                                seeds=[]), "runs"),
    ("idql", lambda m: m.update(kind="report", config={
        "runs": ["/a/seed_0", "/b/seed_0", "/a/seed_0"]}, seeds=[]), "runs"),
    ("idql", lambda m: m["config"].pop("total_steps"), "total_steps"),
    ("idql", lambda m: m["config"].pop("encoder"), "encoder"),
    ("idql", lambda m: m["config"].update(totl_steps=40), "totl_steps"),
    ("idql", lambda m: m["config"].update(paper_scale=0), "paper_scale"),
    ("fit", lambda m: m["config"].update(epoch=3), "epoch"),
    ("idql", lambda m: m.update(seeds=[-1]), "seeds"),
    ("idql", lambda m: m.update(seeds=["x"]), "seeds"),
    ("idql", lambda m: m.update(seeds=[1.5]), "seeds"),
    ("idql", lambda m: m.update(seeds=[True]), "seeds"),
    ("idql", lambda m: m.update(seeds=[0, 0]), "seeds"),
    ("idql", lambda m: m.update(seeds=[]), "seeds"),
    ("idql", lambda m: m.update(seeds=0), "seeds"),
    ("ds", lambda m: m.update(seeds=[0]), "seeds"),
    ("idql", lambda m: m["config"].update(lr=float("nan")), "lr"),
    ("idql", lambda m: m["config"].update(lr=float("inf")), "lr"),
    ("idql", lambda m: m["config"].update(grad_clip=float("nan")),
     "grad_clip"),
    ("idql", lambda m: m["config"].update(lr=10 ** 400), "lr"),
    ("idql", lambda m: m["config"].update(grad_clip=10 ** 400), "grad_clip"),
    ("fit", lambda m: m["config"].update(sigma=10 ** 400), "sigma"),
], ids=["config-list", "train-without-trainer", "collect-without-policy",
        "train-steps-string", "train-strict-mask-int",
        "collect-episodes-string", "collect-lazy-prob-null",
        "collect-episodes-0", "acd-epochs-0", "acd-epochs-negative",
        "acd-batch-0", "acd-batch-bool", "acd-sigma-negative",
        "acd-sigma-string", "acd-train-frac-0", "acd-seed-negative",
        "acd-data-null", "report-without-runs", "report-repeated-run",
        "train-without-steps",
        "train-without-encoder", "train-misspelt-key",
        "train-paper-scale-int", "acd-unknown-key", "train-seed-negative",
        "train-seed-string", "train-seed-float", "train-seed-bool",
        "train-seed-repeated", "train-seeds-empty", "train-seeds-int",
        "collect-with-seeds", "train-lr-nan", "train-lr-infinity",
        "train-grad-clip-nan", "train-lr-huge-int", "train-grad-clip-huge-int",
        "acd-sigma-huge-int"])
def test_cli_rerun_malformed_manifest_exits_typed(cli_runs, cli_acd, tmp_path,
                                                  capsys, experiment, edit,
                                                  word):
    # each fails its field check before anything is written
    root = cli_acd if experiment == "fit" else cli_runs
    manifest = json.loads((root / experiment / "manifest.json").read_text())
    edit(manifest)
    (tmp_path / "exp").mkdir()
    (tmp_path / "exp" / "manifest.json").write_text(json.dumps(manifest))
    _assert_exit_3_writes_nothing(
        ["rerun", "--manifest", str(tmp_path / "exp")], tmp_path / "out",
        capsys, word)


@pytest.mark.parametrize("column", ["step", "epsilon", "event_count_agent_0",
                                    "event_count_agent_2"])
def test_cli_report_log_without_column_exits_typed(cli_runs, tmp_path, capsys,
                                                   column):
    # every column the report reads is checked before it writes anything
    src = cli_runs / "idql" / "seed_0"
    run = tmp_path / "run"
    run.mkdir()
    (run / "run.json").write_bytes((src / "run.json").read_bytes())
    with open(src / "train_log.csv", newline="") as f:
        rows = list(csv.reader(f))
    keep = [j for j, name in enumerate(rows[0]) if name != column]
    with open(run / "train_log.csv", "w", newline="") as f:
        csv.writer(f).writerows([[r[j] for j in keep] for r in rows])
    _assert_exit_3_writes_nothing(["report", "--runs", str(run)],
                                  tmp_path / "out", capsys, column)


def test_cli_report_non_finite_log_cell_exits_typed(cli_runs, tmp_path,
                                                    capsys):
    # a NaN return would otherwise reach the chart's axis ticks
    src = cli_runs / "idql" / "seed_0"
    run = tmp_path / "run"
    run.mkdir()
    (run / "run.json").write_bytes((src / "run.json").read_bytes())
    log = read_log(src / "train_log.csv", 3)
    log[1]["eval_return_mean"] = float("nan")
    write_log(run / "train_log.csv", log, 3)
    _assert_exit_3_writes_nothing(["report", "--runs", str(run)],
                                  tmp_path / "out", capsys, "non-finite")


@pytest.fixture(scope="module")
def cli_acd(cli_runs, tmp_path_factory):
    root = tmp_path_factory.mktemp("acd")
    rc = main(["acd", "train", "--data", str(cli_runs / "ds" / "dataset.ckpt"),
               "--epochs", "2", "--batch", "4", "--seed", "1",
               "--out", str(root / "fit"), "--quiet"])
    assert rc == 0
    return root


def test_cli_acd_marl_trains_with_the_encoder(cli_acd, tmp_path):
    out = tmp_path / "run"
    rc = main(["train", "--env", "sk3-sp", "--trainer", "acd-marl",
               "--seeds", "0,1", *TINY, "--encoder",
               str(cli_acd / "fit" / "encoder.ckpt"), "--out", str(out),
               "--quiet"])
    assert rc == 0
    for seed in (0, 1):
        run = out / f"seed_{seed}"
        assert read_run(run)["trainer"] == "acd-marl"
        log = read_log(run / "train_log.csv", 3)
        assert [r["step"] for r in log] == [0, 120, 240]
    assert (out / "curve_win_rate.csv").exists()


def test_cli_acd_marl_refuses_an_encoder_of_another_env(cli_acd, tmp_path,
                                                       capsys):
    # sk3 has the node count, series length and features of sk3-sp
    out = tmp_path / "run"
    rc = main(["train", "--env", "sk3", "--trainer", "acd-marl",
               "--seeds", "0", *TINY, "--encoder",
               str(cli_acd / "fit" / "encoder.ckpt"), "--out", str(out),
               "--quiet"])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sk3-sp" in err, err
    assert not out.exists()


def _relabelled_encoder(path, fitted_on, label):
    """An untrained encoder sized for fitted_on's series, labelled as
    fitted on label."""
    from camarl.acd import AcdModel
    from camarl.envs import env_spec
    from camarl.nn.checkpoint import save_checkpoint

    spec = env_spec(fitted_on)
    model = AcdModel(spec.n_agents + 1, spec.episode_len, spec.obs_dim,
                     seed=0, enc_hidden=4, dec_hidden=4)
    save_checkpoint(path, model.params.state_arrays(),
                    {**model.meta(), "env_id": label, "sigma": 5e-3})
    return str(path)


def test_cli_refuses_an_encoder_that_does_not_fit_the_env(tmp_path, capsys):
    # pp's five nodes are not sk3's four; pp-sp's six nodes match sk5's,
    # but its 100-step series are not sk5's 70
    data = tmp_path / "sk3.ckpt"
    save_dataset(data, collect_dataset("sk3", 2, seed=3))
    model = _relabelled_encoder(tmp_path / "pp.ckpt", "pp", "sk3")
    _assert_exit_3_writes_nothing(
        ["acd", "eval", "--model", model, "--data", str(data)],
        tmp_path / "ev", capsys, "does not fit")
    model = _relabelled_encoder(tmp_path / "pp-sp.ckpt", "pp-sp", "sk5")
    _assert_exit_3_writes_nothing(
        ["train", "--env", "sk5", "--trainer", "acd-marl", *TINY,
         "--encoder", model, "--quiet"], tmp_path / "run", capsys,
        "does not fit")


@pytest.mark.parametrize("env_id", ["sk3", "sk5", "lj"])
def test_cli_collect_refuses_a_policy_of_another_env(cli_runs, tmp_path,
                                                     capsys, env_id):
    # the idql runs trained on sk3-sp; sk3 shares its shapes, sk5 and lj
    # do not
    out = tmp_path / "ds"
    rc = main(["collect", "--env", env_id, "--episodes", "1", "--policy",
               str(cli_runs / "idql" / "seed_0"), "--out", str(out)])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sk3-sp" in err, err
    assert not out.exists()


def test_cli_acd_eval_refuses_a_dataset_of_another_env(cli_acd, tmp_path,
                                                      capsys):
    data = tmp_path / "sk3.ckpt"
    save_dataset(data, collect_dataset("sk3", 2, seed=3))
    out = tmp_path / "ev"
    rc = main(["acd", "eval", "--model", str(cli_acd / "fit" / "encoder.ckpt"),
               "--data", str(data), "--out", str(out)])
    assert rc == 5
    assert "sk3-sp" in capsys.readouterr().err
    assert not out.exists()


def test_cli_acd_train_outputs(cli_acd):
    fit = cli_acd / "fit"
    assert (fit / "encoder.ckpt").exists()
    assert (fit / "accuracy.csv").exists()
    with open(fit / "acd_log.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    assert float(rows[0]["nll"]) > 0


def test_cli_acd_eval_confusion_closure(cli_runs, cli_acd, tmp_path, capsys):
    rc = main(["acd", "eval", "--model", str(cli_acd / "fit" / "encoder.ckpt"),
               "--data", str(cli_runs / "ds" / "dataset.ckpt"),
               "--out", str(tmp_path / "ev")])
    assert rc == 0
    with open(tmp_path / "ev" / "accuracy.csv") as f:
        row = next(csv.DictReader(f))
    total = (float(row["correct"]) + float(row["false_positive"])
             + float(row["false_negative"]))
    assert total == pytest.approx(100.0)
    out = capsys.readouterr().out
    assert "accuracy:" in out
    assert "baselines:" in out.splitlines()[-1]


def test_cli_accuracy_lines_print_nan_as_na(capsys):
    from camarl.harness.cli import _print_accuracy

    acc = {"correct": 100.0, "false_positive": 0.0, "false_negative": 0.0,
           "n_pairs": 8, "label_share": 100.0, "majority": 100.0,
           "balanced": float("nan"), "margin_auc": float("nan")}
    _print_accuracy("accuracy", acc)
    assert capsys.readouterr().out == (
        "accuracy: 100.0% correct, 0.0% FP, 0.0% FN over 8 pairs\n"
        "baselines: 100.0% 1-labels, majority 100.0%, balanced n/a, "
        "margin AUC n/a\n")
    _print_accuracy("accuracy", dict(acc, label_share=25.0, majority=75.0,
                                     balanced=62.5, margin_auc=0.875))
    assert capsys.readouterr().out.splitlines()[-1] == (
        "baselines: 25.0% 1-labels, majority 75.0%, balanced 62.5%, "
        "margin AUC 0.875")


def test_cli_acd_eval_torn_model_is_configuration_error(cli_runs, cli_acd,
                                                        tmp_path, capsys):
    raw = (cli_acd / "fit" / "encoder.ckpt").read_bytes()
    for cut in (4, 12, 30):
        torn = tmp_path / f"torn_{cut}.ckpt"
        torn.write_bytes(raw[:cut])
        rc = main(["acd", "eval", "--model", str(torn),
                   "--data", str(cli_runs / "ds" / "dataset.ckpt"),
                   "--out", str(tmp_path / f"ev_{cut}")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error:")


def test_cli_acd_eval_malformed_header_is_configuration_error(
        cli_runs, tmp_path, capsys):
    for i, header in enumerate([[], {"tensors": "x"}, {},
                                {"tensors": [{"name": "w"}]}]):
        blob = json.dumps(header).encode("utf-8")
        bad = tmp_path / f"bad_{i}.ckpt"
        bad.write_bytes(b"CMCK" + struct.pack("<IQ", 1, len(blob)) + blob)
        rc = main(["acd", "eval", "--model", str(bad),
                   "--data", str(cli_runs / "ds" / "dataset.ckpt"),
                   "--out", str(tmp_path / f"ev_{i}")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("edit, word", [
    (lambda m: m.update(n_nodes="4"), "n_nodes"),
    (lambda m: m.update(series_len=60.0), "series_len"),
    (lambda m: m.update(enc_hidden=0), "enc_hidden"),
    (lambda m: m.pop("env_id"), "env_id"),
], ids=["n-nodes-string", "series-len-float", "enc-hidden-0",
        "without-env-id"])
def test_cli_acd_eval_malformed_encoder_header_exits_typed(
        cli_runs, cli_acd, tmp_path, capsys, edit, word):
    # every header field load_acd reads is checked before the model is
    # built or compared with the dataset
    from camarl.nn.checkpoint import load_checkpoint, save_checkpoint

    arrays, meta = load_checkpoint(cli_acd / "fit" / "encoder.ckpt")
    edit(meta)
    model = tmp_path / "encoder.ckpt"
    save_checkpoint(model, arrays, meta)
    _assert_exit_3_writes_nothing(
        ["acd", "eval", "--model", str(model),
         "--data", str(cli_runs / "ds" / "dataset.ckpt")],
        tmp_path / "out", capsys, word)


# SHA-256 over the relative path and bytes of every file the CLI wrote
# for the fixtures above, one report and one acd eval; manifest.json
# carries a creation stamp and is left out.  Taken like test_golden.py's
# digests, with numpy 2.4.6, OpenBLAS 0.3.31 and Python 3.11.7.
CLI_ARTIFACTS = {
    "acd_eval":
        "96b7db51b51749b26add7b413772e765ebf17366cf6cf6abdfe8cdf5536dc6d6",
    "acd_train":
        "9e29c551e503aa07e25d57e136000c553bf213cd8940ab6651ca9d051e165903",
    "collect":
        "15c0144a8d57f7ca440e1487370cd8538cc47387e4973546a466cf0b3ec879ce",
    "report":
        "4228bc6b4ebc6043a05fcd8a3752a23886704b310e5cf706af4bf4d75eceea47",
    "train_icl":
        "c5de1fe4fd4d9e40b70c47476d00fc38ab38b512f12d229cd15ab9a4c8c3f4f2",
    "train_idql":
        "f5b2275a9b01e24219753d263549d59c99d4f955be46341c53b90d4b4e3d64cf",
}


@pytest.fixture(scope="module")
def cli_artifacts(cli_runs, cli_acd, tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    runs = [str(cli_runs / t / f"seed_{s}")
            for t in ("idql", "icl") for s in (0, 1)]
    assert main(["report", "--runs", *runs, "--out", str(root / "rep")]) == 0
    assert main(["acd", "eval", "--model",
                 str(cli_acd / "fit" / "encoder.ckpt"), "--data",
                 str(cli_runs / "ds" / "dataset.ckpt"),
                 "--out", str(root / "ev")]) == 0
    return {"acd_eval": root / "ev", "acd_train": cli_acd / "fit",
            "collect": cli_runs / "ds", "report": root / "rep",
            "train_icl": cli_runs / "icl", "train_idql": cli_runs / "idql"}


@pytest.mark.parametrize("name", sorted(CLI_ARTIFACTS))
def test_cli_artifact_digest(cli_artifacts, name):
    out = cli_artifacts[name]
    h = hashlib.sha256()
    for p in sorted(p for p in out.rglob("*")
                    if p.is_file() and p.name != "manifest.json"):
        h.update(p.relative_to(out).as_posix().encode() + b"\0"
                 + p.read_bytes() + b"\0")
    assert h.hexdigest() == CLI_ARTIFACTS[name], f"{name} files moved"


def test_cli_report(cli_runs, tmp_path, capsys):
    out = tmp_path / "rep"
    runs = [str(cli_runs / t / f"seed_{s}")
            for t in ("idql", "icl") for s in (0, 1)]
    rc = main(["report", "--runs", *runs, "--out", str(out)])
    assert rc == 0
    for name in ("curve_idql_eval_return_mean.csv",
                 "curve_icl_eval_return_mean.csv", "curve_eval_return_mean.svg",
                 "curve_win_rate.svg", "events_per_agent.svg",
                 "behaviour.csv", "balance.csv", "manifest.json"):
        assert (out / name).exists(), name
    with open(out / "balance.csv") as f:
        rows = {r["trainer"]: float(r["balance_index"])
                for r in csv.DictReader(f)}
    assert set(rows) == {"idql", "icl"}
    assert all(0.0 <= v <= 1.0 for v in rows.values())


@pytest.mark.parametrize("trainer", ["idql", "icl"])
def test_cli_train_curves_are_the_report_of_its_seeds(cli_runs, tmp_path,
                                                      trainer):
    # train charts its seeds through the same writer as a report over
    # them, so the two commands' curve files match byte for byte
    train_dir, out = cli_runs / trainer, tmp_path / "rep"
    runs = [str(train_dir / f"seed_{s}") for s in (0, 1)]
    assert main(["report", "--runs", *runs, "--out", str(out)]) == 0
    for metric in ("eval_return_mean", "win_rate"):
        svg = f"curve_{metric}.svg"
        assert (out / svg).read_bytes() == (train_dir / svg).read_bytes()
        assert ((out / f"curve_{trainer}_{metric}.csv").read_bytes()
                == (train_dir / f"curve_{metric}.csv").read_bytes())


def test_cli_report_idempotent(cli_runs, tmp_path):
    out = tmp_path / "rep"
    runs = [str(cli_runs / "idql" / "seed_0"), str(cli_runs / "idql" / "seed_1")]
    assert main(["report", "--runs", *runs, "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()
             if p.name != "manifest.json"}
    assert main(["report", "--runs", *runs, "--out", str(out)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()
              if p.name != "manifest.json"}
    assert first == second


@pytest.mark.filterwarnings("ignore:aggregating a single seed")
def test_cli_report_mismatched_grids(cli_runs, tmp_path, capsys):
    other = tmp_path / "other"
    rc = main(["train", "--env", "sk3-sp", "--trainer", "idql",
               "--seeds", "0", "--steps", "240", "--eval-interval", "80",
               "--out", str(other), "--quiet"])
    assert rc == 0
    rc = main(["report", "--runs", str(cli_runs / "idql" / "seed_0"),
               str(other / "seed_0"), "--out", str(tmp_path / "rep")])
    assert rc == 5
    assert "evaluation grids differ" in capsys.readouterr().err


def test_cli_report_refuses_a_repeated_run(cli_runs, tmp_path, capsys):
    # one run directory spelled two ways would count as two seeds
    run = cli_runs / "idql" / "seed_0"
    out = tmp_path / "rep"
    assert main(["report", "--runs", str(run), str(cli_runs / "icl" / "seed_1"),
                 str(run / ".." / "seed_0"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "--runs" in err and str(run) in err, err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:aggregating a single seed")
def test_cli_report_mixed_envs(cli_runs, tmp_path):
    other = tmp_path / "lj"
    rc = main(["train", "--env", "lj-sp", "--trainer", "idql", "--seeds", "0",
               *TINY, "--out", str(other), "--quiet"])
    assert rc == 0
    rc = main(["report", "--runs", str(cli_runs / "idql" / "seed_0"),
               str(other / "seed_0"), "--out", str(tmp_path / "rep")])
    assert rc == 5


def test_cli_rerun_train_byte_identical(cli_runs, tmp_path):
    redo = tmp_path / "redo"
    rc = main(["rerun", "--manifest", str(cli_runs / "idql"),
               "--out", str(redo), "--quiet"])
    assert rc == 0
    original = sorted(p for p in (cli_runs / "idql").rglob("*") if p.is_file()
                      and p.name != "manifest.json")
    for src in original:
        rel = src.relative_to(cli_runs / "idql")
        assert (redo / rel).read_bytes() == src.read_bytes(), rel


def test_cli_rerun_collect_byte_identical(cli_runs, tmp_path, capsys):
    redo = tmp_path / "ds2"
    rc = main(["rerun", "--manifest", str(cli_runs / "ds"),
               "--out", str(redo)])
    assert rc == 0
    assert (redo / "dataset.ckpt").read_bytes() == \
        (cli_runs / "ds" / "dataset.ckpt").read_bytes()


def test_cli_refuses_output_reuse(cli_runs, capsys):
    rc = main(["train", "--env", "sk3-sp", "--trainer", "idql",
               "--seeds", "0", *TINY, "--out", str(cli_runs / "idql")])
    assert rc == 2
    assert "already holds" in capsys.readouterr().err
