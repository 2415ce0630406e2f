"""Manifest discipline, scale presets, and the CLI surface."""

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from camarl.acd import (
    SeriesSample, collect_dataset, load_dataset, save_dataset, train_acd)
from camarl.errors import (
    CollectionError, ConfigurationError, IncompatibleInputsError, UsageError)
from camarl.harness import (
    default_config, new_manifest, read_manifest, write_manifest)
from camarl.harness.cli import main
from camarl.metrics import read_log


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


# ---------------------------------------------------------------- manifests

def test_manifest_roundtrip(tmp_path):
    m = new_manifest("exp", "train", {"env_id": "pp"}, [0, 1])
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
        new_manifest("", "train", {}, [])


def test_manifest_refuses_reuse(tmp_path):
    m = new_manifest("exp", "report", {}, [])
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
                     bits=np.zeros(4, dtype=np.uint8))
    b = SeriesSample(x=np.zeros((5, 100, 53)), env_id="lj-sp",
                     bits=np.zeros(4, dtype=np.uint8))
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
    logs = [read_log(out / f"seed_{s}" / "train_log.csv") for s in (0, 1)]
    # shared evaluation grid: scheduled checkpoints, then the horizon
    for log in logs:
        assert [r["step"] for r in log] == [0, 120, 240]


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


def test_cli_encoder_rejected_for_idql(tmp_path):
    rc = main(["train", "--env", "sk3-sp", "--trainer", "idql",
               "--seeds", "0", "--encoder", "whatever.ckpt",
               "--out", str(tmp_path / "x")])
    assert rc == 2


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
], ids=["acd-train-missing-data", "acd-eval-missing-model",
        "train-missing-encoder", "collect-policy-without-run",
        "report-without-run", "acd-eval-dataset-as-model",
        "train-dataset-as-encoder", "collect-policy-torn-run",
        "report-torn-run"])
def test_cli_unreadable_inputs_exit_typed(cli_runs, tmp_path, capsys, argv,
                                          code):
    # 2 for a file that cannot be opened, 3 for one of the wrong kind;
    # either way before the output directory is made
    (tmp_path / "empty").mkdir()
    (tmp_path / "torn").mkdir()
    (tmp_path / "torn" / "run.json").write_text('{"env_id": "sk')
    paths = {"MISSING": tmp_path / "missing.ckpt",
             "DATA": cli_runs / "ds" / "dataset.ckpt",
             "EMPTY": tmp_path / "empty", "TORN": tmp_path / "torn"}
    out = tmp_path / "out"
    argv = [str(paths[a]) if a in paths else a for a in argv]
    assert main([*argv, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.fixture(scope="module")
def cli_acd(cli_runs, tmp_path_factory):
    root = tmp_path_factory.mktemp("acd")
    rc = main(["acd", "train", "--data", str(cli_runs / "ds" / "dataset.ckpt"),
               "--epochs", "2", "--batch", "4", "--seed", "1",
               "--out", str(root / "fit"), "--quiet"])
    assert rc == 0
    return root


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
    assert "accuracy:" in capsys.readouterr().out


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


# SHA-256 over the relative path and bytes of every file the CLI wrote
# for the fixtures above, one report and one acd eval; manifest.json
# carries a creation stamp and is left out.  Taken like test_golden.py's
# digests, with numpy 2.4.6, OpenBLAS 0.3.31 and Python 3.11.7.
CLI_ARTIFACTS = {
    "acd_eval":
        "96b7db51b51749b26add7b413772e765ebf17366cf6cf6abdfe8cdf5536dc6d6",
    "acd_train":
        "8a40380ae073af61b573e8da9503e450cf28a2054129c6d57c6e62280d97de85",
    "collect":
        "15c0144a8d57f7ca440e1487370cd8538cc47387e4973546a466cf0b3ec879ce",
    "report":
        "4228bc6b4ebc6043a05fcd8a3752a23886704b310e5cf706af4bf4d75eceea47",
    "train_icl":
        "e4fd7716f723306f3204ac9e2706fec15ab074cf76528e59a343bf26b757f28d",
    "train_idql":
        "74de6fd530593e7cd24453c81c361ace08d354f37963308661668cd838a84f57",
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
