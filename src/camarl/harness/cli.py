"""Command-line entry point.

Every command writes its manifest into the output directory before any
other artifact, so each experiment can be reproduced later with
``camarl rerun --manifest <dir>``.  Error classes map to distinct exit
codes (usage 2, configuration 3, collection 4, incompatible inputs 5)
with a single-line reason on stderr.

Each parser destination but ``out`` and ``quiet`` is a manifest config
key, so a new setting of collect, acd or report is one ``add_argument``
plus one ``CONFIG_FIELDS`` entry with its check.  Train's config also
takes the preset rows of ``default_config``.
"""

import argparse
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from camarl.acd import (
    evaluate_accuracy, load_acd, load_dataset, make_bits_fn, save_dataset,
    train_acd)
from camarl.acd.dataset import collect_dataset
from camarl.envs import ENV_IDS, env_spec
from camarl.errors import (
    CollectionError, ConfigurationError, IncompatibleInputsError, UsageError)
from camarl.harness.defaults import default_config
from camarl.harness.manifest import (
    CONFIG_FIELDS, TRAIN_FIELDS, ExperimentManifest, distinct, new_manifest,
    read_manifest, seed_list, write_manifest)
from camarl.marl import (
    TRAINERS, TrainConfig, event_fields, load_learners, read_log, read_run,
    train)
from camarl.metrics import (
    aggregate_curves, balance_index, bar_chart, save_svg, write_curves)
from camarl.nn.checkpoint import write_csv

ACCURACY_FIELDS = ("correct", "false_positive", "false_negative", "n_pairs")


def _parse_seeds(text: str):
    try:
        seeds = [int(s) for s in text.split(",") if s != ""]
    except ValueError:
        seeds = None
    if not seed_list(seeds):
        raise UsageError(f"--seeds must list distinct non-negative integers, "
                         f"comma-separated: {text!r}")
    return seeds


def _non_negative(flag):
    """An argparse type: the flag's int, a UsageError if negative."""
    def non_negative_int(text):
        if int(text) < 0:
            raise UsageError(f"{flag} cannot be negative: {text}")
        return int(text)
    return non_negative_int


def _abs(path):
    # manifests must reproduce the experiment from any directory
    return str(Path(path).resolve())


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="camarl",
        description="causality-masked multi-agent RL laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train independent Q-learners")
    t.add_argument("--env", required=True, choices=ENV_IDS)
    t.add_argument("--trainer", required=True, choices=TRAINERS)
    t.add_argument("--seeds", default="0")
    t.add_argument("--steps", type=int, default=None,
                   help="override total environment steps")
    t.add_argument("--eval-interval", type=int, default=None)
    t.add_argument("--out", required=True)
    t.add_argument("--encoder", default=None,
                   help="trained edge-model checkpoint (acd-marl only)")
    t.add_argument("--strict-mask", action="store_true",
                   help="mask negative rewards too")
    t.add_argument("--paper-scale", action="store_true",
                   help="published horizons instead of desk scale")
    t.add_argument("--quiet", action="store_true")

    c = sub.add_parser("collect", help="collect winning episodes")
    c.add_argument("--env", dest="env_id", required=True, choices=ENV_IDS)
    c.add_argument("--policy", default="scripted",
                   type=lambda p: p if p == "scripted" else _abs(p),
                   help="'scripted' or a trained run directory")
    c.add_argument("--episodes", type=_non_negative("--episodes"),
                   required=True)
    c.add_argument("--seed", type=_non_negative("--seed"), default=0)
    c.add_argument("--lazy-prob", type=float, default=0.5)
    c.add_argument("--out", required=True)

    a = sub.add_parser("acd", help="amortized causal discovery")
    asub = a.add_subparsers(dest="acd_command", required=True)
    at = asub.add_parser("train", help="fit the edge model on a dataset")
    at.add_argument("--data", type=_abs, required=True)
    at.add_argument("--epochs", type=int, default=150)
    at.add_argument("--batch", type=int, default=128)
    at.add_argument("--sigma", type=float, default=None)
    at.add_argument("--seed", type=_non_negative("--seed"), default=0)
    at.add_argument("--train-frac", type=float, default=0.8)
    at.add_argument("--out", required=True)
    at.add_argument("--quiet", action="store_true")
    ae = asub.add_parser("eval", help="score a trained edge model")
    ae.add_argument("--model", type=_abs, required=True)
    ae.add_argument("--data", type=_abs, required=True)
    ae.add_argument("--out", required=True)

    r = sub.add_parser("report", help="aggregate finished runs")
    r.add_argument("--runs", type=_abs, nargs="+", required=True)
    r.add_argument("--out", required=True)

    rr = sub.add_parser("rerun", help="reproduce an experiment")
    rr.add_argument("--manifest", required=True)
    rr.add_argument("--out", required=True)
    rr.add_argument("--quiet", action="store_true")
    return p


# -- executors ----------------------------------------------------------------
# Each takes a validated manifest and materializes the experiment in
# out_dir; rerun feeds stored manifests through the same paths.

def _exec_train(manifest: ExperimentManifest, out_dir: Path, quiet: bool):
    cfg = manifest.config
    config = TrainConfig(**{k: cfg[k] for k in TRAIN_FIELDS}).validate()
    bits_fn = None
    if config.trainer == "acd-marl":
        if not cfg["encoder"]:
            raise UsageError("trainer acd-marl needs --encoder "
                             "(a trained edge-model checkpoint)")
        bits_fn = make_bits_fn(_load_encoder(cfg["encoder"], config.env_id),
                               config.env_id)
    elif cfg["encoder"]:
        raise UsageError("--encoder only applies to the acd-marl trainer")
    write_manifest(out_dir, manifest)

    logs = []
    for seed in manifest.seeds:
        run_cfg = replace(config, seed=int(seed))

        def progress(row):
            if not quiet:
                print(f"[seed {seed}] step {row['step']} "
                      f"return {row['eval_return_mean']:.3f} "
                      f"win {row['win_rate']:.2f} eps {row['epsilon']:.3f}")

        result = train(run_cfg, bits_fn=bits_fn,
                       out_dir=out_dir / f"seed_{seed}", progress=progress)
        logs.append(result.rows)
    write_curves(out_dir, config.env_id, {config.trainer: logs},
                 "curve_{metric}.csv")
    if not quiet:
        final = aggregate_curves(logs, "eval_return_mean")[-1]
        print(f"finished {len(manifest.seeds)} seeds; final return "
              f"{final.mean:.3f} +- {final.ci95:.3f}")
    return 0


def _exec_collect(manifest: ExperimentManifest, out_dir: Path, quiet: bool):
    cfg = manifest.config
    learners = None
    if cfg["policy"] != "scripted":
        _check_env("the policy was trained",
                   read_run(cfg["policy"])["env_id"], cfg["env_id"])
        learners = load_learners(cfg["policy"])
    write_manifest(out_dir, manifest)
    stats = {}
    samples = collect_dataset(
        cfg["env_id"], cfg["episodes"], seed=cfg["seed"],
        learners=learners, lazy_prob=cfg["lazy_prob"], stats=stats)
    save_dataset(out_dir / "dataset.ckpt", samples)
    rate = stats["wins"] / max(stats["attempts"], 1)
    print(f"collected {len(samples)} winning episodes from "
          f"{stats['attempts']} attempts (win rate {rate:.2f})")
    bits = np.stack([s.bits for s in samples])
    print("1-labels per agent: "
          + ", ".join(f"{share:.1f}%" for share in 100.0 * bits.mean(axis=0)))
    if bits.min() == bits.max():
        print(f"warning: every label in the dataset is {bits[0, 0]}, so "
              f"accuracy on it cannot beat the majority baseline",
              file=sys.stderr)
    return 0


def _exec_acd_train(manifest: ExperimentManifest, out_dir: Path, quiet: bool):
    from camarl.acd.dataset import split_dataset

    cfg = manifest.config
    samples = load_dataset(cfg["data"])
    train_split, held = split_dataset(samples, cfg["train_frac"],
                                      seed=cfg["seed"])
    write_manifest(out_dir, manifest)

    def progress(row):
        if not quiet:
            print(f"epoch {row['epoch']} nll {row['nll']:.4f} "
                  f"kl {row['kl']:.6f}")

    result = train_acd(
        train_split, epochs=cfg["epochs"], batch_size=cfg["batch"],
        sigma=cfg["sigma"], seed=cfg["seed"], out_dir=out_dir,
        progress=progress)
    acc = evaluate_accuracy(result.model, held)
    _write_accuracy(out_dir / "accuracy.csv", acc)
    _print_accuracy("held-out accuracy", acc)
    return 0


def _exec_acd_eval(manifest: ExperimentManifest, out_dir: Path, quiet: bool):
    cfg = manifest.config
    samples = load_dataset(cfg["data"])
    model = _load_encoder(cfg["model"], samples[0].env_id)
    write_manifest(out_dir, manifest)
    acc = evaluate_accuracy(model, samples)
    _write_accuracy(out_dir / "accuracy.csv", acc)
    _print_accuracy("accuracy", acc)
    return 0


def _load_encoder(path, env_id):
    """The edge model in path, refused unless fitted on env_id's series."""
    model, meta = load_acd(path)
    _check_env("the encoder was fitted", meta["env_id"], env_id)
    spec = env_spec(env_id)
    if (model.n_nodes, model.series_len, model.feat_dim) != (
            spec.n_agents + 1, spec.episode_len, spec.obs_dim):
        raise ConfigurationError(f"{path} does not fit {env_id}'s series")
    return model


def _check_env(made, made_on, env_id):
    """Refuse an artifact made on another env than env_id."""
    if made_on != env_id:
        raise IncompatibleInputsError(f"{made} on {made_on}, not on {env_id}")


def _write_accuracy(path, acc):
    write_csv(path, ACCURACY_FIELDS, [[acc[k] for k in ACCURACY_FIELDS]])


def _print_accuracy(label, acc):
    balanced, auc = acc["balanced"], acc["margin_auc"]
    print(f"{label}: {acc['correct']:.1f}% correct, "
          f"{acc['false_positive']:.1f}% FP, {acc['false_negative']:.1f}% FN "
          f"over {acc['n_pairs']} pairs")
    print(f"baselines: {acc['label_share']:.1f}% 1-labels, majority "
          f"{acc['majority']:.1f}%, balanced "
          + ("n/a" if math.isnan(balanced) else f"{balanced:.1f}%")
          + ", margin AUC " + ("n/a" if math.isnan(auc) else f"{auc:.3f}"))


def _exec_report(manifest: ExperimentManifest, out_dir: Path, quiet: bool):
    cfg = manifest.config
    runs = [(Path(d), read_run(d)) for d in cfg["runs"]]
    env_ids = sorted({m["env_id"] for _, m in runs})
    if len(env_ids) > 1:
        raise IncompatibleInputsError(
            f"runs mix environments: {', '.join(env_ids)}")
    events = event_fields(env_spec(env_ids[0]).n_agents)
    logs = {d: read_log(d / "train_log.csv", len(events)) for d, _ in runs}
    grids = {str(d): tuple(r["step"] for r in log) for d, log in logs.items()}
    if len(set(grids.values())) > 1:
        first = min(grids.values())
        raise IncompatibleInputsError(
            "evaluation grids differ across runs: "
            + ", ".join(sorted(d for d, g in grids.items() if g != first)))
    groups = {}   # trainer -> seed logs, trainers in sorted order
    for run_dir, meta in sorted(runs, key=lambda run: run[1]["trainer"]):
        groups.setdefault(meta["trainer"], []).append(logs[run_dir])
    # report regeneration over the same inputs is idempotent, so an
    # existing manifest in the output directory is replaced
    write_manifest(out_dir, manifest, overwrite=True)

    write_curves(out_dir, env_ids[0], groups, "curve_{label}_{metric}.csv")
    bars = {}
    balance_rows = []
    for label, group in groups.items():
        finals = [[log[-1][k] for k in events] for log in group]
        mean_events = [sum(col) / len(col) for col in zip(*finals)]
        bars[label] = mean_events
        balance_rows.append((label, balance_index(mean_events)))
    save_svg(out_dir / "events_per_agent.svg",
             bar_chart(bars, title=f"{env_ids[0]} final event counts",
                       ylabel="events per evaluation episode"))
    write_csv(out_dir / "behaviour.csv", ["trainer"] + events,
              ([label] + bars[label] for label, _ in balance_rows))
    write_csv(out_dir / "balance.csv", ["trainer", "balance_index"],
              balance_rows)
    if not quiet:
        for label, idx in balance_rows:
            print(f"{label}: balance index {idx:.3f}")
    return 0


_EXECUTORS = {
    "train": _exec_train,
    "collect": _exec_collect,
    "acd-train": _exec_acd_train,
    "acd-eval": _exec_acd_eval,
    "report": _exec_report,
}


def execute(manifest: ExperimentManifest, out_dir, quiet: bool = True) -> int:
    return _EXECUTORS[manifest.validate().kind](manifest, Path(out_dir),
                                                quiet)


# -- argument translation -----------------------------------------------------

def _manifest_from_args(args) -> ExperimentManifest:
    if args.command == "train":
        config = asdict(default_config(
            args.env, args.trainer, paper_scale=args.paper_scale,
            total_steps=args.steps, eval_interval=args.eval_interval,
            strict_mask=args.strict_mask))
        del config["seed"]
        config["encoder"] = _abs(args.encoder) if args.encoder else None
        name = f"train-{args.env}-{args.trainer}"
        return new_manifest(name, "train", config, _parse_seeds(args.seeds))
    kind = f"acd-{args.acd_command}" if args.command == "acd" else args.command
    if kind == "report" and not distinct(args.runs):
        raise UsageError("--runs must list distinct run directories: "
                         + ", ".join(sorted({d for d in args.runs
                                             if args.runs.count(d) > 1})))
    name = f"collect-{args.env_id}" if kind == "collect" else kind
    return new_manifest(name, kind,
                        {k: getattr(args, k) for k in CONFIG_FIELDS[kind]}, [])


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        manifest = (read_manifest(args.manifest) if args.command == "rerun"
                    else _manifest_from_args(args))
        return execute(manifest, args.out, getattr(args, "quiet", False))
    except (UsageError, ConfigurationError, CollectionError,
            IncompatibleInputsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
