"""Command-line entry point.

Every command writes its manifest into the output directory before any
other artifact, so each experiment can be reproduced later with
``camarl rerun --manifest <dir>``.  Error classes map to distinct exit
codes (usage 2, configuration 3, collection 4, incompatible inputs 5)
with a single-line reason on stderr.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from camarl.acd import (
    evaluate_accuracy, load_acd, load_dataset, make_bits_fn, save_dataset,
    sigma_for, train_acd)
from camarl.acd.dataset import collect_dataset
from camarl.envs import ENV_IDS
from camarl.errors import (
    CollectionError, ConfigurationError, IncompatibleInputsError, UsageError)
from camarl.harness.defaults import config_dict, default_config
from camarl.harness.manifest import (
    ExperimentManifest, new_manifest, read_manifest, write_manifest)
from camarl.marl import TRAINERS, TrainConfig, load_learners, train
from camarl.metrics import (
    aggregate_curves, balance_index, bar_chart, line_chart, read_log,
    save_svg, write_curve)
from camarl.nn.checkpoint import read_json, write_csv

TRAIN_KEYS = tuple(TrainConfig.__dataclass_fields__)
ACCURACY_FIELDS = ("correct", "false_positive", "false_negative", "n_pairs")


def _check_seed(seed: int) -> int:
    if seed < 0:
        raise UsageError(f"seeds cannot be negative: {seed}")
    return seed


def _parse_seeds(text: str):
    try:
        seeds = [int(s) for s in text.split(",") if s != ""]
    except ValueError:
        raise UsageError(f"seeds must be comma-separated integers: {text!r}")
    if not seeds:
        raise UsageError("--seeds needs at least one seed")
    if len(set(seeds)) < len(seeds):
        raise UsageError(f"--seeds repeats a seed: {text!r}")
    return [_check_seed(s) for s in seeds]


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
    c.add_argument("--env", required=True, choices=ENV_IDS)
    c.add_argument("--policy", default="scripted",
                   help="'scripted' or a trained run directory")
    c.add_argument("--episodes", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--lazy-prob", type=float, default=0.5)
    c.add_argument("--out", required=True)

    a = sub.add_parser("acd", help="amortized causal discovery")
    asub = a.add_subparsers(dest="acd_command", required=True)
    at = asub.add_parser("train", help="fit the edge model on a dataset")
    at.add_argument("--data", required=True)
    at.add_argument("--epochs", type=int, default=150)
    at.add_argument("--batch", type=int, default=128)
    at.add_argument("--sigma", type=float, default=None)
    at.add_argument("--seed", type=int, default=0)
    at.add_argument("--train-frac", type=float, default=0.8)
    at.add_argument("--out", required=True)
    at.add_argument("--quiet", action="store_true")
    ae = asub.add_parser("eval", help="score a trained edge model")
    ae.add_argument("--model", required=True)
    ae.add_argument("--data", required=True)
    ae.add_argument("--out", required=True)

    r = sub.add_parser("report", help="aggregate finished runs")
    r.add_argument("--runs", nargs="+", required=True)
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
    bits_fn = None
    if cfg["trainer"] == "acd-marl":
        encoder = cfg.get("encoder")
        if not encoder:
            raise UsageError("trainer acd-marl needs --encoder "
                             "(a trained edge-model checkpoint)")
        model, _ = load_acd(encoder)
        bits_fn = make_bits_fn(model, cfg["env_id"])
    base = {k: v for k, v in cfg.items() if k in TRAIN_KEYS and k != "seed"}
    config = TrainConfig(**base).validate()
    write_manifest(out_dir, manifest)

    logs = []
    for seed in manifest.seeds:
        run_cfg = replace(config, seed=int(seed))

        def progress(row, _seed=seed):
            if not quiet:
                print(f"[seed {_seed}] step {row['step']} "
                      f"return {row['eval_return_mean']:.3f} "
                      f"win {row['win_rate']:.2f} eps {row['epsilon']:.3f}")

        result = train(run_cfg, bits_fn=bits_fn,
                       out_dir=out_dir / f"seed_{seed}", progress=progress)
        logs.append(result.rows)
    for metric in ("eval_return_mean", "win_rate"):
        points = aggregate_curves(logs, metric)
        write_curve(out_dir / f"curve_{metric}.csv", points)
        save_svg(out_dir / f"curve_{metric}.svg",
                 line_chart({cfg["trainer"]: points},
                            title=f"{cfg['env_id']} {metric}",
                            xlabel="environment steps", ylabel=metric))
    if not quiet:
        final = aggregate_curves(logs, "eval_return_mean")[-1]
        print(f"finished {len(manifest.seeds)} seeds; final return "
              f"{final.mean:.3f} +- {final.ci95:.3f}")
    return 0


def _exec_collect(manifest: ExperimentManifest, out_dir: Path, quiet: bool):
    cfg = manifest.config
    learners = None
    if cfg["policy"] != "scripted":
        learners, _ = load_learners(cfg["policy"])
    write_manifest(out_dir, manifest)
    stats = {}
    samples = collect_dataset(
        cfg["env_id"], cfg["episodes"], seed=cfg["seed"],
        learners=learners, lazy_prob=cfg["lazy_prob"], stats=stats)
    save_dataset(out_dir / "dataset.ckpt", samples)
    rate = stats["wins"] / max(stats["attempts"], 1)
    print(f"collected {len(samples)} winning episodes from "
          f"{stats['attempts']} attempts (win rate {rate:.2f})")
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
    print(f"held-out accuracy: {acc['correct']:.1f}% correct, "
          f"{acc['false_positive']:.1f}% FP, "
          f"{acc['false_negative']:.1f}% FN over {acc['n_pairs']} pairs")
    return 0


def _exec_acd_eval(manifest: ExperimentManifest, out_dir: Path, quiet: bool):
    cfg = manifest.config
    model, meta = load_acd(cfg["model"])
    samples = load_dataset(cfg["data"])
    if samples and meta.get("env_id") and samples[0].env_id != meta["env_id"]:
        raise IncompatibleInputsError(
            f"model was trained on {meta['env_id']} but the dataset holds "
            f"{samples[0].env_id}")
    write_manifest(out_dir, manifest)
    acc = evaluate_accuracy(model, samples)
    _write_accuracy(out_dir / "accuracy.csv", acc)
    print(f"accuracy: {acc['correct']:.1f}% correct, "
          f"{acc['false_positive']:.1f}% FP, {acc['false_negative']:.1f}% FN "
          f"over {acc['n_pairs']} pairs")
    return 0


def _write_accuracy(path, acc):
    write_csv(path, ACCURACY_FIELDS, [[acc[k] for k in ACCURACY_FIELDS]])


def _exec_report(manifest: ExperimentManifest, out_dir: Path, quiet: bool):
    cfg = manifest.config
    runs = [(Path(d), read_json(Path(d) / "run.json")) for d in cfg["runs"]]
    env_ids = sorted({m["env_id"] for _, m in runs})
    if len(env_ids) > 1:
        raise IncompatibleInputsError(
            f"runs mix environments: {', '.join(env_ids)}")
    groups = {}
    for run_dir, meta in runs:
        groups.setdefault(meta["trainer"], []).append(
            (run_dir, read_log(run_dir / "train_log.csv")))
    grids = {label: [tuple(r["step"] for r in log) for _, log in pairs]
             for label, pairs in groups.items()}
    flat = {g for gs in grids.values() for g in gs}
    if len(flat) > 1:
        bad = [str(d) for label, pairs in groups.items()
               for d, log in pairs
               if tuple(r["step"] for r in log) != min(flat)]
        raise IncompatibleInputsError(
            "evaluation grids differ across runs: " + ", ".join(sorted(bad)))
    # report regeneration over the same inputs is idempotent, so an
    # existing manifest in the output directory is replaced
    write_manifest(out_dir, manifest, overwrite=True)

    n_agents = max(int(k.rsplit("_", 1)[1])
                   for _, pairs in groups.items()
                   for _, log in pairs for k in log[0]
                   if k.startswith("event_count_agent_")) + 1
    for metric in ("eval_return_mean", "win_rate"):
        series = {}
        for label, pairs in sorted(groups.items()):
            points = aggregate_curves([log for _, log in pairs], metric)
            write_curve(out_dir / f"curve_{label}_{metric}.csv", points)
            series[label] = points
        save_svg(out_dir / f"curve_{metric}.svg",
                 line_chart(series, title=f"{env_ids[0]} {metric}",
                            xlabel="environment steps", ylabel=metric))
    bars = {}
    balance_rows = []
    for label, pairs in sorted(groups.items()):
        finals = [[log[-1][f"event_count_agent_{i}"] for i in range(n_agents)]
                  for _, log in pairs]
        mean_events = [sum(col) / len(col) for col in zip(*finals)]
        bars[label] = mean_events
        balance_rows.append((label, balance_index(mean_events)))
    save_svg(out_dir / "events_per_agent.svg",
             bar_chart(bars, title=f"{env_ids[0]} final event counts",
                       ylabel="events per evaluation episode"))
    header = ["trainer"] + [f"event_count_agent_{i}" for i in range(n_agents)]
    write_csv(out_dir / "behaviour.csv", header,
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

def _abs(path):
    # manifests must reproduce the experiment from any directory
    return str(Path(path).resolve())


def _manifest_from_args(args) -> ExperimentManifest:
    if args.command == "train":
        if args.encoder and args.trainer != "acd-marl":
            raise UsageError("--encoder only applies to the acd-marl trainer")
        config = config_dict(default_config(
            args.env, args.trainer, paper_scale=args.paper_scale,
            total_steps=args.steps, eval_interval=args.eval_interval,
            strict_mask=args.strict_mask or None))
        del config["seed"]
        config["strict_mask"] = bool(args.strict_mask)
        config["encoder"] = _abs(args.encoder) if args.encoder else None
        config["paper_scale"] = bool(args.paper_scale)
        name = f"train-{args.env}-{args.trainer}"
        return new_manifest(name, "train", config, _parse_seeds(args.seeds))
    if args.command == "collect":
        if args.episodes < 0:
            raise UsageError("--episodes cannot be negative")
        policy = args.policy if args.policy == "scripted" \
            else _abs(args.policy)
        config = dict(env_id=args.env, policy=policy,
                      episodes=args.episodes, seed=_check_seed(args.seed),
                      lazy_prob=args.lazy_prob)
        return new_manifest(f"collect-{args.env}", "collect", config, [])
    if args.command == "acd":
        if args.acd_command == "train":
            config = dict(data=_abs(args.data), epochs=args.epochs,
                          batch=args.batch, sigma=args.sigma,
                          seed=_check_seed(args.seed),
                          train_frac=args.train_frac)
            return new_manifest("acd-train", "acd-train", config, [])
        config = dict(model=_abs(args.model), data=_abs(args.data))
        return new_manifest("acd-eval", "acd-eval", config, [])
    if args.command == "report":
        if not args.runs:
            raise UsageError("report needs at least one run directory")
        return new_manifest("report", "report",
                            dict(runs=[_abs(r) for r in args.runs]), [])
    raise UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    quiet = bool(getattr(args, "quiet", False))
    try:
        if args.command == "rerun":
            manifest = read_manifest(args.manifest)
            return execute(manifest, args.out, quiet)
        manifest = _manifest_from_args(args)
        return execute(manifest, args.out, quiet)
    except (UsageError, ConfigurationError, CollectionError,
            IncompatibleInputsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
