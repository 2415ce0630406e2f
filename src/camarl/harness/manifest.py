"""Experiment manifests.

A manifest freezes everything that determines an experiment's outputs:
the command kind, the full configuration, and the seed list.  It is
written into the output directory before any work starts, so no output
can exist without its manifest, and a finished experiment can be rerun
from the manifest alone.  The created-at stamp documents provenance and
is the one field excluded from byte-identity guarantees.
"""

from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import camarl
from camarl.errors import ConfigurationError, UsageError
from camarl.marl import TrainConfig
from camarl.nn.checkpoint import (
    check_fields, count, is_str, number, read_json, strings, write_json)

MANIFEST_NAME = "manifest.json"

# a train config's TrainConfig fields, in field order; the seeds are the
# manifest's own
TRAIN_FIELDS = tuple(f.name for f in fields(TrainConfig) if f.name != "seed")

# the config keys each kind's executor reads, and no others, each with
# the check its value must pass before anything is written;
# TrainConfig.validate checks the values of TRAIN_FIELDS
CONFIG_FIELDS = {
    "train": {**dict.fromkeys(TRAIN_FIELDS, lambda v: True),
              "encoder": lambda v: v is None or is_str(v)},
    "collect": {"env_id": is_str, "policy": is_str, "episodes": count(1),
                "seed": count(0),
                "lazy_prob": lambda v: number(v) and 0 <= v <= 1},
    "acd-train": {"data": is_str, "epochs": count(1), "batch": count(1),
                  "sigma": lambda v: v is None or number(v) and v > 0,
                  "seed": count(0),
                  "train_frac": lambda v: number(v) and 0 < v < 1},
    "acd-eval": {"model": is_str, "data": is_str},
    "report": {"runs": lambda v: strings(v) and distinct(v)},
}
KINDS = tuple(CONFIG_FIELDS)


def distinct(v):
    """Whether no item of the list v repeats."""
    return len(set(v)) == len(v)


def seed_list(v):
    """Whether v is a non-empty list of distinct non-negative ints."""
    return (type(v) is list and len(v) > 0 and all(map(count(0), v))
            and distinct(v))


@dataclass
class ExperimentManifest:
    name: str
    kind: str
    config: dict
    seeds: list
    created_at: str = ""
    substrate_version: str = ""

    def validate(self):
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown experiment kind {self.kind!r}; choose from {KINDS}")
        if not self.name:
            raise ConfigurationError("experiment name cannot be empty")
        if not isinstance(self.config, dict):
            raise ConfigurationError("manifest config must be an object")
        checks = CONFIG_FIELDS[self.kind]
        what = f"{self.kind} manifest config"
        check_fields(self.config, checks, what)
        unknown = [k for k in self.config if k not in checks]
        if unknown:
            raise ConfigurationError(f"{what} has unknown {', '.join(unknown)}")
        if not (seed_list(self.seeds) if self.kind == "train"
                else self.seeds == []):
            raise ConfigurationError(
                f"{self.kind} manifest has invalid seeds {self.seeds!r}; only "
                f"train takes seeds, distinct non-negative integers")
        return self


def new_manifest(name: str, kind: str, config: dict,
                 seeds=()) -> ExperimentManifest:
    return ExperimentManifest(
        name=name, kind=kind, config=dict(config), seeds=list(seeds),
        created_at=datetime.now(timezone.utc).isoformat(),
        substrate_version=camarl.SUBSTRATE_VERSION).validate()


def write_manifest(out_dir, manifest: ExperimentManifest,
                   overwrite: bool = False) -> Path:
    """Create the experiment directory and record the manifest first.

    Refuses a directory that already holds an experiment, keeping one
    output directory per experiment; pure-report regeneration may opt
    into overwriting.
    """
    out_dir = Path(out_dir)
    path = out_dir / MANIFEST_NAME
    if path.exists() and not overwrite:
        raise UsageError(
            f"{out_dir} already holds an experiment manifest; "
            f"pick a fresh output directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(path, asdict(manifest.validate()))
    return path


def read_manifest(path) -> ExperimentManifest:
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    raw = check_fields(read_json(path), dict.fromkeys(
        ("name", "kind", "config", "seeds"), lambda v: True), path)
    return ExperimentManifest(**{f.name: raw[f.name] for f in fields(
        ExperimentManifest) if f.name in raw}).validate()
