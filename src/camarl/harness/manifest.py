"""Experiment manifests.

A manifest freezes everything that determines an experiment's outputs:
the command kind, the full configuration, and the seed list.  It is
written into the output directory before any work starts, so no output
can exist without its manifest, and a finished experiment can be rerun
from the manifest alone.  The created-at stamp documents provenance and
is the one field excluded from byte-identity guarantees.
"""

from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import camarl
from camarl.errors import ConfigurationError, UsageError
from camarl.nn.checkpoint import read_json, write_json

MANIFEST_NAME = "manifest.json"
KINDS = ("train", "collect", "acd-train", "acd-eval", "report")


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
        if not isinstance(self.seeds, list):
            raise ConfigurationError("seeds must be a list")
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
    raw = read_json(path)
    fields = {k: raw[k] for k in
              ("name", "kind", "config", "seeds", "created_at",
               "substrate_version") if k in raw}
    missing = {"name", "kind", "config", "seeds"} - set(fields)
    if missing:
        raise ConfigurationError(
            f"{path} lacks manifest fields: {sorted(missing)}")
    return ExperimentManifest(**fields).validate()
