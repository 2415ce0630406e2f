"""Experiment orchestration: manifests and scale presets.

``camarl.harness.cli`` is not imported here, so ``python -m`` runs it once.
"""

from camarl.harness.defaults import DESK, PAPER, config_dict, default_config
from camarl.harness.manifest import (
    ExperimentManifest, new_manifest, read_manifest, write_manifest)

__all__ = [
    "DESK", "PAPER", "ExperimentManifest", "config_dict", "default_config",
    "new_manifest", "read_manifest", "write_manifest",
]
