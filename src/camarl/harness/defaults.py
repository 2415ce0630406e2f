"""Experiment scale presets, one row per task; a sparse ``-sp`` id
shares the row of its dense task.

Desk scale shrinks the training horizons so a full study fits on a
single workstation core; exploration anneals over roughly the first 60%
of each run's episodes, and evaluation lands ~20 points per curve.
Paper scale restores the published horizons (2M steps for the combat
tasks, 10k-step evaluation cycles) and keeps ``TrainConfig``'s own
defaults for the rest: 20 evaluation episodes, a 50k-episode anneal,
target syncs every 200 episodes and batches of 32.
"""

from camarl.envs import env_spec
from camarl.errors import ConfigurationError
from camarl.marl import TrainConfig

DESK = {
    "pp":  dict(total_steps=200_000, eval_interval=10_000, anneal=1000),
    "lj":  dict(total_steps=200_000, eval_interval=10_000, anneal=800),
    "sk3": dict(total_steps=60_000, eval_interval=3_000, anneal=700),
    "sk5": dict(total_steps=120_000, eval_interval=6_000, anneal=1200),
}

PAPER = {
    "pp":  dict(total_steps=1_000_000, eval_interval=10_000),
    "lj":  dict(total_steps=1_000_000, eval_interval=10_000),
    "sk3": dict(total_steps=2_000_000, eval_interval=2_500),
    "sk5": dict(total_steps=2_000_000, eval_interval=10_000),
}

DESK_BATCH = 8
DESK_TARGET_SYNC = 20


def default_config(env_id: str, trainer: str, seed: int = 0,
                   paper_scale: bool = False, **overrides) -> TrainConfig:
    """Build a TrainConfig from the preset tables plus explicit overrides."""
    env_spec(env_id)
    row = (PAPER if paper_scale else DESK)[env_id.removesuffix("-sp")]
    kwargs = dict(env_id=env_id, trainer=trainer, seed=seed,
                  total_steps=row["total_steps"],
                  eval_interval=row["eval_interval"])
    if not paper_scale:
        kwargs.update(epsilon_anneal_episodes=row["anneal"],
                      target_sync=DESK_TARGET_SYNC, batch_size=DESK_BATCH)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in TrainConfig.__dataclass_fields__:
            raise ConfigurationError(f"unknown training option {key!r}")
        kwargs[key] = value
    return TrainConfig(**kwargs).validate()
