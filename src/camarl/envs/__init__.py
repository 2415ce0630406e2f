"""Cooperative gridworld tasks with seeded dynamics and causal oracles.

Environment ids: ``pp``/``pp-sp`` (predator-prey), ``lj``/``lj-sp``
(lumberjacks), ``sk3``/``sk3-sp``/``sk5``/``sk5-sp`` (skirmish).  The
``-sp`` variants are the sparse-reward versions with fewer reward-bearing
entities.
"""

from camarl.envs.core import (
    EnvSpec, StepResult, OBS_DIM, env_spec, make_env, make_batch, ENV_IDS,
    KIND_NONE, KIND_INTERMEDIATE, KIND_WIN, oracle_bits,
)
from camarl.envs.predator_prey import PredatorPrey
from camarl.envs.lumberjacks import Lumberjacks
from camarl.envs.skirmish import Skirmish
from camarl.envs.scripted import ScriptedPolicy

__all__ = [
    "EnvSpec", "StepResult", "OBS_DIM", "env_spec", "make_env", "make_batch",
    "ENV_IDS",
    "KIND_NONE", "KIND_INTERMEDIATE", "KIND_WIN",
    "PredatorPrey", "Lumberjacks", "Skirmish",
    "oracle_bits", "ScriptedPolicy",
]
