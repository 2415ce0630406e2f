"""Cooperative gridworld tasks with seeded dynamics and causal oracles.

Environment ids: ``pp``/``pp-sp`` (predator-prey), ``lj``/``lj-sp``
(lumberjacks), ``sk3``/``sk3-sp``/``sk5``/``sk5-sp`` (skirmish).  The
``-sp`` variants are the sparse-reward versions with fewer reward-bearing
entities.
"""

from camarl.envs.core import (
    EnvSpec, StepResult, OBS_DIM, env_spec, make_env, ENV_IDS,
    KIND_NONE, KIND_INTERMEDIATE, KIND_WIN,
)
from camarl.envs.predator_prey import PredatorPrey
from camarl.envs.lumberjacks import Lumberjacks
from camarl.envs.skirmish import Skirmish
from camarl.envs.oracles import (
    causal_oracle_pp, causal_oracle_lj, causal_oracle_sk,
    oracle_bits_for_step,
)
from camarl.envs.scripted import ScriptedPolicy

__all__ = [
    "EnvSpec", "StepResult", "OBS_DIM", "env_spec", "make_env", "ENV_IDS",
    "KIND_NONE", "KIND_INTERMEDIATE", "KIND_WIN",
    "PredatorPrey", "Lumberjacks", "Skirmish",
    "causal_oracle_pp", "causal_oracle_lj", "causal_oracle_sk",
    "oracle_bits_for_step", "ScriptedPolicy",
]
