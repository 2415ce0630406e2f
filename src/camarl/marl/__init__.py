from camarl.marl.agent import AgentLearner, team_policy
from camarl.marl.episode import (
    EpisodeRecord, collect_episode, collect_episodes)
from camarl.marl.evaluate import EvalSummary, evaluate, return_ci95
from camarl.marl.replay import ReplayBuffer
from camarl.marl.trainer import (
    TRAINERS, TrainConfig, TrainResult, build_batch, epsilon_at,
    event_fields, load_learners, masked_rewards, oracle_episode_bits,
    read_log, read_run, train, write_log)

__all__ = [
    "AgentLearner", "EpisodeRecord", "EvalSummary", "ReplayBuffer",
    "TRAINERS", "TrainConfig", "TrainResult", "build_batch",
    "collect_episode", "collect_episodes", "epsilon_at", "evaluate",
    "event_fields", "load_learners", "masked_rewards",
    "oracle_episode_bits", "read_log", "read_run", "return_ci95",
    "team_policy", "train", "write_log",
]
