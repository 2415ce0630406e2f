"""Greedy-policy evaluation rollouts."""

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from camarl.envs import env_spec, make_env
from camarl.errors import UsageError
from camarl.marl.agent import team_policy
from camarl.marl.episode import collect_episodes


@dataclass
class EvalSummary:
    mean_return: float
    ci95: float
    win_rate: float
    per_agent_events: np.ndarray  # (N,) event participations
    n_episodes: int
    returns: np.ndarray


def return_ci95(returns) -> float:
    """Half-width of the t-based 95% confidence interval; 0 for n < 2."""
    r = np.asarray(returns, dtype=np.float64)
    if r.size < 2:
        return 0.0
    sd = r.std(ddof=1)
    if sd == 0.0:
        return 0.0
    q = stdtrit(r.size - 1, 0.975)   # the t quantile, t.ppf(0.975, n - 1)
    return float(q * sd / np.sqrt(r.size))


def evaluate(learners, env_id: str, n_episodes: int, seed: int) -> EvalSummary:
    """Greedy rollouts over n_episodes fresh environments, in lockstep.

    Deterministic given the seed and the learner parameters, and
    bit-identical to rolling the episodes one after another.
    """
    if n_episodes < 1:
        raise UsageError(
            f"need at least one evaluation episode, got {n_episodes}")
    spec = env_spec(env_id)
    seeds = np.random.SeedSequence(seed).generate_state(n_episodes)
    envs = [make_env(env_id, int(s)) for s in seeds]
    episodes = collect_episodes(envs, team_policy(learners))
    returns = np.empty(n_episodes)
    wins = 0
    events = np.zeros(spec.n_agents)
    for k, ep in enumerate(episodes):
        # left to right: ndarray.sum() is pairwise and rounds differently
        returns[k] = np.cumsum(ep.rewards)[-1]
        wins += ep.win
        events += ep.events
    return EvalSummary(mean_return=float(returns.mean()),
                       ci95=return_ci95(returns),
                       win_rate=wins / n_episodes,
                       per_agent_events=events,
                       n_episodes=n_episodes,
                       returns=returns)
