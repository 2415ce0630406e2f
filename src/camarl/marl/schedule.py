"""Exploration schedule."""

from camarl.errors import UsageError


def epsilon_at(episode_index: int, start: float, end: float,
               anneal_episodes: int) -> float:
    """Linear anneal from start to end over anneal_episodes, clamped after."""
    if episode_index < 0:
        raise UsageError("episode index must be nonnegative")
    if episode_index >= anneal_episodes:
        return end
    frac = episode_index / anneal_episodes
    return start + (end - start) * frac
