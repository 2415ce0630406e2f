"""Greedy-policy evaluation rollouts."""

from dataclasses import dataclass

import numpy as np

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


# float(scipy.special.stdtrit(df, 0.975)) for df = 1..64, from scipy 1.17.1.
# A table, not a formula: stdtrit is not correctly rounded, and only its
# own values keep the pinned CI bits.  Importing scipy.special would
# double the start-up time of every process.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205, 2.228138851986274,
    2.200985160091639, 2.1788128296672284, 2.1603686564627913,
    2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087,
    2.085963447265864, 2.0796138447276795, 2.0738730679040254,
    2.0686576104190486, 2.0638985616280245, 2.0595385527532972,
    2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408,
    2.0369333434601016, 2.0345152974493383, 2.0322445093177186,
    2.030107928250343, 2.0280940009804502, 2.0261924630291093,
    2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824,
    2.0153675744437636, 2.014103388880846, 2.012895598919429,
    2.0117405137297655, 2.010634757624232, 2.0095752371292392,
    2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455,
    2.003240718847872, 2.002465459291007, 2.0017174841452356,
    2.000995378088267, 2.0002978220142604, 1.999623584994939,
    1.9989715170333788, 1.998340542520741, 1.997729654317693,
)


def return_ci95(returns) -> float:
    """Half-width of the t-based 95% confidence interval; 0 for n < 2.

    The t quantile t.ppf(0.975, n - 1) is read from ``_T975``, scipy's
    ``stdtrit`` values for n - 1 <= 64.  Only a larger n imports scipy.
    """
    r = np.asarray(returns, dtype=np.float64)
    if r.size < 2:
        return 0.0
    sd = r.std(ddof=1)
    if sd == 0.0:
        return 0.0
    if r.size - 1 <= len(_T975):
        q = _T975[r.size - 2]
    else:
        from scipy.special import stdtrit
        q = stdtrit(r.size - 1, 0.975)
    return float(q * sd / np.sqrt(r.size))


def evaluate(learners, env_id: str, n_episodes: int, seed: int) -> EvalSummary:
    """Greedy rollouts over n_episodes fresh environments, in lockstep.

    Each step acts only for the episodes still running, and more than one
    episode steps as one batch of arrays.  Deterministic given the seed
    and the learner parameters, and bit-identical to rolling the episodes
    one after another.
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
