"""Per-agent behaviour analytics.

Quantifies how evenly work is spread across a team from its per-agent
event participation counts (``event_count_agent_*`` in the training log).
"""

import numpy as np

from camarl.errors import UsageError


def balance_index(counts) -> float:
    """How evenly the team's event participations are spread, in [0, 1].

    One agent doing everything scores 0; perfectly equal shares score 1.
    The score is one minus the standard deviation of the share vector,
    normalized by the one-hot share vector's deviation (the most uneven
    split possible).  A team with no events at all counts as balanced.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size < 2:
        raise UsageError("balance index needs one count per agent, N >= 2")
    if counts.min() < 0:
        raise UsageError("event counts cannot be negative")
    total = counts.sum()
    if total == 0:
        return 1.0
    shares = counts / total
    n = counts.size
    std_max = np.sqrt(n - 1) / n
    return float(1.0 - shares.std() / std_max)
