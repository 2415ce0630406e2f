"""Causality masks applied to the team reward in TD targets.

The plain mask covers only positive rewards: a zeroed-out agent still
feels the step penalty, which keeps the dense learning signal alive.
The strict variant applies the multiplicative mask to every reward.
"""

import numpy as np


def masked_rewards(rewards, bits, strict: bool):
    """rewards (L,) masked by bits (L, N) or (N,): (L, N) float64."""
    r = np.asarray(rewards, dtype=np.float64)[:, None]
    b = np.asarray(bits, dtype=np.float64)
    if strict:
        return b * r
    return np.where(r > 0, b * r, r)
