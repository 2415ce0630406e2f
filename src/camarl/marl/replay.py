"""Episode replay buffer: FIFO eviction, uniform batch sampling."""

from collections import deque

import numpy as np

from camarl.errors import UsageError


class ReplayBuffer:
    def __init__(self, capacity: int):
        if capacity <= 0:
            raise UsageError("replay capacity must be positive")
        self.capacity = capacity
        self._buf = deque(maxlen=capacity)

    def push(self, episode):
        self._buf.append(episode)

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform sample without replacement; batch capped at buffer size."""
        n = len(self._buf)
        if n == 0:
            raise UsageError("cannot sample from an empty replay buffer")
        k = min(batch_size, n)
        idx = rng.choice(n, size=k, replace=False)
        return [self._buf[i] for i in idx]
