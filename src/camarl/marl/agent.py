"""Recurrent Q-learners: a whole team as one object.

Online and target networks share one architecture: a GRU over the
observation concatenated with the previous-action one-hot, and a linear
head of Q-values.  Training unrolls whole replayed episodes through the
fused kernels as a packed batch, each episode over its own length.  A
team of N, one agent per seed, holds its parameters, gradients, RMSprop
state and target network as (N, P) buffers with a leading agent axis on
every view, and acts, unrolls and steps all agents in one kernel call
each.  No parameters are shared: the kernels
multiply with ``@``, one product per agent, so each agent's numbers are
its own, bit for bit.  ``team[i]`` is agent i as a single learner over
row i of the buffers, and a lone agent is ``team[0]`` of a team of one.
"""

import copy

import numpy as np

from camarl.errors import UsageError
from camarl.nn import kernels
from camarl.nn.layers import (
    ParamSet, _uniform_init, load_views, rmsprop_update)

PARAM_NAMES = ("gru.Wx", "gru.Wh", "gru.bx", "gru.bh", "head.W", "head.b")
BIAS_NAMES = ("gru.bx", "gru.bh", "head.b")


class AgentLearner:
    def __init__(self, obs_dim: int, n_actions: int, n_hidden: int,
                 seed: list, lr: float = 5e-4, grad_clip: float = 10.0):
        """A team of len(seed), agent i initialised from seed[i]."""
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.n_hidden = n_hidden
        self.n_in = obs_dim + n_actions
        self.lr = lr
        self.grad_clip = grad_clip
        p = ParamSet.stack([ParamSet(self._inits(s)) for s in seed])
        # the target network: one flat copy in the same layout
        self._bind(p, p.data.copy(), np.full(p.data.shape[:-1], np.nan))
        # row a is the one-hot of action a; the last row, picked by -1
        # (no previous action), is all zeros
        self._prev_onehot = np.vstack([np.eye(n_actions),
                                       np.zeros((1, n_actions))])

    def _inits(self, seed):
        rng = np.random.default_rng(seed)
        n_in, H, A = self.n_in, self.n_hidden, self.n_actions
        return [("gru.Wx", _uniform_init(rng, n_in, (n_in, 3 * H))),
                ("gru.Wh", _uniform_init(rng, H, (H, 3 * H))),
                ("gru.bx", np.zeros(3 * H)), ("gru.bh", np.zeros(3 * H)),
                ("head.W", _uniform_init(rng, H, (H, A))),
                ("head.b", np.zeros(A))]

    def _bind(self, params, target_data, loss):
        self.params = params
        self.target_data = target_data
        self.target = params.views(target_data)
        # kernel arguments; views, so they follow every in-place update
        self._online = self._weights()
        self._target = self._weights(self.target)
        self._loss = loss
        self.lead = loss.shape   # (N,) for a team, () for a row view

    def __getitem__(self, i):
        # row views; iteration stops at the IndexError past the last row
        ln = copy.copy(self)
        ln._bind(self.params.row(i), self.target_data[i], self._loss[i, ...])
        return ln

    @property
    def last_loss(self):
        """Latest TD loss, NaN before the first: (N,), 0-d for a row."""
        return self._loss.copy()

    # -- acting ------------------------------------------------------------

    def initial_hidden(self, n_rows: int = 1):
        return np.zeros((n_rows,) + self.lead + (1, self.n_hidden))

    def inputs(self, obs, prev_action):
        """obs (..., obs_dim) beside prev_action's one-hot, zeros for -1."""
        x = np.empty(obs.shape[:-1] + (self.n_in,))
        x[..., :self.obs_dim] = obs
        x[..., self.obs_dim:] = self._prev_onehot.take(prev_action, axis=0)
        return x

    def _weights(self, views=None):
        # biases broadcast as (..., 1, m) against a team's (N, B, m) rows
        p = self.params if views is None else views
        return tuple(p[name][..., None, :] if name in BIAS_NAMES else p[name]
                     for name in PARAM_NAMES)

    def q_values(self, obs, prev_action, hidden):
        """One greedy-policy step for E independent rows: (q, new hidden).

        obs is (E, obs_dim), prev_action (E,) with -1 for none, hidden
        (E, 1, H); q comes back (E, n_actions).  A team's arrays carry
        the agent axis after E.  Each row of each agent is its own
        single-row product, so stacking rows and agents moves no bits.
        """
        rows = np.shape(obs)[:1] + self.lead
        if (np.shape(obs) != rows + (self.obs_dim,)
                or np.shape(prev_action) != rows
                or np.shape(hidden) != rows + (1, self.n_hidden)):
            def dims(*tail):
                return "({})".format(", ".join(
                    map(str, ("E",) + self.lead + tail)))
            raise UsageError(
                f"acting takes obs {dims(self.obs_dim)}, prev_action "
                f"{dims()} and hidden {dims(1, self.n_hidden)}; got "
                f"{np.shape(obs)}, {np.shape(prev_action)} and "
                f"{np.shape(hidden)}")
        x = self.inputs(obs, prev_action)[..., None, :]
        q, h_new = kernels.qnet_step(x, hidden, *self._online)
        return q[..., 0, :], h_new

    def act(self, obs, prev_action, hidden, epsilon, rng: np.random.Generator):
        """Epsilon-greedy actions shaped like prev_action; ties go low.

        Exploration takes a single row.  Each agent in turn draws a
        uniform and, below epsilon, a random action; no draw depends on
        the Q-values, so the stream depends only on epsilon.
        """
        q, h_new = self.q_values(obs, prev_action, hidden)
        acts = q.argmax(axis=-1)
        if epsilon > 0:
            if q.shape[0] != 1:
                raise UsageError("exploration acts on one row at a time")
            flat = acts.reshape(-1)
            for i in range(flat.size):
                if rng.random() < epsilon:
                    flat[i] = rng.integers(self.n_actions)
        return acts, h_new

    # -- training ----------------------------------------------------------

    def sync_target(self):
        self.target_data[...] = self.params.data

    def target_q(self, X, h0, rows):
        """The target network's Q-values over the packed batch of
        qnet_unroll_fwd: step t runs the first rows[t] rows, and Q is
        exactly zero past them.  The acting kernel stores no
        intermediates, which the target never needs; the bits are the
        unroll's."""
        Q = np.zeros(X.shape[:-1] + (self.n_actions,))
        h = h0
        for t, b in enumerate(rows):
            Q[..., t, :b, :], h = kernels.qnet_step(
                X[..., t, :b, :], h[..., :b, :], *self._target)
        return Q

    def td_loss_and_grads(self, X, actions, rewards, lengths, gamma):
        """Squared TD error, mean over the episodes' steps.

        X: (T, B, n_in) inputs; actions and rewards (already masked):
        (T, B), a team's leading with the agent axis; lengths: each
        episode's (B,) integer length, longest first and within 1..T,
        shared by a team.  Step t of the online and target unrolls runs
        only the episodes longer than t, so Q, the bootstrap and the TD
        error are exactly zero past each length, and nothing there is
        read but rewards, which must be zero there as build_batch pads
        them.  Bootstraps from the target network's next-step max; an
        episode's last step uses the reward alone.  Gradients land in
        self.params.  Returns the loss, (N,) for a team and 0-d for a
        row.
        """
        T, B = X.shape[-3:-1]
        lengths = np.asarray(lengths)
        if (lengths.shape != (B,) or lengths.dtype.kind not in "iu"
                or B == 0 or (lengths[1:] > lengths[:-1]).any()
                or not 1 <= lengths[-1] <= lengths[0] <= T):
            raise UsageError(f"need {B} non-increasing integer lengths in "
                             f"1..{T}, got {lengths!r}")
        # the number of episodes longer than t, at each step t
        rows = (lengths > np.arange(T)[:, None]).sum(axis=1)
        h0 = np.zeros(self.lead + (B, self.n_hidden))
        w = self._online
        Q, *cache = kernels.qnet_unroll_fwd(X, h0, rows, *w)
        boot = np.zeros(Q.shape[:-1])
        boot[..., :-1, :] = self.target_q(X, h0, rows)[..., 1:, :, :].max(
            axis=-1)
        y = rewards + gamma * boot
        qa = np.take_along_axis(Q, actions[..., None], axis=-1)[..., 0]
        diff = qa - y
        n_valid = lengths.sum()
        # each agent's squares summed as one contiguous (T B) row
        loss = (diff ** 2).reshape(self.lead + (-1,)).sum(axis=-1) / n_valid
        dQ = np.zeros_like(Q)
        np.put_along_axis(dQ, actions[..., None],
                          (2.0 * diff / n_valid)[..., None], axis=-1)
        grads = kernels.qnet_unroll_bwd(X, h0, rows, *cache, w[0], w[1], w[4],
                                        dQ)
        for name, grad in zip(PARAM_NAMES, grads):
            self.params.grads[name] += grad
        return loss

    def train_step(self, X, actions, rewards, lengths, gamma):
        """One gradient step, each agent clipped on its own; the TD loss."""
        loss = self.td_loss_and_grads(X, actions, rewards, lengths, gamma)
        rmsprop_update(self.params, lr=self.lr, max_norm=self.grad_clip)
        self._loss[...] = loss
        return self.last_loss

    # -- persistence ---------------------------------------------------------

    def state_arrays(self):
        out = self.params.state_arrays()
        out.update(("target." + k, v) for k, v in self.target.items())
        out.update(("opt." + k, v) for k, v in self.params.vs.items())
        return out

    def load_state(self, arrays):
        self.params.load_arrays(arrays)
        load_views(self.target, arrays, "target.")
        load_views(self.params.vs, arrays, "opt.")


def team_policy(team, epsilon: float = 0.0, rng=None):
    """Joint-action callable for one lockstep rollout of E episodes.

    act(obs, keep) maps the (E, N, D) observations to (E, N) actions,
    the collect_episodes contract; E is read off the first call.  The
    team acts in one AgentLearner.act, carrying the hidden state and
    previous actions across the steps, and keeps only the rows in keep
    when episodes finish.  Each row is its own product, so dropping
    finished rows moves no bits.  Build a fresh one per rollout.  At
    epsilon 0 nothing is drawn from rng; exploration draws in agent
    order and takes a single env.
    """
    hidden = prev = None

    def act(obs, keep):
        nonlocal hidden, prev
        if prev is None:
            hidden = team.initial_hidden(obs.shape[0])
            prev = np.full(obs.shape[:2], -1)
        elif keep is not None:
            hidden, prev = hidden[keep], prev[keep]
        prev, hidden = team.act(obs, prev, hidden, epsilon, rng)
        return prev

    return act
