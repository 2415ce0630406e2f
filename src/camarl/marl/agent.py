"""Per-agent recurrent Q-learner.

Online and target networks share one architecture: a GRU over the
observation concatenated with the previous-action one-hot, and a linear
head of Q-values.  Training unrolls full episodes through the fused
kernels; no parameters are shared across agents.
"""

import numpy as np

from camarl.errors import UsageError
from camarl.nn import kernels
from camarl.nn.layers import ParamSet, _uniform_init, load_views
from camarl.nn.optim import rmsprop_update

PARAM_NAMES = ("gru.Wx", "gru.Wh", "gru.bx", "gru.bh", "head.W", "head.b")


class AgentLearner:
    def __init__(self, obs_dim: int, n_actions: int, n_hidden: int = 64,
                 seed=0, lr: float = 5e-4, grad_clip: float = 10.0):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.n_hidden = n_hidden
        self.n_in = obs_dim + n_actions
        self.lr = lr
        self.grad_clip = grad_clip
        rng = np.random.default_rng(seed)
        n_in, H = self.n_in, n_hidden
        self.params = p = ParamSet([
            ("gru.Wx", _uniform_init(rng, n_in, (n_in, 3 * H))),
            ("gru.Wh", _uniform_init(rng, H, (H, 3 * H))),
            ("gru.bx", np.zeros(3 * H)),
            ("gru.bh", np.zeros(3 * H)),
            ("head.W", _uniform_init(rng, H, (H, n_actions))),
            ("head.b", np.zeros(n_actions)),
        ])
        # the target network: one flat copy in the same layout
        self.target_data = p.data.copy()
        self.target = p.views(self.target_data)
        self.last_loss = None
        # row a is the one-hot of action a; the last row, picked by -1
        # (no previous action), is all zeros
        self._prev_onehot = np.vstack([np.eye(n_actions),
                                       np.zeros((1, n_actions))])

    # -- acting ------------------------------------------------------------

    def initial_hidden(self, n_rows: int = 1):
        return np.zeros((n_rows, 1, self.n_hidden))

    def _input(self, obs, prev_action):
        x = np.empty((obs.shape[0], 1, self.n_in))
        x[:, 0, :self.obs_dim] = obs
        x[:, 0, self.obs_dim:] = self._prev_onehot.take(prev_action, axis=0)
        return x

    def _weights(self):
        p = self.params
        return tuple(p[name] for name in PARAM_NAMES)

    def q_values(self, obs, prev_action, hidden):
        """One greedy-policy step for E independent rows: (q, new hidden).

        obs is (E, obs_dim), prev_action (E,) with -1 for none, hidden
        (E, 1, H); q comes back (E, n_actions).  Each row is its own
        single-row product, so stacking rows moves no bits.
        """
        rows = np.shape(obs)[:1]
        if (np.shape(obs) != rows + (self.obs_dim,)
                or np.shape(prev_action) != rows
                or np.shape(hidden) != rows + (1, self.n_hidden)):
            raise UsageError(
                f"acting takes obs (E, {self.obs_dim}), prev_action (E,) "
                f"and hidden (E, 1, {self.n_hidden}); got "
                f"{np.shape(obs)}, {np.shape(prev_action)} and "
                f"{np.shape(hidden)}")
        q, h_new = kernels.qnet_step(self._input(obs, prev_action), hidden,
                                     *self._weights())
        return q[:, 0], h_new

    def act(self, obs, prev_action, hidden, epsilon, rng: np.random.Generator):
        """Epsilon-greedy (E,) actions; ties resolve to the lowest index.

        The uniform draw happens before any Q computation is consulted
        so the random-number stream depends only on epsilon, never on
        network outputs.  Exploration takes a single row.
        """
        q, h_new = self.q_values(obs, prev_action, hidden)
        if epsilon > 0:
            if q.shape[0] != 1:
                raise UsageError("exploration acts on one row at a time")
            if rng.random() < epsilon:
                return np.array([rng.integers(self.n_actions)]), h_new
        return q.argmax(axis=1), h_new

    # -- training ----------------------------------------------------------

    def sync_target(self):
        self.target_data[...] = self.params.data

    def target_q(self, X, h0):
        t = self.target
        Q, *_ = kernels.qnet_unroll_fwd(X, h0, t["gru.Wx"], t["gru.Wh"],
                                        t["gru.bx"], t["gru.bh"],
                                        t["head.W"], t["head.b"])
        return Q

    def td_loss_and_grads(self, X, actions, rewards, valid, terminal, gamma):
        """Squared TD error, mean over valid timesteps.

        X: (T, B, n_in) inputs; actions: (T, B); rewards: (T, B) already
        masked; valid/terminal: (T, B) 0/1.  Bootstraps from the target
        network's next-step max; terminal steps use the reward alone.
        Gradients land in self.params.
        """
        n_valid = valid.sum()
        if n_valid == 0:
            raise UsageError("empty training batch")
        T, B, _ = X.shape
        h0 = np.zeros((B, self.n_hidden))
        Wx, Wh, bx, bh, Wq, bq = self._weights()
        Q, Hs, R, Z, Nc, GHN = kernels.qnet_unroll_fwd(X, h0, Wx, Wh, bx, bh,
                                                       Wq, bq)
        Qt = self.target_q(X, h0)
        boot = np.zeros((T, B))
        if T > 1:
            boot[:-1] = Qt[1:].max(axis=2)
        y = rewards + gamma * boot * (1.0 - terminal)
        ti = np.arange(T)[:, None]
        bi = np.arange(B)[None, :]
        qa = Q[ti, bi, actions]
        diff = (qa - y) * valid
        loss = float((diff ** 2).sum() / n_valid)
        dQ = np.zeros_like(Q)
        dQ[ti, bi, actions] = 2.0 * diff / n_valid
        grads = kernels.qnet_unroll_bwd(X, h0, Hs, R, Z, Nc, GHN, Wx, Wh, Wq,
                                        dQ)
        for name, grad in zip(PARAM_NAMES, grads):
            self.params.grads[name] += grad
        return loss

    def train_step(self, X, actions, rewards, valid, terminal, gamma):
        """One gradient step on a batch; returns the TD loss."""
        loss = self.td_loss_and_grads(X, actions, rewards, valid, terminal,
                                      gamma)
        rmsprop_update(self.params, lr=self.lr, max_norm=self.grad_clip)
        self.last_loss = loss
        return loss

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


def team_policy(learners, epsilon: float = 0.0, rng=None):
    """Joint-action callable for one lockstep rollout of E episodes.

    act(obs) maps the (E, N, D) observations to (E, N) actions; E is
    read off the first call.  Each learner acts on its (E, obs_dim)
    column through AgentLearner.act, carrying its (E, 1, H) hidden state
    and previous actions across the steps; build a fresh one per
    rollout.  At epsilon 0 nothing is drawn from rng and every agent
    takes its argmax.  Exploration draws in agent order and, like
    AgentLearner.act, takes a single env.
    """
    hidden = None
    prev = None

    def act(obs):
        nonlocal hidden, prev
        if prev is None:
            hidden = [ln.initial_hidden(obs.shape[0]) for ln in learners]
            prev = np.full(obs.shape[:2], -1)
        acts = np.empty_like(prev)
        for i, ln in enumerate(learners):
            acts[:, i], hidden[i] = ln.act(obs[:, i], prev[:, i], hidden[i],
                                           epsilon, rng)
        prev = acts
        return acts

    return act
