"""Workload plans, the timed operations, and their correctness checks.

Every workload runs the laboratory's whole pipeline through the public
calls the CLI executors make: scripted ``collect_dataset`` (plus
``save_dataset``), ``train_acd`` on 0.8 of the samples and
``evaluate_accuracy`` on all of them, raw, then ``train`` and a greedy
``evaluate``.  Each operation is repeated while its share of the run
lasts, on the same inputs, and the SHA-256 digest of what each repeat
wrote is recorded: repeats on the same inputs must give the same
digests.
"""

import hashlib
import math
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from camarl import acd, marl
from camarl.envs import env_spec
from camarl.errors import CollectionError
from camarl.harness.defaults import default_config

import calibrate

# metrics a traced run compares against its untraced pass
TIMED = ("train_steps_per_s", "eval_episodes_per_s", "collect_wins_per_s",
         "acd_epoch_s", "acd_eval_samples_per_s")
PHASES = ("collect", "acd_train", "acd_eval", "train", "evaluate")
INPUT_SEED = 0          # seeds every timed input but the encoder's init
COLLECT_EPISODES = 24   # 19 of them train the encoder
# repeats each phase makes even past its share of the run
MIN_REPS = dict(collect=3, acd_train=2, acd_eval=4, train=3, evaluate=6)
# a training run evaluates one episode at the end of each of these
# slices, so each slice is a lap, scaled on its own
TRAIN_SLICES = 4
# set-up probes of an untraced run, and their share of its seconds
SETUP_PROBES = 4
SETUP_SHARE = 0.15


@dataclass(frozen=True)
class Plan:
    acd_env: str            # collect, acd train and acd eval run here
    q_env: str              # train and evaluate run here
    trainer: str
    train_steps: int
    batch_size: int
    eval_episodes: int
    acd_epochs: int         # epoch 0 preprocesses, so one fewer is timed
    shares: dict            # phase -> share of the measured seconds,
                            # summing to 1 - SETUP_SHARE


PLANS = {
    # 100-step lj episodes: acting, Q-unroll over T=100 and env stepping
    # weigh most; icl takes oracle bits, so no ACD runs in the Q loop.
    # pp gives the same 5-node, T=100 edge model (869,175 parameters)
    # and its scripted policy wins often enough to collect from.
    "lj-icl-pp-acd": Plan(
        acd_env="pp", q_env="lj", trainer="icl", train_steps=1000,
        batch_size=8, eval_episodes=12, acd_epochs=5,
        shares=dict(collect=0.10, acd_train=0.25, acd_eval=0.08,
                    train=0.30, evaluate=0.12)),
    # sk3 episodes average ~6 steps: every episode pays one update per
    # agent on up to 32 replayed episodes (about 30 by the end of 200
    # steps) plus ACD preprocess and encode at batch 1.
    "sk3-acd-marl": Plan(
        acd_env="sk3", q_env="sk3", trainer="acd-marl", train_steps=200,
        batch_size=32, eval_episodes=60, acd_epochs=6,
        shares=dict(collect=0.13, acd_train=0.20, acd_eval=0.10,
                    train=0.30, evaluate=0.12)),
}


class CheckFailed(Exception):
    pass


def check(cond, message):
    if not cond:
        raise CheckFailed(message)


def dir_digest(path):
    """SHA-256 over every file below path, names and bytes, in name order."""
    h = hashlib.sha256()
    root = Path(path)
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(root)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def _fresh(path):
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _finite(*values):
    return all(math.isfinite(float(v)) for v in values)


# -- correctness checks ------------------------------------------------------

def check_collection(samples, stats, env_id, requested, attempt_factor=20):
    spec = env_spec(env_id)
    check(len(samples) == stats["wins"] <= requested,
          f"collect: {len(samples)} samples vs {stats['wins']} wins")
    check(stats["attempts"] <= attempt_factor * requested,
          "collect: more attempts than the budget")
    for s in samples:
        bits = np.asarray(s.bits)
        check(bits.shape == (spec.n_agents,) and np.isin(bits, (0, 1)).all(),
              f"collect: bits {bits!r} are not {spec.n_agents} binary values")
        check(1 <= s.length <= spec.episode_len and np.isfinite(s.x).all(),
              f"collect: bad sample length {s.length} or values")
        r = s.x[-1, :s.length, 0]
        if spec.family == "pp":
            won = round(float((r + 0.01).sum()) / 5.0) == spec.n_preys
        elif spec.family == "lj":
            won = round(float((r + 0.1).sum()) / 5.0) == spec.n_trees
        else:
            won = r[-1] >= 10.0
        check(won, f"collect: sample seed {s.seed} is not a winning episode")


def check_acd(result, epochs):
    check(len(result.rows) == epochs, "acd train: wrong number of epochs")
    for row in result.rows:
        check(_finite(row["nll"], row["kl"], row["total"]),
              f"acd train: non-finite loss at epoch {row['epoch']}")


def check_accuracy(acc, n_samples, n_agents):
    total = acc["correct"] + acc["false_positive"] + acc["false_negative"]
    check(abs(total - 100.0) < 1e-9, f"acd eval: percentages sum to {total}")
    check(all(0.0 <= acc[k] <= 100.0
              for k in ("correct", "false_positive", "false_negative")),
          "acd eval: percentage outside [0, 100]")
    check(acc["n_pairs"] == n_samples * n_agents, "acd eval: wrong pair count")


def check_train(result, config):
    spec = env_spec(config.env_id)
    S, W = config.total_steps, config.eval_interval
    check(S <= result.steps < S + spec.episode_len,
          f"train: {result.steps} steps for a {S}-step config")
    check(1 <= result.episodes <= result.steps, "train: bad episode count")
    grid = list(range(0, S, W)) + [S]
    check([row["step"] for row in result.rows] == grid,
          "train: evaluation grid differs from the config")
    for row in result.rows:
        check(_finite(row["eval_return_mean"], row["eval_return_ci95"]),
              "train: non-finite evaluation return")
        check(0.0 <= row["win_rate"] <= 1.0, "train: win_rate outside [0, 1]")
    for ln in result.learners:
        check(ln.last_loss is not None and _finite(ln.last_loss),
              "train: a learner has no finite TD loss")


def check_eval(summary, n_episodes):
    check(summary.n_episodes == n_episodes == len(summary.returns),
          "evaluate: wrong episode count")
    check(np.isfinite(summary.returns).all() and _finite(summary.ci95),
          "evaluate: non-finite returns")
    check(0.0 <= summary.win_rate <= 1.0, "evaluate: win_rate outside [0, 1]")


# -- the workload run --------------------------------------------------------

class Run:
    """One pass over a plan: timed repeats of every phase, interleaved.

    The first repeat of each phase runs in pipeline order and feeds the
    next phase.  Further repeats go, one at a time, to the phase that
    has spent the smallest part of its time budget, so that every phase
    samples the whole run rather than one stretch of it.  Once the run's
    seconds are spent, only phases short of their minimum repeats go on.

    Every repeat of a phase runs the same inputs, so repeats differ only
    in the state of the machine, and each must write the digest of the
    one before it.  Inputs come from INPUT_SEED, not the run seed: the
    collect rate follows the scripted policy's win ratio on its episode
    seeds, and evaluation follows the policy that training produced, so
    a run seed would choose much of the result.  Only the encoder's
    initialisation in the acd train repeats after the first follows the
    run seed; its cost does not depend on it.

    Every timed interval lies between two runs of the calibrate module's
    reference and is scaled to its nominal speed.  A training run or an
    ACD fit is timed in laps, one per progress callback, each scaled on
    its own, since it lasts longer than the machine stays in one state.
    A rate is the work of all repeats of its phase over their summed
    scaled seconds, acd_epoch_s the mean scaled epoch after the first,
    and setup_s the median scaled set-up probe.

    With probe given, set-up probes are a further phase: each call
    starts a fresh process and returns its seconds to set-up done.
    """

    def __init__(self, plan, seed, out_dir, seconds, min_reps=None,
                 tracer=None, probe=None):
        self.plan = plan
        self.seed = seed
        self.out = Path(out_dir)
        self.seconds = seconds
        self.min_reps = dict(min_reps or MIN_REPS)
        self.shares = dict(plan.shares)
        self.phases = PHASES
        self.probe = probe
        if probe is not None:
            self.phases = PHASES + ("setup",)
            self.shares["setup"] = SETUP_SHARE
            self.min_reps["setup"] = SETUP_PROBES
        self.tracer = tracer
        self.clock = calibrate.Clock()
        # phase -> per repeat (work units, laps); a lap is (seconds,
        # index of the reference run that opened it)
        self.work = {ph: [] for ph in self.phases}
        self.wall = dict.fromkeys(self.phases, 0.0)    # budget, with refs
        self.digests = {ph: [] for ph in self.phases}  # SHA-256 per repeat
        self.attempted = 0
        self.failed = 0
        self.collect_stats = []
        # outputs of the first repeats, consumed by later phases
        self.samples = self.model = self.learners = None

    def seed_for(self, phase, rep):
        # the model that feeds the later phases comes from the first repeat
        base = self.seed if phase == "acd_train" and rep else INPUT_SEED
        ss = np.random.SeedSequence([base, PHASES.index(phase)])
        return int(ss.generate_state(1)[0])

    def train_config(self, rep):
        p = self.plan
        return default_config(
            p.q_env, p.trainer, seed=self.seed_for("train", rep),
            total_steps=p.train_steps,
            eval_interval=p.train_steps // TRAIN_SLICES,
            eval_episodes=1, batch_size=p.batch_size)

    def attempts(self, phase):
        """Operations one repeat of the phase attempts."""
        return {"collect": COLLECT_EPISODES, "acd_train": self.plan.acd_epochs,
                "acd_eval": len(self.samples or ()), "train": 1,
                "evaluate": self.plan.eval_episodes, "setup": 1}[phase]

    def _once(self, phase):
        rep = len(self.work[phase])
        op = getattr(self, "op_" + phase)
        n = self.attempts(phase)
        self.attempted += n
        failed = self.failed
        w0 = time.perf_counter()
        try:
            if self.tracer is not None:
                with self.tracer.root("op." + phase):
                    units, laps, digest = op(rep)
            else:
                units, laps, digest = op(rep)
            if phase in PHASES and rep and (
                    self.seed_for(phase, rep) == self.seed_for(phase, rep - 1)):
                check(digest == self.digests[phase][rep - 1],
                      f"{phase}: two repeats on the same inputs wrote "
                      "different outputs")
        except CheckFailed:
            # everything the failed repeat attempted counts as failed
            self.failed = failed + n
            raise
        self.work[phase].append((units, laps))
        self.digests[phase].append(digest)
        self.wall[phase] += time.perf_counter() - w0

    def run(self):
        for phase in self.phases:
            self._once(phase)

        def budget(ph):
            mean_dt = self.wall[ph] / len(self.work[ph])
            return max(self.shares[ph] * self.seconds,
                       self.min_reps[ph] * mean_dt), mean_dt

        def done(ph, full):
            total, mean_dt = budget(ph)
            return (len(self.work[ph]) >= self.min_reps[ph]
                    and (full or self.wall[ph] > total - mean_dt / 2))

        while True:
            # past the run's seconds, only missing minimum repeats run
            full = sum(self.wall.values()) >= self.seconds
            todo = [ph for ph in self.phases if not done(ph, full)]
            if not todo:
                break
            self._once(min(todo, key=lambda ph: self.wall[ph] / budget(ph)[0]))
        self.clock.mark()   # closes the last lap's bracket
        return self

    def _timed(self, fn, *args, **kwargs):
        """Call fn with a progress callback; returns (result, laps)."""
        marks = [self.clock.mark()]
        laps = []

        def progress(row):
            laps.append(self.clock.lap(marks[-1]))
            marks.append(self.clock.mark())

        result = fn(*args, progress=progress, **kwargs)
        laps.append(self.clock.lap(marks[-1]))
        return result, laps

    # -- operations: each returns (work units, laps, digest) -----------------

    def op_setup(self, rep):
        _, i = self.clock.mark()
        return 1, [(self.probe(), i)], None

    def op_collect(self, rep):
        p = self.plan
        d = _fresh(self.out / "collect")
        stats = {}
        start = self.clock.mark()
        try:
            samples = acd.collect_dataset(
                p.acd_env, COLLECT_EPISODES,
                seed=self.seed_for("collect", rep), stats=stats)
        except CollectionError:
            samples = []
        if samples:
            acd.save_dataset(d / "dataset.ckpt", samples)
        lap = self.clock.lap(start)
        self.failed += COLLECT_EPISODES - len(samples)
        self.collect_stats.append(dict(stats, requested=COLLECT_EPISODES,
                                       delivered=len(samples)))
        check(len(samples) >= 2,
              f"collect: {len(samples)} wins on {p.acd_env} are too few "
              "to split for training")
        check_collection(samples, stats, p.acd_env, COLLECT_EPISODES)
        if self.samples is None:
            self.samples = samples
        return len(samples), [lap], dir_digest(d)

    def op_acd_train(self, rep):
        epochs = self.plan.acd_epochs
        train_split, _ = acd.split_dataset(
            self.samples, 0.8, seed=self.seed_for("acd_train", 0))
        d = _fresh(self.out / "acd")
        result, laps = self._timed(
            acd.train_acd, train_split, epochs=epochs, batch_size=128,
            seed=self.seed_for("acd_train", rep), out_dir=d)
        check_acd(result, epochs)
        if self.model is None:
            self.model = result.model
        return epochs, laps, dir_digest(d)

    def op_acd_eval(self, rep):
        start = self.clock.mark()
        acc = acd.evaluate_accuracy(self.model, self.samples)
        lap = self.clock.lap(start)
        n_agents = env_spec(self.plan.acd_env).n_agents
        check_accuracy(acc, len(self.samples), n_agents)
        digest = hashlib.sha256(repr(sorted(acc.items())).encode()).hexdigest()
        return len(self.samples), [lap], digest

    def op_train(self, rep):
        cfg = self.train_config(rep)
        d = _fresh(self.out / "train")
        bits_fn = None
        if cfg.trainer == "acd-marl":
            bits_fn = acd.make_bits_fn(self.model, cfg.env_id)
        result, laps = self._timed(marl.train, cfg, bits_fn=bits_fn,
                                   out_dir=d)
        check_train(result, cfg)
        if self.learners is None:
            self.learners = result.learners
        return result.steps, laps, dir_digest(d)

    def op_evaluate(self, rep):
        p = self.plan
        start = self.clock.mark()
        summary = marl.evaluate(self.learners, p.q_env, p.eval_episodes,
                                self.seed_for("evaluate", rep))
        lap = self.clock.lap(start)
        check_eval(summary, p.eval_episodes)
        text = summary.returns.tobytes() + repr(summary.win_rate).encode()
        return p.eval_episodes, [lap], hashlib.sha256(text).hexdigest()

    # -- results -------------------------------------------------------------

    def metrics(self, scaled=True):
        """Timed end-to-end metrics of this pass; raw seconds if not scaled."""
        secs = self.clock.scaled if scaled else (lambda lap: lap[0])

        def rate(phase):
            work = self.work[phase]
            return (sum(u for u, _ in work)
                    / sum(secs(lap) for _, laps in work for lap in laps))

        # lap 0 of an ACD fit also preprocesses, the last saves the model
        epochs = [secs(lap) for _, laps in self.work["acd_train"]
                  for lap in laps[1:-1]]
        out = {
            "train_steps_per_s": rate("train"),
            "eval_episodes_per_s": rate("evaluate"),
            "collect_wins_per_s": rate("collect"),
            "acd_epoch_s": sum(epochs) / len(epochs),
            "acd_eval_samples_per_s": rate("acd_eval"),
        }
        if "setup" in self.phases:
            out["setup_s"] = statistics.median(
                secs(laps[0]) for _, laps in self.work["setup"])
        return out

    def collect_counts(self):
        st = self.collect_stats
        attempts = sum(c["attempts"] for c in st)
        wins = sum(c["wins"] for c in st)
        return {
            "acd.collect.attempts": attempts,
            "acd.collect.wins": wins,
            "acd.collect.win_ratio": wins / attempts,
            "acd.collect.delivered_ratio":
                sum(c["delivered"] for c in st)
                / sum(c["requested"] for c in st),
        }
