"""In-memory span tracing around the library's layer boundaries.

The tracer patches public names of the ``camarl`` package from the
outside; no file under ``src/`` knows about it.  Each wrapper replaces a
name where its caller looks it up (a class attribute, or a module global
of the calling module), so a patch on the wrong module shows as a span
with zero calls, which fails the traced run.

A span records (name, start, end, parent, group).  Spans of one training
episode or one ACD batch share a group: a group-starting span opened
directly under an operation root begins a new group, and every later
span joins it until the next one starts.  A span nested directly in a
span of the same name is merged into it, so ``act`` calling
``q_values`` counts as one acting call.
"""

import functools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

# -- layer table -------------------------------------------------------------


@dataclass(frozen=True)
class Layer:
    name: str
    targets: tuple        # (module path, attribute path) pairs to patch
    moves: str            # end-to-end metric(s) the span should move
    starts_group: bool = False


_TRAINER = "camarl.marl.trainer"
_AGENT = "camarl.marl.agent"

LAYERS = (
    Layer("envs.step",
          (("camarl.envs.lumberjacks", "Lumberjacks.step"),
           ("camarl.envs.skirmish", "Skirmish.step"),
           ("camarl.envs.predator_prey", "PredatorPrey.step")),
          "collect_wins_per_s, eval_episodes_per_s; train_steps_per_s on "
          "lj-icl-pp-acd"),
    Layer("envs.scripted_act",
          (("camarl.envs.scripted", "ScriptedPolicy.act"),),
          "collect_wins_per_s"),
    Layer("envs.make_env",
          ((_TRAINER, "make_env"), ("camarl.marl.evaluate", "make_env"),
           ("camarl.acd.dataset", "make_env")),
          "collect_wins_per_s", starts_group=True),
    Layer("envs.oracle",
          (("camarl.acd.dataset", "episode_ground_truth_arrays"),
           (_TRAINER, "oracle_episode_bits")),
          "collect_wins_per_s; train_steps_per_s on lj-icl-pp-acd"),
    Layer("marl.act",
          ((_AGENT, "AgentLearner.act"), (_AGENT, "AgentLearner.q_values")),
          "train_steps_per_s and eval_episodes_per_s on lj-icl-pp-acd"),
    Layer("marl.collect_episode", ((_TRAINER, "collect_episode"),),
          "train_steps_per_s on lj-icl-pp-acd"),
    Layer("marl.build_batch", ((_TRAINER, "build_batch"),),
          "train_steps_per_s on sk3-acd-marl"),
    Layer("marl.train_step", ((_AGENT, "AgentLearner.train_step"),),
          "train_steps_per_s on sk3-acd-marl"),
    Layer("marl.replay_sample",
          (("camarl.marl.replay", "ReplayBuffer.sample"),),
          "train_steps_per_s on sk3-acd-marl"),
    Layer("marl.evaluate",
          ((_TRAINER, "evaluate"), ("camarl.marl", "evaluate")),
          "eval_episodes_per_s", starts_group=True),
    Layer("nn.rmsprop_update",
          ((_AGENT, "rmsprop_update"),
           ("camarl.acd.training", "rmsprop_update")),
          "train_steps_per_s on both workloads, acd_epoch_s; not "
          "eval_episodes_per_s or collect_wins_per_s"),
    Layer("nn.qnet_unroll_fwd", (("camarl.nn.kernels", "qnet_unroll_fwd"),),
          "train_steps_per_s, most on lj-icl-pp-acd"),
    Layer("nn.qnet_unroll_bwd", (("camarl.nn.kernels", "qnet_unroll_bwd"),),
          "train_steps_per_s, most on lj-icl-pp-acd"),
    Layer("nn.qnet_step", (("camarl.nn.kernels", "qnet_step"),),
          "eval_episodes_per_s; train_steps_per_s on lj-icl-pp-acd"),
    Layer("nn.tape_backward", (("camarl.acd.training", "backward"),),
          "acd_epoch_s"),
    Layer("nn.save_checkpoint",
          (("camarl.nn.checkpoint", "save_checkpoint"),),
          "end-of-run cost of every operation that writes files"),
    Layer("acd.preprocess",
          (("camarl.acd.training", "preprocess"),
           ("camarl.acd.inference", "preprocess")),
          "train_steps_per_s on sk3-acd-marl (not on lj-icl-pp-acd), "
          "acd_eval_samples_per_s"),
    Layer("acd.encode", (("camarl.acd.model", "AcdModel.encode"),),
          "acd_epoch_s", starts_group=True),
    Layer("acd.decode", (("camarl.acd.model", "AcdModel.decode"),),
          "acd_epoch_s"),
    Layer("acd.elbo_loss", (("camarl.acd.training", "elbo_loss"),),
          "acd_epoch_s"),
    Layer("acd.predict_c", (("camarl.acd.inference", "predict_c"),),
          "train_steps_per_s on sk3-acd-marl, acd_eval_samples_per_s"),
)

# counts taken from collect_dataset's stats at the collect boundary
COLLECT_COUNTS = ("acd.collect.attempts", "acd.collect.wins",
                  "acd.collect.win_ratio", "acd.collect.delivered_ratio")

SPAN_STATS = ("self_s", "calls", "p50_ms", "tail_ms")


# -- tracer ------------------------------------------------------------------

class Tracer:
    """Spans kept in memory as parallel lists, written out at the end."""

    def __init__(self):
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.groups = [], []
        self.stack = []
        self.group = 0

    def open(self, name, starts_group=False, root=False):
        if root or (starts_group and len(self.stack) == 1):
            self.group += 1
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.groups.append(self.group)
        self.ends.append(None)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def root(self, name):
        """An operation timed by the benchmark itself."""
        idx = self.open(name, root=True)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name, fn, starts_group=False):
        names, stack = self.names, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and names[stack[-1]] == name:
                return fn(*args, **kwargs)
            idx = self.open(name, starts_group)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def records(self):
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                 "group": g}
                for i, (n, s, e, p, g) in enumerate(zip(
                    self.names, self.starts, self.ends, self.parents,
                    self.groups))]

    def write(self, path):
        with open(path, "w") as f:
            for rec in self.records():
                f.write(json.dumps(rec) + "\n")


def _resolve(module_path, attr_path):
    import importlib

    owner = importlib.import_module(module_path)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # getattr raises here when a patched name no longer exists
    getattr(owner, attr)
    return owner, attr


@contextmanager
def patched(tracer, layers=LAYERS):
    """Install every layer's wrappers; restore the originals on exit."""
    saved = []
    try:
        for layer in layers:
            for module_path, attr_path in layer.targets:
                owner, attr = _resolve(module_path, attr_path)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr,
                        tracer.wrap(layer.name, original, layer.starts_group))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- summaries ---------------------------------------------------------------

def self_times(starts, ends, parents):
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in starts]
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, kids in enumerate(children):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for s, e in sorted((max(starts[k], lo), min(ends[k], hi))
                           for k in kids):
            if e <= s:
                continue
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def tail_value(values, beyond=10):
    """The highest order statistic with `beyond` or more samples above it.

    Returns (value, percentile).  Below 2 * beyond + 1 samples that
    statistic would sit under the median, so the median is returned.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n < 2 * beyond + 1:
        return statistics.median(xs), 50.0
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n


def summarize(tracer, layers=LAYERS):
    """Per-layer self time, call count, per-call p50 and tail."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    by_name = {}
    for name, s, e, own in zip(tracer.names, tracer.starts, tracer.ends,
                               selfs):
        acc = by_name.setdefault(name, ([], [0.0]))
        acc[0].append(e - s)
        acc[1][0] += own
    out, tails = {}, {}
    for layer in layers:
        durations, own = by_name.get(layer.name, ([], [0.0]))
        stats = {"self_s": own[0], "calls": len(durations)}
        if durations:
            tail, q = tail_value(durations)
            stats["p50_ms"] = 1e3 * statistics.median(durations)
            stats["tail_ms"] = 1e3 * tail
            tails[layer.name] = q
        out[layer.name] = stats
    return out, tails
