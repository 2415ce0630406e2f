"""The benchmark's trace spans and kernel layer still find the library.

``perfbench/spans.py`` wraps library names by module and attribute path,
and ``perfbench/kernel_layer.py`` runs ``benchmarks/bench_kernels.py``.
Loading them here makes a refactor that renames or moves one of those
names fail in tier-1, not only in a traced benchmark run.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


def _lookup(module_path, attr_path):
    owner = importlib.import_module(module_path)
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    return owner


def test_span_targets_patch_and_restore():
    spans = _load_perfbench("spans")
    targets = [t for layer in spans.LAYERS for t in layer.targets]
    assert targets
    before = {t: _lookup(*t) for t in targets}
    with spans.patched(spans.Tracer()):
        for t in targets:
            assert _lookup(*t) is not before[t], t
    for t in targets:
        assert _lookup(*t) is before[t], t


def test_acting_and_rollout_spans_are_called():
    # a span that patches a name nothing calls any more records zero
    # calls; check the rollout, acting and update spans on a tiny run
    from camarl import marl

    spans = _load_perfbench("spans")
    tracer = spans.Tracer()
    cfg = marl.TrainConfig(env_id="lj", trainer="icl", seed=0,
                           total_steps=200, eval_interval=100,
                           eval_episodes=2, epsilon_anneal_episodes=5,
                           batch_size=2, n_hidden=8)
    with spans.patched(tracer):
        result = marl.train(cfg)
        marl.evaluate(result.learners, "lj", 3, seed=0)
    calls = {name: tracer.names.count(name)
             for name in ("marl.act", "nn.qnet_step", "marl.collect_episode",
                          "envs.make_env", "marl.evaluate",
                          "marl.build_batch", "marl.replay_sample",
                          "marl.train_step")}
    assert min(calls.values()) >= 1, calls


@pytest.mark.parametrize("env_id", ["lj", "pp", "sk3"])
def test_env_spans_are_called(env_id):
    # envs.step patches one step per family, so each family's step must
    # record calls on its own; a scripted collection also acts through
    # the scripted policy and scores its wins with the oracle
    from camarl import acd

    spans = _load_perfbench("spans")
    tracer = spans.Tracer()
    with spans.patched(tracer):
        acd.collect_dataset(env_id, 1, seed=0, attempt_factor=200)
    calls = {name: tracer.names.count(name)
             for name in ("envs.step", "envs.scripted_act", "envs.oracle",
                          "envs.make_env")}
    assert min(calls.values()) >= 1, calls


def test_acd_spans_are_called():
    # the ACD spans patch the training loop's module globals and the
    # model's methods; a refactor that stops calling one of them shows
    # here as a span with zero calls
    from camarl import acd, marl

    spans = _load_perfbench("spans")
    tracer = spans.Tracer()
    samples = acd.collect_dataset("sk3", 4, seed=0)
    cfg = marl.TrainConfig(env_id="sk3", trainer="acd-marl", seed=0,
                           total_steps=40, eval_interval=20,
                           eval_episodes=1, epsilon_anneal_episodes=5,
                           batch_size=2, n_hidden=8)
    # acd.preprocess patches two module globals; count each caller's
    # calls so that inlining either one shows as a zero
    preprocess_calls = [0]
    with spans.patched(tracer):
        fit = acd.train_acd(samples, epochs=1, batch_size=2, seed=0,
                            enc_hidden=8, dec_hidden=8)
        preprocess_calls.append(tracer.names.count("acd.preprocess"))
        acd.evaluate_accuracy(fit.model, samples)
        preprocess_calls.append(tracer.names.count("acd.preprocess"))
        marl.train(cfg, bits_fn=acd.make_bits_fn(fit.model, "sk3"))
        preprocess_calls.append(tracer.names.count("acd.preprocess"))
    calls = {name: tracer.names.count(name)
             for name in ("acd.encode", "acd.decode", "acd.elbo_loss",
                          "nn.tape_backward", "nn.rmsprop_update",
                          "acd.preprocess", "acd.predict_c")}
    assert min(calls.values()) >= 1, calls
    # under train_acd, evaluate_accuracy, and make_bits_fn in train
    per_phase = [b - a for a, b in zip(preprocess_calls, preprocess_calls[1:])]
    assert min(per_phase) >= 1, per_phase


def test_save_checkpoint_span_sees_every_writer(tmp_path):
    # the writers import save_checkpoint when called, so the span's patch
    # of camarl.nn.checkpoint reaches them; a writer that binds the name
    # at import time records zero calls here
    from camarl import acd, marl

    spans = _load_perfbench("spans")
    tracer = spans.Tracer()
    samples = acd.collect_dataset("sk3", 2, seed=0)
    cfg = marl.TrainConfig(env_id="sk3", trainer="idql", seed=0,
                           total_steps=20, eval_interval=10,
                           eval_episodes=1, epsilon_anneal_episodes=5,
                           batch_size=2, n_hidden=8)
    counts = [0]
    with spans.patched(tracer):
        acd.save_dataset(tmp_path / "dataset.ckpt", samples)
        counts.append(tracer.names.count("nn.save_checkpoint"))
        acd.train_acd(samples, epochs=1, batch_size=2, seed=0, enc_hidden=8,
                      dec_hidden=8, out_dir=tmp_path / "fit")
        counts.append(tracer.names.count("nn.save_checkpoint"))
        marl.train(cfg, out_dir=tmp_path / "run")
        counts.append(tracer.names.count("nn.save_checkpoint"))
    # under save_dataset, train_acd and train
    per_writer = [b - a for a, b in zip(counts, counts[1:])]
    assert min(per_writer) >= 1, per_writer


def test_kernel_layer_times_every_declared_kernel(tmp_path):
    from camarl import accel

    kernel_layer = _load_perfbench("kernel_layer")
    times, status = kernel_layer.run(tmp_path)
    assert not status.startswith("failed"), status
    declared = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]
        if m["name"].startswith("kernel.")}
    assert {f"kernel.{kernel_layer.kernel_key(case)}.ms"
            for case in times["numpy"]} == declared
    assert accel.BACKEND == "numpy"
