"""Golden pin: SHA-256 digests of tiny fixed-seed outputs.

The rerun tests compare two runs of the same code; these compare the
code against digests recorded once, so a change that moves any rollout,
mask, update or file layout shows here.  Every rollout caller is
covered: scripted and greedy dataset collection, ACD training, the
three trainers' run directories, and greedy evaluation.  One more
``lj``/``icl`` run clips the gradient norm on every update, so the
clipping kernels are pinned too.  Two ``icl`` runs train at the
benchmark's widths (``BENCH_RUNS``), where the other runs stay at
``n_hidden=8``.  Two more (``EVICT_RUNS``) hold so few episodes in
replay that the buffer evicts on most pushes, which the other runs,
far below their capacity, never do.  One more (``GRID_RUNS``) evaluates
every 40 steps, so one 100-step episode of early random play crosses
several evaluation points at once.  ``acd_pp`` fits the edge model at the
benchmark width (869k parameters), and ``qvalues_lj_icl`` hashes the
acting Q-values and hidden states themselves, which a last-bit change
that flips no argmax would leave the other digests blind to.
``GOLDEN_ENVS`` pins random-action rollouts of every env id on its own:
observations, rewards, reward kinds, wins, events and episode lengths.
``GOLDEN_SCRIPTED`` pins scripted-policy rollouts of every env id
through the rollout loop, won or lost, so the lazy agents' draws and
each family's greedy walk are pinned, not only the winning ``pp`` and
``sk3`` episodes the scripted datasets keep.

The digests were taken with numpy 2.4.6 linked against OpenBLAS
0.3.31 (scipy-openblas build) and Python 3.11.7.  Another numpy or BLAS
may round differently; a mismatch there says nothing about this code.
"""

import hashlib

import numpy as np
import pytest

from camarl import acd, marl
from camarl.envs import ENV_IDS, ScriptedPolicy, make_env

TRAIN = dict(total_steps=300, eval_interval=150, eval_episodes=2,
             epsilon_anneal_episodes=20, target_sync=2, batch_size=4,
             n_hidden=8)
RUNS = (("lj", "icl"), ("lj", "idql"), ("sk3", "acd-marl"))
# runs at the benchmark's widths: the lj team at H = 64 and batch 8, and
# the five-agent sk5 team at batch 32 with every reward masked
BENCH_RUNS = {
    "lj_icl_h64": dict(env_id="lj", n_hidden=64, batch_size=8),
    "sk5_icl_strict": dict(env_id="sk5", strict_mask=True, batch_size=32),
}
# runs whose replay buffer evicts: sk3 at capacity 3 drops about 45
# episodes of mixed length, lj with every reward masked drops 5
EVICT_RUNS = {
    "sk3_icl_cap3": dict(env_id="sk3", buffer_capacity=3),
    "lj_icl_strict_cap4": dict(env_id="lj", strict_mask=True,
                               buffer_capacity=4, total_steps=900,
                               eval_interval=450),
}
# a run whose episodes each cross two or three evaluation points; the
# ones the last episode crosses, 240 and 280, run after it, before 300
GRID_RUNS = {"lj_icl_eval40": dict(env_id="lj", eval_interval=40)}

GOLDEN = {
    "dataset_scripted_pp":
        "c5b36bea72136e192a0e2a8449bac814c81cc40ba999069bd5b88c7dd6d8f906",
    "dataset_scripted_sk3":
        "37ea320ebf7a34c244ef7598c9a3de95c740b048920c4096088d5786a5d1f33c",
    "acd_pp":
        "30572273cca4399f013a8ab4973136c75ce08a74811dd25dcf489bb54fc58628",
    "qvalues_lj_icl":
        "656d69cc25b2cb6a29b22e52ea5d36d0780929882af7ca903f745fbbbbafc9d7",
    "acd_sk3":
        "658d85acced8df980c92e47aecb90bd9bb6bf89edcadd8c227ccb18f61ba795f",
    "train_lj_icl":
        "e8a54675116c88397f6f6912adc5a746746c5901e0fde650cdd0f139f2d27db7",
    "train_lj_idql":
        "cab1a89eca8d7e80bef78406ed89d05e107b283504e48738b38bbbc383fbfb1a",
    "train_sk3_acd-marl":
        "464b7e968e1cceb4b366990a03ff1f128ee3d5952553306e93fc59d80e5eb835",
    "train_lj_icl_clipped":
        "5d38284a751ef8861ceeb13e830fbab0a93da9f63bd56822efaed861aadb0918",
    "eval_lj_icl":
        "2c033e8536b1625e45ae3726ceda19fff88386ec9470d461731e103d85ef0c09",
    "eval_lj_idql":
        "e824c783c1011e4714cdbc894e1d2cb4ab8d7edb49c22732c3afcb8a23efd897",
    "eval_sk3_acd-marl":
        "d8e84c5c8f1be8008ff8347e7d37714c213c8ca635c9eb93c3166d98a2830c78",
    "dataset_greedy_lj-sp":
        "325254f87537ef25d4e7dbdb6421e553f05b9062cf922293853a676f380987f6",
    "dataset_greedy_sk3-sp":
        "3aa498bfd714a480e1c7537eb814643f371cd1e8fcc853a3dcc2e54b21288a61",
    "train_lj_icl_h64":
        "979744ad29b8aa0035cafc20afa19e051fc47d0ee98813db879cdb55e70884c6",
    "train_sk5_icl_strict":
        "eb170fefda776164e988043289d383dcd79fc877bb2a7215d8864fdc9f01a735",
    "train_sk3_icl_cap3":
        "69eba071bc170f0d76d921930a3adddd3a08899f9a0efd8c4fa9b7e9ceb3e55f",
    "train_lj_icl_strict_cap4":
        "8245fa7758368a98e3137ebe75d691f13560aa37066f7ccafe916452ff761c24",
    "train_lj_icl_eval40":
        "4a32056af251bc752770cde728b84b6f1f688621ba5acaa2d5b8bee85c7de666",
}

GOLDEN_ENVS = {
    "pp":
        "a73c40f56b54e1bcfc14f81babedfd58a110948df43c00178c7a40bb5a02fc76",
    "pp-sp":
        "d67ed2680fcfb562d6c96c96b04959385e9e2bb853e9befbe6d2f26c5653f2b8",
    "lj":
        "bf9539a248b2133761e3d2d9f245655d9a16d26f9adb11dab832f16f45901429",
    "lj-sp":
        "222880681879fe381ba0ead858faab1cd1f4ea0e15e4d23521b922296a08d580",
    "sk3":
        "a4fcef10acfbaa11cc663fbfc49a51cdeef5250f25547b5b6497552370309b5c",
    "sk3-sp":
        "49f591a6ed1b8a7bc759fb145890af2e4f1512b44bb24fbc8f1998139acffb57",
    "sk5":
        "c85493734c098e86b29f3843d442b38fd70114c9fd7a3d5dd4def9473a087b0b",
    "sk5-sp":
        "bf63c15661876d51a401d1881f38e292d8ebd1d74304b4bef9cc4b7e00c4c571",
}
ENV_SEEDS = tuple(range(8))

GOLDEN_SCRIPTED = {
    "pp":
        "422a1d01a430e94158977de0d4b9998fda3ae01285738a685f6960f5400deb10",
    "pp-sp":
        "3aea2db4d4bea94f16d3ad3cecfcd22383ca5c9e0d3400195518da9944d4f574",
    "lj":
        "a9e8bc13e0cd38f4f4ff7dae4a7bf19a6fa23399c094d9ffb86e2e1e30dd86b1",
    "lj-sp":
        "41218c3c601c566e6c826bdc46676373aab3f42817d0a0615f1d00f8039db686",
    "sk3":
        "cad957f26b076cc8a6aeb5397d84e7e0dfc90c163669fb0ddb881d574fede016",
    "sk3-sp":
        "94b45062dae7f8858f5e97855cf6fd3eecc692f3c8d0fbca148628e67f8931b8",
    "sk5":
        "1a1f69125512aca94bf4796a20e9ab00cefaa38922e014a647b11f62efe58df3",
    "sk5-sp":
        "ba58d00b9bee6a85895a148a8f5d819b1da306eaa9db79f607402eb99d89ad4f",
}
# lj loses all ten, pp and lj-sp mix wins and losses
SCRIPTED_SEEDS = tuple(range(10))


def _digest_files(paths):
    h = hashlib.sha256()
    for p in sorted(paths, key=lambda p: p.name):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def _digest_eval(s):
    h = hashlib.sha256()
    h.update(np.asarray(s.returns, dtype=np.float64).tobytes())
    h.update(np.asarray(s.per_agent_events, dtype=np.float64).tobytes())
    h.update(repr((s.mean_return, s.ci95, s.win_rate,
                   s.n_episodes)).encode())
    return h.hexdigest()


def _digest_qvalues(learners, env_id, n_envs=5, n_steps=20):
    """Q-values and hidden states of the first steps of a greedy rollout.

    The n_envs episodes roll in lockstep; every learner's (E, A)
    Q-values and (E, 1, H) hidden states of the first n_steps steps are
    hashed in step and agent order, E the envs still running.
    """
    h = hashlib.sha256()
    seeds = np.random.SeedSequence(7).generate_state(n_envs)
    envs = [make_env(env_id, int(s)) for s in seeds]
    hidden = [ln.initial_hidden(n_envs) for ln in learners]
    prev = np.full((n_envs, len(list(learners))), -1)
    steps = 0

    def act(obs, keep):
        nonlocal prev, steps
        if keep is not None:
            prev = prev[keep]
            hidden[:] = [hd[keep] for hd in hidden]
        acts = np.empty_like(prev)
        for i, ln in enumerate(learners):
            q, hidden[i] = ln.q_values(obs[:, i], prev[:, i], hidden[i])
            acts[:, i] = q.argmax(axis=1)
            if steps < n_steps:
                h.update(q.tobytes())
                h.update(hidden[i].tobytes())
        prev = acts
        steps += 1
        return acts

    marl.collect_episodes(envs, act)
    return h.hexdigest()


def _digest_env(env_id):
    """Random-action episodes of one env id, every step hashed."""
    h = hashlib.sha256()
    for seed in ENV_SEEDS:
        env = make_env(env_id, seed)
        rng = np.random.default_rng(seed + 100)
        env.reset(seed)
        h.update(env._obs().tobytes())
        length, done = 0, False
        while not done:
            res = env.step(rng.integers(0, env.spec.n_actions,
                                        size=env.spec.n_agents))
            h.update(res.obs.tobytes())
            h.update(np.float64(res.reward).tobytes())
            h.update(np.asarray(res.events, dtype=np.int64).tobytes())
            h.update(repr((int(res.kind), bool(res.win))).encode())
            length += 1
            done = res.done
        h.update(repr(length).encode())
    return h.hexdigest()


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_env_rollout_digest(env_id):
    assert _digest_env(env_id) == GOLDEN_ENVS[env_id], (
        f"{env_id} rollouts moved")


def _digest_scripted(env_id):
    """Scripted episodes of one env id, one policy across them, every
    record field hashed with its dtype and shape."""
    h = hashlib.sha256()
    policy = ScriptedPolicy(seed=5, lazy_prob=0.5)
    for seed in SCRIPTED_SEEDS:
        env = make_env(env_id, seed)
        policy.begin_episode(env)
        ep = marl.collect_episode(env,
                                  lambda obs, keep: policy.act(env)[None])
        for arr in (ep.obs, ep.actions, ep.rewards, ep.kinds, ep.events):
            h.update(repr((arr.dtype.str, arr.shape)).encode())
            h.update(arr.tobytes())
        h.update(repr(ep.win).encode())
    return h.hexdigest()


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_scripted_rollout_digest(env_id):
    assert _digest_scripted(env_id) == GOLDEN_SCRIPTED[env_id], (
        f"{env_id} scripted rollouts moved")


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    out = {}

    scripted = {}
    for env_id, n in (("pp", 2), ("sk3", 4)):
        scripted[env_id] = samples = acd.collect_dataset(env_id, n, seed=0)
        path = root / f"scripted_{env_id}.ckpt"
        acd.save_dataset(path, samples)
        out[f"dataset_scripted_{env_id}"] = _digest_files([path])

    # the benchmark's edge model: 5 nodes, T = 100, D = 53, enc 128/dec 64
    acd.train_acd(scripted["pp"], epochs=2, batch_size=2, seed=0,
                  enc_hidden=128, dec_hidden=64, out_dir=root / "acd_pp")
    out["acd_pp"] = _digest_files(list((root / "acd_pp").iterdir()))

    fit = acd.train_acd(scripted["sk3"], epochs=2, batch_size=4, seed=0,
                        enc_hidden=16, dec_hidden=16, out_dir=root / "acd")
    out["acd_sk3"] = _digest_files(list((root / "acd").iterdir()))

    learners = {}
    for env_id, trainer in RUNS:
        key = f"{env_id}_{trainer}"
        cfg = marl.TrainConfig(env_id=env_id, trainer=trainer, seed=1,
                               **TRAIN)
        bits_fn = (acd.make_bits_fn(fit.model, env_id)
                   if trainer == "acd-marl" else None)
        run_dir = root / key
        res = marl.train(cfg, bits_fn=bits_fn, out_dir=run_dir)
        out["train_" + key] = _digest_files(list(run_dir.iterdir()))
        out["eval_" + key] = _digest_eval(
            marl.evaluate(res.learners, env_id, 5, seed=3))
        learners[key] = res.learners
    out["qvalues_lj_icl"] = _digest_qvalues(learners["lj_icl"], "lj")

    # every update of this run clips, which the runs above never do
    cfg = marl.TrainConfig(env_id="lj", trainer="icl", seed=1,
                           grad_clip=1e-3, **TRAIN)
    marl.train(cfg, out_dir=root / "lj_icl_clipped")
    out["train_lj_icl_clipped"] = _digest_files(
        list((root / "lj_icl_clipped").iterdir()))

    for key, over in {**BENCH_RUNS, **EVICT_RUNS, **GRID_RUNS}.items():
        cfg = marl.TrainConfig(trainer="icl", seed=1, **{**TRAIN, **over})
        marl.train(cfg, out_dir=root / key)
        out["train_" + key] = _digest_files(list((root / key).iterdir()))

    # greedy collection: the sparse variants are the ones these barely
    # trained teams can win
    for env_id, key in (("lj-sp", "lj_icl"), ("sk3-sp", "sk3_acd-marl")):
        greedy = acd.collect_dataset(env_id, 2, seed=0,
                                     learners=learners[key],
                                     attempt_factor=100)
        path = root / f"greedy_{env_id}.ckpt"
        acd.save_dataset(path, greedy)
        out[f"dataset_greedy_{env_id}"] = _digest_files([path])
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name], (
        f"{name} moved; digests were taken with numpy 2.4.6 / "
        f"OpenBLAS 0.3.31 on the numpy kernel backend")
