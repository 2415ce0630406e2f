"""Golden pin: SHA-256 digests of tiny fixed-seed outputs.

The rerun tests compare two runs of the same code; these compare the
code against digests recorded once, so a change that moves any rollout,
mask, update or file layout shows here.  Every rollout caller is
covered: scripted and greedy dataset collection, ACD training, the
three trainers' run directories, and greedy evaluation.  One more
``lj``/``icl`` run clips the gradient norm on every update, so the
clipping kernels are pinned too.  ``acd_pp`` fits the edge model at the
benchmark width (869k parameters), and ``qvalues_lj_icl`` hashes the
acting Q-values and hidden states themselves, which a last-bit change
that flips no argmax would leave the other digests blind to.
``GOLDEN_ENVS`` pins random-action rollouts of every env id on its own:
observations, rewards, reward kinds, wins, events and episode lengths.

The digests were taken with numpy 2.4.6 linked against OpenBLAS
0.3.31 (scipy-openblas build) and Python 3.11.7.  Another numpy or BLAS
may round differently; a mismatch there says nothing about this code.
"""

import hashlib

import numpy as np
import pytest

from camarl import acd, marl
from camarl.envs import ENV_IDS, make_env

TRAIN = dict(total_steps=300, eval_interval=150, eval_episodes=2,
             epsilon_anneal_episodes=20, target_sync=2, batch_size=4,
             n_hidden=8)
RUNS = (("lj", "icl"), ("lj", "idql"), ("sk3", "acd-marl"))

GOLDEN = {
    "dataset_scripted_pp":
        "c5b36bea72136e192a0e2a8449bac814c81cc40ba999069bd5b88c7dd6d8f906",
    "dataset_scripted_sk3":
        "37ea320ebf7a34c244ef7598c9a3de95c740b048920c4096088d5786a5d1f33c",
    "acd_pp":
        "2fab38f50a025c256050701ba8d54351ce6749b6fd520b7292ca82f68ecd17bb",
    "qvalues_lj_icl":
        "656d69cc25b2cb6a29b22e52ea5d36d0780929882af7ca903f745fbbbbafc9d7",
    "acd_sk3":
        "bea8aa1e9861645f0b345132af83e3c45ecb11c94cddbec0cad33f38b03920e2",
    "train_lj_icl":
        "e8a54675116c88397f6f6912adc5a746746c5901e0fde650cdd0f139f2d27db7",
    "train_lj_idql":
        "cab1a89eca8d7e80bef78406ed89d05e107b283504e48738b38bbbc383fbfb1a",
    "train_sk3_acd-marl":
        "bb70c78f76e291ef30dd1a0ad989e7fbbf0e2e5072b5f187b68a711466eb2a7f",
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
    hashed in step and agent order.
    """
    h = hashlib.sha256()
    seeds = np.random.SeedSequence(7).generate_state(n_envs)
    envs = [make_env(env_id, int(s)) for s in seeds]
    hidden = [ln.initial_hidden(n_envs) for ln in learners]
    prev = np.full((n_envs, len(learners)), -1)
    steps = 0

    def act(obs):
        nonlocal prev, steps
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
        h.update(env.reset(seed).tobytes())
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
