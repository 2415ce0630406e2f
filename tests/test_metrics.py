"""Event credits, behaviour balance, curve aggregation, SVG rendering."""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from camarl.envs import OBS_DIM, env_spec, make_env
from camarl.errors import (
    ConfigurationError, IncompatibleInputsError, UsageError)
from camarl.marl import AgentLearner, read_log, team_policy
from camarl.marl.trainer import write_log
from camarl.metrics import (
    CurvePoint, aggregate_curves, balance_index, bar_chart, line_chart,
    save_svg, write_curve)
from camarl.nn.checkpoint import read_csv


# ------------------------------------------------------------ event credits

def test_capture_credits_participants_only():
    # agents 1 and 2 catch prey 0; agent 0 stands two cells away and
    # agent 3 is alone, so neither is credited
    env = make_env("pp", 1)
    env.prey_alive = [True, True]
    env.agent_pos = [[7, 5], [7, 7], [7, 8], [0, 0]]
    env.prey_pos = [[7, 7], [0, 13]]
    credits = np.zeros(4, dtype=np.int64)
    for _ in range(10):
        credits += env.step([4, 4, 4, 4]).events
    np.testing.assert_array_equal(credits, [0, 1, 1, 0])


def test_shots_counted_per_damaging_attack():
    # agents 0 and 2 hit enemy 0 every step; agent 1 attacks out of range
    env = make_env("sk3", 6)
    env.agent_hp = [10 ** 6] * 3
    env.enemy_hp = [10 ** 6] * 3
    credits = np.zeros(3, dtype=np.int64)
    for _ in range(6):
        env.agent_pos = [[5, 4], [0, 9], [5, 6]]
        env.enemy_pos = [[5, 5], [9, 0], [9, 1]]
        credits += env.step([5, 5, 5]).events
    np.testing.assert_array_equal(credits, [6, 0, 6])


def test_event_conservation_random_episodes():
    spec = env_spec("lj")
    rng = np.random.default_rng(0)
    learners = AgentLearner(OBS_DIM, spec.n_actions, n_hidden=8,
                            seed=list(range(spec.n_agents)))
    total_credits = 0
    total_participants = 0
    for k in range(5):
        env = make_env("lj", 100 + k)
        act = team_policy(learners, 1.0, rng)
        obs = env._obs()
        credits = np.zeros(spec.n_agents, dtype=np.int64)
        while True:
            standing = np.array(env.tree_alive)
            res = env.step(act(obs[None], None)[0])
            felled = standing & ~np.array(env.tree_alive)
            # participants: agents on the cell of a tree felled this step
            agents, trees = np.array(env.agent_pos), np.array(env.tree_pos)
            total_participants += int((agents[None, :, :]
                                       == trees[felled][:, None, :])
                                      .all(axis=2).sum())
            credits += res.events
            obs = res.obs
            if res.done:
                break
        assert credits.min() >= 0
        total_credits += int(credits.sum())
    assert total_participants > 0
    assert total_credits == total_participants


# ---------------------------------------------------------------- behaviour

def test_balance_index_values():
    assert balance_index([3, 3, 3, 3]) == 1.0
    assert balance_index([7, 0, 0, 0]) == pytest.approx(0.0)
    assert balance_index([0, 0, 0, 0]) == 1.0
    expected = 1.0 - 0.25 / (math.sqrt(3.0) / 4.0)
    assert balance_index([5, 5, 0, 0]) == pytest.approx(expected)
    with pytest.raises(UsageError):
        balance_index([4])
    with pytest.raises(UsageError):
        balance_index([1, -1])


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=2,
                max_size=8))
def test_balance_index_bounds_and_permutation(counts):
    idx = balance_index(counts)
    assert -1e-12 <= idx <= 1.0 + 1e-12
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(counts))
    assert balance_index(np.asarray(counts)[perm]) == pytest.approx(idx)


# ------------------------------------------------------------------- curves

def _log(values, steps=None):
    steps = steps if steps is not None else list(range(len(values)))
    return [{"step": s, "eval_return_mean": v} for s, v in zip(steps, values)]


def test_identical_logs_zero_ci():
    logs = [_log([1.0, 2.0, 3.0])] * 4
    pts = aggregate_curves(logs)
    assert [p.mean for p in pts] == [1.0, 2.0, 3.0]
    assert all(p.ci95 == 0.0 for p in pts)


def test_two_seed_mean():
    pts = aggregate_curves([_log([0.0]), _log([10.0])])
    assert pts[0].mean == 5.0


def test_three_seed_t_interval():
    pts = aggregate_curves([_log([1.0]), _log([2.0]), _log([3.0])])
    assert pts[0].mean == 2.0
    assert pts[0].ci95 == pytest.approx(2.484, abs=1e-3)
    exact = stats.t.ppf(0.975, 2) / math.sqrt(3.0)
    assert pts[0].ci95 == pytest.approx(exact, rel=1e-12)


def test_single_seed_warns_zero_ci():
    with pytest.warns(UserWarning):
        pts = aggregate_curves([_log([4.0, 5.0])])
    assert [p.ci95 for p in pts] == [0.0, 0.0]


def test_mismatched_steps_rejected():
    with pytest.raises(IncompatibleInputsError):
        aggregate_curves([_log([1.0, 2.0]), _log([1.0, 2.0], steps=[0, 5])])
    with pytest.raises(UsageError):
        aggregate_curves([])


def test_mean_within_seed_envelope():
    rng = np.random.default_rng(3)
    logs = [_log(rng.normal(size=6)) for _ in range(5)]
    for j, p in enumerate(aggregate_curves(logs)):
        vals = [log[j]["eval_return_mean"] for log in logs]
        assert min(vals) <= p.mean <= max(vals)


def test_ci_never_widens_when_adding_the_mean_curve():
    rng = np.random.default_rng(4)
    for trial in range(20):
        logs = [_log(rng.normal(size=4) * 10) for _ in
                range(int(rng.integers(2, 7)))]
        base = aggregate_curves(logs)
        mean_log = _log([p.mean for p in base])
        widened = aggregate_curves(logs + [mean_log])
        for b, w in zip(base, widened):
            assert w.ci95 <= b.ci95 + 1e-12


def test_log_roundtrip(tmp_path):
    rows = [{"step": 0, "episode": 0, "eval_return_mean": -3.5,
             "eval_return_ci95": 0.25, "win_rate": 0.0, "epsilon": 1.0,
             "event_count_agent_0": 0.0, "event_count_agent_1": 2.5},
            {"step": 120, "episode": 7, "eval_return_mean": 1.75,
             "eval_return_ci95": 0.1, "win_rate": 0.5, "epsilon": 0.9,
             "event_count_agent_0": 1.0, "event_count_agent_1": 0.5}]
    write_log(tmp_path / "log.csv", rows, 2)
    back = read_log(tmp_path / "log.csv", 2)
    assert back == rows
    # a team of three reads a third event column
    with pytest.raises(ConfigurationError, match="event_count_agent_2"):
        read_log(tmp_path / "log.csv", 3)
    write_log(tmp_path / "empty.csv", [], 2)
    with pytest.raises(UsageError):
        read_log(tmp_path / "empty.csv", 2)
    with pytest.raises(UsageError):
        read_log(tmp_path / "missing.csv", 2)
    # a cell that is not a number, and a row short of a cell
    for body in ("step,episode,win_rate\n0,1,x\n", "step,episode\n0\n"):
        (tmp_path / "bad.csv").write_text(body)
        with pytest.raises(ConfigurationError):
            read_log(tmp_path / "bad.csv", 2)
    (tmp_path / "bad.csv").write_bytes(b"step\n\xff\n")
    with pytest.raises(ConfigurationError):
        read_log(tmp_path / "bad.csv", 2)


def read_curve(path):
    """Read back the CSV that write_curve writes."""
    return [CurvePoint(step=int(r["step"]), mean=float(r["mean"]),
                       ci95=float(r["ci95"])) for r in read_csv(path)]


def test_curve_roundtrip(tmp_path):
    pts = [CurvePoint(0, -1.234567890123, 0.5), CurvePoint(100, 2.0, 0.0)]
    write_curve(tmp_path / "c.csv", pts)
    assert read_curve(tmp_path / "c.csv") == pts


# ---------------------------------------------------------------------- svg

def _series():
    return {"idql": [CurvePoint(0, -1.0, 0.5), CurvePoint(10, 0.5, 0.25),
                     CurvePoint(20, 1.5, 0.1)],
            "icl": [CurvePoint(0, -1.0, 0.4), CurvePoint(10, 1.0, 0.2),
                    CurvePoint(20, 2.5, 0.1)]}


def test_line_chart_well_formed_and_deterministic():
    svg = line_chart(_series(), title="returns", xlabel="step",
                     ylabel="return")
    assert svg == line_chart(_series(), title="returns", xlabel="step",
                             ylabel="return")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    polygons = [e for e in root.iter() if e.tag.endswith("polygon")]
    assert len(polylines) == 2
    assert len(polygons) == 2  # one confidence band per series
    assert "returns" in svg


def test_line_chart_no_band_when_ci_zero():
    series = {"solo": [CurvePoint(0, 1.0, 0.0), CurvePoint(5, 2.0, 0.0)]}
    svg = line_chart(series)
    assert "<polygon" not in svg
    with pytest.raises(UsageError):
        line_chart({})
    with pytest.raises(UsageError):
        line_chart({"x": []})


def test_bar_chart_structure():
    groups = {"idql": [5, 0, 1, 2], "icl": [2, 2, 2, 2]}
    svg = bar_chart(groups, title="events per agent", ylabel="count")
    root = ET.fromstring(svg)
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    # 8 bars + 2 legend swatches + background
    assert len(rects) == 11
    with pytest.raises(UsageError):
        bar_chart({"a": [1, 2], "b": [1]})
    with pytest.raises(UsageError):
        bar_chart({})


def test_save_svg(tmp_path):
    path = tmp_path / "chart.svg"
    save_svg(path, bar_chart({"x": [1.0, 2.0]}))
    assert path.read_text().startswith("<svg")
    ET.fromstring(path.read_text())


class _UnprintableFloat(float):
    def __repr__(self):
        raise RuntimeError("repr failed")


@pytest.mark.parametrize("write", [
    # the header and the first row go out before the second row fails
    lambda p: write_curve(p, [CurvePoint(0, 1.0, 0.0),
                              CurvePoint(5, _UnprintableFloat(2.0), 0.0)]),
    lambda p: save_svg(p, b"<svg/>"),
], ids=["write_curve", "save_svg"])
def test_output_writers_that_raise_keep_previous_file(tmp_path, write):
    path = tmp_path / "out"
    path.write_text("earlier\n")
    with pytest.raises((RuntimeError, TypeError)):
        write(path)
    assert path.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
