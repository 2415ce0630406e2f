"""Self-tests of the benchmark's percentile, self-time, tracing and
speed-scaling helpers.

    python3 -m pytest -q perfbench/test_spans.py
"""

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import spans  # noqa: E402


def test_tail_value_small_samples_fall_back_to_median():
    assert spans.tail_value([3.0, 1.0, 2.0]) == (2.0, 50.0)
    assert spans.tail_value(list(range(20))) == (9.5, 50.0)


def test_tail_value_keeps_ten_samples_beyond():
    xs = list(range(100))
    value, q = spans.tail_value(xs[::-1])
    assert value == 89
    assert q == 90.0
    assert sum(x > value for x in xs) == 10
    value, q = spans.tail_value(list(range(21)))
    assert (value, sum(x > value for x in range(21))) == (10, 10)


def test_tail_value_rejects_empty():
    try:
        spans.tail_value([])
    except ValueError:
        return
    raise AssertionError("empty input accepted")


def test_self_time_subtracts_union_of_children():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] sticks
    # out of the parent; grandchild [1.5, 2] must not count against it
    starts = [0.0, 1.0, 2.0, 8.0, 1.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.0]
    parents = [-1, 0, 0, 0, 1]
    own = spans.self_times(starts, ends, parents)
    assert own[0] == 10.0 - 4.0 - 2.0
    assert own[1] == 2.0 - 0.5
    assert own[2:] == [3.0, 4.0, 0.5]


def test_self_time_of_leaf_is_duration():
    assert spans.self_times([1.0], [4.0], [-1]) == [3.0]


def test_tracer_merges_same_name_nesting_and_groups():
    tr = spans.Tracer()
    inner = tr.wrap("layer.a", lambda: 1)
    outer = tr.wrap("layer.a", lambda: inner() + 1)
    starter = tr.wrap("layer.g", lambda: outer(), starts_group=True)
    with tr.root("op"):
        starter()
        starter()
        outer()
    names = tr.names
    assert names == ["op", "layer.g", "layer.a", "layer.g", "layer.a",
                     "layer.a"]
    assert tr.parents == [-1, 0, 1, 0, 3, 0]
    assert tr.groups == [1, 2, 2, 3, 3, 3]
    summary, _ = spans.summarize(tr, (spans.Layer("layer.a", (), ""),))
    assert summary["layer.a"]["calls"] == 3


def test_patched_restores_originals():
    from camarl.marl import trainer

    original = trainer.build_batch
    tr = spans.Tracer()
    layer = spans.Layer("marl.build_batch",
                        (("camarl.marl.trainer", "build_batch"),), "")
    with spans.patched(tr, (layer,)):
        assert trainer.build_batch is not original
    assert trainer.build_batch is original


def test_patched_fails_on_missing_name():
    tr = spans.Tracer()
    layer = spans.Layer("x", (("camarl.marl.trainer", "no_such_name"),), "")
    try:
        with spans.patched(tr, (layer,)):
            pass
    except AttributeError:
        return
    raise AssertionError("a missing patch target went unnoticed")


def test_clock_scales_by_the_references_around_a_lap():
    refs = iter([0.1, 0.3, 0.2])
    clock = calibrate.Clock(ref=lambda: next(refs))
    first = clock.mark()
    assert first[1] == 0
    lap = clock.lap(first)
    assert lap[0] >= 0.0 and lap[1] == 0
    clock.mark()
    clock.mark()
    nominal = calibrate.NOMINAL_S
    # the median of the references around the interval, two a side
    assert math.isclose(clock.scaled((2.0, 0)), 2.0 * nominal / 0.2)
    assert math.isclose(clock.scaled((1.0, 1)), 1.0 * nominal / 0.2)
    clock.refs.append(0.4)
    assert math.isclose(clock.scaled((1.0, 1)), 1.0 * nominal / 0.25)
    try:
        clock.scaled((1.0, 3))
    except IndexError:
        return
    raise AssertionError("a lap with no closing reference was scaled")


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
    print("ok")
