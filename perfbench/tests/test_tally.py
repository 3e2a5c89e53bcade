import pytest

from tally import Tally, tail
from workloads import Op


def test_tail_is_the_sample_with_ten_beyond_it():
    latencies = [float(i) for i in range(100)]
    pct, value = tail(latencies[::-1])
    assert pct == pytest.approx(90.0)
    assert value == 89.0
    assert sum(1 for x in latencies if x > value) == 10


def test_tail_at_the_smallest_sample_count():
    pct, value = tail([5.0] + [1.0] * 10)
    assert pct == pytest.approx(100.0 / 11)
    assert value == 1.0


def test_tail_below_eleven_samples_is_the_maximum():
    assert tail([1.0] * 9 + [3.0]) == (100.0, 3.0)


def test_adjusted_scales_each_window_by_its_host_speed():
    t = Tally([Op("a", "k", None)])
    t.note_speed(0.0, 1.0, 2.0)
    t.record(1.0, None, None)
    t.record(2.0, None, None)
    t.note_speed(5.0, 6.0, 2.0)    # window 1: samples 2.0 and 2.0, wall 5.0 - 1.0
    t.record(3.0, None, None)
    t.note_speed(10.0, 11.0, 6.0)  # window 2: samples 2.0 and 6.0, wall 10.0 - 6.0
    latencies, wall = t.adjusted(1.0)
    assert latencies == pytest.approx([0.5, 1.0, 0.75])
    assert wall == pytest.approx(4.0 * 0.5 + 4.0 * 0.25)


def test_failure_counting():
    ops = [Op(kind, key, None) for kind, key in
           (("a", "k1"), ("b", "k2"), ("c", "k3"), ("d", "k4"), ("e", "k5"))]
    t = Tally(ops)
    t.record(0.1, 1.0, None)
    t.record(0.1, None, "ValueError: raised")
    t.record(0.1, 3.0, "exit 1")
    t.record(0.1, 4.0, None)
    t.record(0.1, 5.0, None)
    t.record(0.1, 1.0, None)      # k1 again, same result: fine
    t.record(0.1, None, "ValueError: raised")
    t.record(0.1, 3.0, None)
    t.record(0.1, 4.5, None)      # k4 differs from its first result
    t.record(0.1, 5.0, None)
    t.check_errors["k5"] = "wrong value"  # both k5 ops fail their check
    assert t.attempted == 10
    assert t.failed == 2 + 1 + 2 + 2
    assert set(t.failures()) == {"k2", "k3", "k4", "k5"}
    assert t.first == {"k1": 1.0, "k3": 3.0, "k4": 4.0, "k5": 5.0}
    assert t.by_kind()["a"] == [0.1, 0.1]
    assert t.nonconverged == 0


def test_nonconverged_counted_apart_from_failures():
    ops = [Op("a", "k1", None), Op("b", "k2", None)]
    t = Tally(ops)
    for _ in range(3):
        t.record(0.1, 1.0, None)
        t.record(0.1, 2.0, None, nonconverged=True)
    assert t.attempted == 6 and t.failed == 0 and t.nonconverged == 3
    t.check_errors["k2"] = "value != objective"
    assert t.failed == 3 and t.nonconverged == 3
