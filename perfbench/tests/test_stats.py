"""The tail-percentile rule and open-loop lateness accounting."""

import pytest

from stats import OpenLoop, percentile_value, summarize, tail_percentile


def beyond(n, pct):
    """Samples strictly above the nearest-rank ``pct`` of ``n`` samples."""
    ordered = list(range(n))
    return n - 1 - percentile_value(ordered, pct)


@pytest.mark.parametrize("n, expected", [(1000, 99.0), (5000, 99.0), (500, 98.0), (11, 9.0), (20, 50.0)])
def test_tail_percentile_examples(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("n", [0, 1, 10])
def test_no_tail_without_ten_samples_beyond(n):
    assert tail_percentile(n) is None
    assert summarize(list(range(n)))["tail"] is None


def test_tail_is_the_highest_percentile_with_ten_beyond():
    for n in range(11, 3000):
        pct = tail_percentile(n)
        assert beyond(n, pct) >= 10, n
        if pct < 99.0:
            # one tenth higher would leave fewer than ten samples beyond
            assert beyond(n, round(pct + 0.1, 1)) < 10, n


def test_summarize_reports_count_median_and_tail():
    summary = summarize([float(v) for v in range(1, 1001)])
    assert summary == {"n": 1000, "p50": 500.5, "tail_pct": 99.0, "tail": 990.0}


class FakeTime:
    """A clock in ns that only moves when slept on or when work runs."""

    def __init__(self):
        self.now = 0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += int(round(seconds * 1e9))


def test_open_loop_times_requests_from_their_due_time():
    fake = FakeTime()
    loop = OpenLoop(100.0, clock=fake.clock, sleep=fake.sleep)  # due every 10 ms
    service_ms = {2: 35}  # request 2 stalls for 35 ms; the rest take 1 ms

    def issue(k):
        fake.now += service_ms.get(k, 1) * 1_000_000

    issued = loop.run(issue, 0, lambda due: due < 100_000_000)
    assert issued == 10
    latencies_ms = [v / 1e6 for v in loop.latencies]
    late_ms = [v / 1e6 for v in loop.lateness]
    # requests 3..5 fell due while 2 stalled: their wait counts
    assert latencies_ms == [1, 1, 35, 26, 17, 8, 1, 1, 1, 1]
    assert late_ms == [0, 0, 0, 25, 16, 7, 0, 0, 0, 0]


def test_open_loop_keeps_its_rate_when_the_system_keeps_up():
    fake = FakeTime()
    loop = OpenLoop(50.0, clock=fake.clock, sleep=fake.sleep)
    issued = loop.run(lambda k: None, 5_000, lambda due: due < 1_000_000_000 + 5_000)
    assert issued == 50
    assert set(loop.lateness) == {0}
    assert set(loop.latencies) == {0}


def test_open_loop_rejects_non_positive_rate():
    with pytest.raises(ValueError):
        OpenLoop(0)


def test_speed_scales_each_sample_by_the_nearest_slices():
    from stats import REFERENCE_SLICE_US, Speed

    ref = int(REFERENCE_SLICE_US * 1000)
    speed = Speed()
    speed.SMOOTH = 0  # one slice per factor, to see the nearest-slice rule
    speed.at = [0, 100, 200]
    speed.slice_ns = [ref, 2 * ref, ref // 2]  # reference, half speed, double speed
    assert speed.factors() == [1.0, 0.5, 2.0]
    assert speed.scale([10, 140, 160, 500], [1.0, 1.0, 1.0, 1.0]) == [1.0, 0.5, 2.0, 2.0]
    assert speed.mean_factor() == pytest.approx(3.5 / 3)


def test_speed_smoothing_ignores_one_interrupted_slice():
    from stats import REFERENCE_SLICE_US, Speed

    ref = int(REFERENCE_SLICE_US * 1000)
    speed = Speed()
    speed.at = list(range(5))
    speed.slice_ns = [ref, ref, 10 * ref, ref, ref]
    assert speed.factors() == [1.0] * 5


def test_mix_median_does_not_jump_across_the_gap_between_operation_types():
    from workloads import mix_median

    def run(fast_share):
        n_fast = int(1000 * fast_share)
        ops = ["suspend"] * n_fast + ["destroy"] * (1000 - n_fast)
        values = [30.0 + (i % 7) for i in range(n_fast)] + [70.0 + (i % 7) for i in range(1000 - n_fast)]
        return summarize(values)["p50"], mix_median(ops, values)

    (plain_low, mix_low), (plain_high, mix_high) = run(0.49), run(0.51)
    assert abs(plain_high - plain_low) > 30  # the plain median jumps the gap
    assert abs(mix_high - mix_low) < 1.0
