import pytest

from perfbench import stats


def test_nearest_rank_returns_measured_values():
    values = [float(v) for v in range(1, 101)]
    assert stats.nearest_rank(values, 50) == 50.0
    assert stats.nearest_rank(values, 90) == 90.0
    assert stats.nearest_rank(values, 99.9) == 100.0
    assert stats.nearest_rank([3.0], 50) == 3.0


@pytest.mark.parametrize("n, label, beyond", [
    (99, "max", 0),        # p90 would leave 9 beyond
    (100, "p90", 10),
    (999, "p90", 99),     # p99 would leave 9 beyond
    (1000, "p99", 10),
    (10000, "p99.9", 10),
])
def test_tail_picks_highest_percentile_with_ten_beyond(n, label, beyond):
    values = [float(v) for v in range(n, 0, -1)]
    value, got_label, got_beyond = stats.tail(values)
    assert (got_label, got_beyond) == (label, beyond)
    assert sum(1 for v in values if v > value) == beyond
    if label == "max":
        assert value == max(values)


def test_tail_of_a_short_run_is_its_maximum():
    assert stats.tail([0.5, 2.0, 1.0]) == (2.0, "max", 0)


def test_quartile_spread_is_relative_to_the_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert stats.quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
