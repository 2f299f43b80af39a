"""The slice and percentile estimators."""

import pytest

import stats


def test_percentile_interpolates_between_ranks():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert stats.percentile(values, 0.0) == 10.0
    assert stats.percentile(values, 0.5) == 30.0
    assert stats.percentile(values, 1.0) == 50.0
    assert stats.percentile(values, 0.9) == pytest.approx(46.0)
    assert stats.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_slices_are_equal_count_and_timed_first_start_to_last_end():
    # 20 ops of 1 ms back to back, then 20 ops of 2 ms: two slices.
    starts, ends, now = [], [], 0
    for cost_ms in [1] * 20 + [2] * 20:
        starts.append(now)
        now += cost_ms * 1_000_000
        ends.append(now)
    rates = stats.slice_rates(starts, ends, slices=2)
    assert rates == [pytest.approx(1000.0), pytest.approx(500.0)]


def test_leftover_ops_join_the_last_slice():
    starts = [i * 1000 for i in range(23)]
    ends = [s + 1000 for s in starts]
    rates = stats.slice_rates(starts, ends, slices=10)
    assert len(rates) == 10
    # 2 ops per slice, 5 in the last: every slice runs at 1 op/us.
    assert all(rate == pytest.approx(1e6) for rate in rates)


def test_fewer_ops_than_slices_still_yields_rates():
    rates = stats.slice_rates([0, 10], [5, 20], slices=10)
    assert len(rates) == 2
