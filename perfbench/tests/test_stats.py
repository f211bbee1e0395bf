import pytest

from perfbench.stats import percentile


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile(values, 0) == 1
    assert percentile(values, 0.5) == 1
    assert percentile(values, 1.01) == 2


def test_percentile_ignores_input_order_and_float_noise():
    values = list(range(1000, 0, -1))
    # 1000 * 99.9 / 100 is 999.0000000000001 in floats: rank 999, not 1000.
    assert percentile(values, 99.9) == 999
    assert percentile([3.0], 99) == 3.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 101)

