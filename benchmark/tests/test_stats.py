import pytest

from stats import median, nearest_rank, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10_000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_nearest_rank_leaves_ten_samples_beyond_p99_of_1000():
    values = list(range(1, 1001))
    p99 = nearest_rank(values, 99)
    assert p99 == 990
    assert sum(v > p99 for v in values) == 10


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        median([])
