import pytest

from measure import (error_rate, highest_percentile, percentile, rank,
                     samples_beyond)
from workloads import Outcome


def test_rank_is_exact_nearest_rank():
    # 0.99 * 1000 is 990.0000000000001 in floating point; the rank must be 990
    assert rank("99", 1000) == 990
    assert rank("50", 1) == 1
    assert rank("99.9", 10000) == 9990


def test_percentile_nearest_rank():
    assert percentile(range(1, 101), "50") == 50
    assert percentile(range(1, 1001), "99") == 990
    assert percentile([3.0, 1.0, 2.0], "50") == 2.0


@pytest.mark.parametrize("n, tail", [
    (19, None), (20, "50"), (99, "50"), (100, "90"), (999, "90"),
    (1000, "99"), (9999, "99"), (10000, "99.9"), (100000, "99.99"),
])
def test_highest_percentile_keeps_ten_samples_beyond(n, tail):
    assert highest_percentile(n) == tail
    if tail is not None:
        assert samples_beyond(tail, n) >= 10


def test_error_rate_base_is_every_attempted_operation():
    outcome = Outcome()
    outcome.operation(True, "fine")
    outcome.operation(False, "raised")
    outcome.operation(False, "output check failed")
    outcome.operation(True, "fine")
    assert (outcome.failed, outcome.attempted) == (2, 4)
    assert error_rate(outcome.failed, outcome.attempted) == 0.5
    assert outcome.problems == ["raised", "output check failed"]
    assert error_rate(0, 7) == 0.0


@pytest.mark.parametrize("failed, attempted", [(0, 0), (3, 2), (-1, 4)])
def test_error_rate_rejects_impossible_counts(failed, attempted):
    with pytest.raises(ValueError):
        error_rate(failed, attempted)


def test_reference_loops_take_their_share_of_the_operation():
    import calibration
    from harness import CALIBRATION_SHARE, _calibrate
    walls, cpus = [], []
    _calibrate(0.5, walls, cpus)
    assert len(walls) == len(cpus) >= 1
    assert sum(walls) >= CALIBRATION_SHARE * 0.5
    assert sum(walls[:-1]) < CALIBRATION_SHARE * 0.5
    wall, cpu = calibration.sample()
    assert wall > 0 and cpu > 0
