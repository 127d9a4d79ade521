"""The benchmark's own maths: the tail-percentile rule and error rates.
Pure Python, so it can be tested on its own."""

import math
from fractions import Fraction

# Percentiles considered for a tail figure, lowest first.
PERCENTILE_LADDER = ("50", "90", "99", "99.9", "99.99")
MIN_BEYOND = 10


def rank(p, n):
    """1-based nearest-rank position of percentile `p` (a decimal string or
    number) among `n` sorted samples.  Exact arithmetic, so 99% of 1000 is
    rank 990 and not 991."""
    if n < 1:
        raise ValueError("no samples")
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def samples_beyond(p, n):
    """How many of `n` samples lie above the nearest-rank percentile `p`."""
    return n - rank(p, n)


def highest_percentile(n):
    """The highest percentile of PERCENTILE_LADDER with at least MIN_BEYOND
    samples beyond it, or None when even the lowest has too few."""
    best = None
    for p in PERCENTILE_LADDER:
        if n >= 1 and samples_beyond(p, n) >= MIN_BEYOND:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile `p` of `values`."""
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def error_rate(failed, attempted):
    """Failed over attempted operations.  An operation that raised and one
    whose output failed a check both count in `failed`, and both count in
    `attempted`: the base is every operation started."""
    if attempted < 1:
        raise ValueError("error rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must be between 0 and attempted")
    return failed / attempted

