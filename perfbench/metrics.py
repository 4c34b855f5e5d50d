"""Metric arithmetic of the GrOUT benchmark (no I/O; unit-tested).

Every function here takes plain numbers, so test_metrics.py can check it on
synthetic series.
"""

import math
import re
import statistics

# A metric name starts with a letter or digit and has at most 64 letters,
# digits, '_', '.' and '-'; a unit has at most 16 letters, digits, '_', '/',
# '%', '.' and '-'.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# A reported tail percentile must have at least this many samples above it.
MIN_BEYOND = 10


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return UNIT_RE.fullmatch(unit) is not None


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail_percentile(samples, p, min_beyond=MIN_BEYOND):
    """Nearest-rank percentile `p`, lowered until `min_beyond` samples lie
    strictly beyond the reported rank.

    Returns (value, percentile_used, sample_count). With too few samples for
    any such rank (n <= min_beyond) the median is returned, with
    percentile_used = 50.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    if n <= min_beyond:
        return median(ordered), 50.0, n
    rank = max(1, math.ceil(p / 100.0 * n))  # 1-based nearest rank
    if rank <= n - min_beyond:
        return ordered[rank - 1], float(p), n
    rank = n - min_beyond
    return ordered[rank - 1], 100.0 * rank / n, n


def mean_of_group_medians(values, groups):
    """Median of each group's values, averaged over the groups: every group
    (here, the CPU a pass ran on) weighs the same however many samples it
    has."""
    by_group = {}
    for v, g in zip(values, groups):
        by_group.setdefault(g, []).append(v)
    if not by_group:
        raise ValueError("no samples")
    return sum(median(vs) for vs in by_group.values()) / len(by_group)


def geomean(values):
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def failed_frac(failed, attempted):
    if attempted <= 0:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed count outside [0, attempted]")
    return failed / attempted


def goodput_tail_ratio(times, start, end):
    """Events per unit time in the last tenth of [start, end] over the first
    tenth. Both windows have the same length, so this is a count ratio."""
    if end <= start:
        raise ValueError("window has no duration")
    width = 0.1 * (end - start)
    first = sum(1 for t in times if start <= t <= start + width)
    last = sum(1 for t in times if end - width < t <= end)
    if first == 0:
        raise ValueError("nothing in the first tenth of the window")
    return last / first


def max_rate_under_slo(rungs, slo):
    """Highest ladder rate whose run drained with p99 under `slo`.

    `rungs` are (rate, drained, p99) tuples. Between the highest passing rung
    and the next rung up the rate is interpolated linearly on p99, so the
    result moves continuously as latency does; when the next rung misses
    only because it did not drain, the passing rung's rate is returned.
    Returns 0.0 when no rung passes.
    """
    rungs = sorted(rungs)
    best = None
    for i, (_, drained, p99) in enumerate(rungs):
        if drained and p99 <= slo:
            best = i
    if best is None:
        return 0.0
    rate, _, p99 = rungs[best]
    if best + 1 == len(rungs):
        return rate
    next_rate, _, next_p99 = rungs[best + 1]
    if next_p99 <= slo or next_p99 <= p99:
        return rate
    return rate + (next_rate - rate) * (slo - p99) / (next_p99 - p99)


def spread(values):
    """Distance between the first and third quartile over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
