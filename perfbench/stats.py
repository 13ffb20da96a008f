"""Summary statistics of the benchmark: medians, the tail rule, span self
time, failure share and the two-sided comparison verdict.

Kept apart from run.py so test_stats.py can check them without a build.
"""

import math
import statistics

# A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values):
    """Median of a sample set; 0.0 when it is empty."""
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest of p90, p99, p99.9, ... with at least ten samples beyond.

    Returns (value, percentile, count). The percentile 100 * (1 - 10**-k)
    leaves floor(n / 10**k) samples above its nearest-rank value, so it is
    p90 below 1000 samples, p99 from 1000 and p99.9 from 10000. Below 100
    samples even p90 leaves fewer than ten beyond it; p90 by nearest rank is
    returned all the same (the maximum for fewer than 10 samples). Keeping
    the percentile fixed over a range of counts, rather than always taking
    the eleventh-largest sample, gives the tail more samples beyond it and
    so a steadier value from run to run.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    k = 1
    while n // 10 ** (k + 1) >= TAIL_MIN_BEYOND:
        k += 1
    ordered = sorted(values)
    index = n - n // 10 ** k - 1
    return ordered[index], 100.0 * (1.0 - 10.0 ** -k), n


def failed_frac(attempted, failed):
    """Failed, refused or shed operations over operations attempted."""
    return failed / attempted if attempted > 0 else 0.0


def overhead_pct(untraced_ops, traced_ops):
    """Tracing overhead: the traced run's median op over the untraced run's
    median op of the same seed, minus one, in percent; 0.0 without ops."""
    untraced, traced = median(untraced_ops), median(traced_ops)
    if untraced <= 0 or traced <= 0:
        return 0.0
    return 100.0 * (traced / untraced - 1.0)


def _covered(interval, children):
    """Length of the part of `interval` covered by the union of `children`."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children)
    covered, end = 0.0, lo
    for a, b in clipped:
        if b <= end:
            continue
        covered += b - max(a, end)
        end = b
    return covered


def self_times(events):
    """Self time per layer from Chrome trace events.

    Each event is a dict with "cat" (layer), "ts", "dur" and "args" holding
    "id" and "parent". A span's self time is its duration minus the part of
    its interval its child spans cover. Returns {layer: total self time} in
    the events' time unit.
    """
    children = {}
    for e in events:
        parent = e["args"].get("parent", -1)
        if parent >= 0:
            children.setdefault(parent, []).append(
                (e["ts"], e["ts"] + e["dur"]))
    totals = {}
    for e in events:
        interval = (e["ts"], e["ts"] + e["dur"])
        own = e["dur"] - _covered(interval, children.get(e["args"]["id"], []))
        totals[e["cat"]] = totals.get(e["cat"], 0.0) + own
    return totals


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Compare two result sets of one metric on one workload.

    `parent` and `change` map seed -> value. A gain needs the change to win
    at least nine tenths of the seed pairs (ties count for neither side)
    and the medians to differ by more than the parent's own quartile
    spread. Without a gain, a metric with a bound is a regression when the
    change's median is worse than the parent's by more than the bound, and
    unresolved when the parent's spread is wider than the bound, unless
    every change run beats every parent run.
    """
    sign = -1.0 if better == "lower" else 1.0
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    if not pairs:
        return "no pairs"
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pmed, p3 = quartiles(list(parent.values()))
    cmed = median(list(change.values()))
    gain_size = sign * (cmed - pmed)
    if wins >= 0.9 * len(pairs) and gain_size > p3 - p1:
        return "gain"
    if bound is None:
        return "no gain"
    if all(sign * (c - p) > 0 for c in change.values()
           for p in parent.values()):
        return "no gain"
    if pmed != 0 and (p3 - p1) / abs(pmed) > bound:
        return "unresolved"
    if pmed != 0 and -gain_size / abs(pmed) > bound:
        return "regression"
    return "within bound"
