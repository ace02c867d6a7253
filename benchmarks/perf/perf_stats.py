"""Statistics shared by the runner and the comparer (no program imports).

A *set* is several runs of one commit; a *cell* is one (end-to-end metric,
workload) pairing.  A cell's spread is the distance between the first and
third quartile of its runs as a share of their median — the same number
the benchmark's acceptance check computes.
"""

import statistics


def percentile(values, q):
    """The ``q``-quantile (0..1) of ``values`` by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values):
    return percentile(values, 0.5)


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return ratio(q3 - q1, mid)


def cell_values(runs, workload, metric):
    """One cell's value in each of ``runs`` (passes written by run.py)."""
    return [run["workloads"][workload]["metrics"][metric]["value"]
            for run in runs]


def worse_by(base, other, better):
    """By what share of ``base`` the value ``other`` is worse (negative
    when it is better), given which direction is ``better``."""
    change = ratio(other - base, base)
    return change if better == "lower" else -change


def verdict(a, b, better, bound):
    """Compare a cell's runs of commit A (the base) with those of B,
    paired in run order, by the choosing-metrics guide's section 8.

    ``improved``: B wins at least nine tenths of the pairs (ties count
    for neither) and the medians differ by more than A's own
    inter-quartile distance.  ``regressed``: B's median is worse than A's
    by more than ``bound``.  ``unresolved``: the run-to-run spread is
    wider than ``bound``, so neither "regressed" nor "unchanged" can be
    told — unless every run of B is on one side of every run of A.
    """
    q1, mid_a, q3 = quartiles(a)
    mid_b = quartiles(b)[1]
    pairs = list(zip(a, b))
    wins = sum(worse_by(x, y, better) < 0 for x, y in pairs)
    worse = worse_by(mid_a, mid_b, better)
    noisy = max(spread(a), spread(b)) > bound
    worst_a = max(a) if better == "lower" else min(a)
    best_a = min(a) if better == "lower" else max(a)
    all_better = all(worse_by(worst_a, y, better) < 0 for y in b)
    all_worse = all(worse_by(best_a, y, better) > 0 for y in b)
    if worse < 0 and wins >= 0.9 * len(pairs) and abs(mid_b - mid_a) > q3 - q1:
        return "improved"
    if worse > bound:
        return "regressed" if all_worse or not noisy else "unresolved"
    if noisy and not all_better:
        return "unresolved"
    return "unchanged"
