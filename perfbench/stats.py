"""Order statistics for the benchmark's metrics."""

import math

# Stand-in for an infinitely slow (failed) request in printed JSON,
# which has no infinity.
FAILED_MS = 1e12


def pct(values, q):
    """Nearest-rank q-th percentile (q in (0, 100]); failed requests
    enter as +inf and print as FAILED_MS. 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    return FAILED_MS if math.isinf(value) else float(value)


def beyond(count, q):
    """Samples strictly above the nearest-rank q-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def gmean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
