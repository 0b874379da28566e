"""Order statistics with an explicit sample-count rule, and the
metric-name grammar the benchmark's output keeps to."""

from __future__ import annotations

import math
import re
import statistics

#: a percentile is reported only when at least this many samples lie
#: beyond it, so a tail figure never rests on one or two outliers
MIN_BEYOND = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def samples_beyond(n: int, q: int) -> int:
    """Samples lying above the ``q``-th percentile of ``n`` samples when
    it sits at rank ``q / 100 * (n + 1)`` (``statistics.quantiles``'
    default, exclusive method)."""
    return n - math.floor(q * (n + 1) / 100)


def samples_needed(q: int, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count with ``min_beyond`` samples above the
    ``q``-th percentile."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = 1
    while samples_beyond(n, q) < min_beyond:
        n += 1
    return n


def percentile(samples: list[float], q: int,
               min_beyond: int = MIN_BEYOND) -> float:
    """The ``q``-th percentile (``q`` a whole number), refusing samples
    too small to leave ``min_beyond`` values beyond it.

    Interpolating at rank ``q / 100 * (n + 1)`` matters where the
    samples cluster: on paper-matrix the two slowest compilations are
    exactly a tenth of the samples, and p90 then leans on the lowest of
    them rather than on the highest outlier below them."""
    need = samples_needed(q, min_beyond)
    if len(samples) < need:
        raise TooFewSamples(
            f"p{q} needs {need} samples ({min_beyond} beyond it), "
            f"got {len(samples)}"
        )
    return statistics.quantiles(samples, n=100, method="exclusive")[q - 1]


def relative_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the steadiness figure the benchmark is tuned against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


def check_metric_name(name: str) -> str:
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name
