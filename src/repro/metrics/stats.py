"""Cross-seed replication statistics.

Single-seed numbers from a stochastic simulator are anecdotes; a mean
over seeds is reported with a confidence half-width (the Student-t
interval, since seeds are few), and a detection rate with a binomial
interval.  Everything here is dependency-free and imports no model
code.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Sequence

#: Two-sided 95% Student-t critical values for small sample sizes
#: (df = n - 1); beyond the table we fall back to the normal 1.96.
_T_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
}


@dataclass(frozen=True)
class Estimate:
    """Mean with a 95% confidence half-width."""

    mean: float
    half_width: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def overlaps(self, other: "Estimate") -> bool:
        """Do the two 95% intervals overlap?"""
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g} (n={self.n})"


@dataclass(frozen=True)
class BinomialEstimate:
    """Proportion estimate with a two-sided confidence interval.

    Used by the campaign subsystem for fault-detection probability: each
    injected fault is a Bernoulli trial (detected / escaped), and the
    stopping rule samples runs until the interval is tight enough.
    """

    successes: int
    n: int
    low: float
    high: float
    method: str = "wilson"

    @property
    def point(self) -> float:
        return self.successes / self.n if self.n else 0.0

    @property
    def half_width(self) -> float:
        if self.n == 0:
            return float("inf")
        return (self.high - self.low) / 2.0

    def __str__(self) -> str:
        return (
            f"{self.point:.4g} [{self.low:.4g}, {self.high:.4g}] "
            f"({self.successes}/{self.n}, {self.method})"
        )


def _check_binomial(successes: int, n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not 0 <= successes <= max(n, 0):
        raise ValueError(f"successes must be in [0, n], got {successes}/{n}")


def wilson_interval(
    successes: int, n: int, z: float = 1.96
) -> BinomialEstimate:
    """Wilson score interval for a binomial proportion (95% by default).

    Well-behaved at the boundaries (0/n and n/n stay inside [0, 1]),
    unlike the naive normal interval, which matters for detection rates
    that are routinely exactly 1.0 in short campaigns.
    """
    _check_binomial(successes, n)
    if n == 0:
        return BinomialEstimate(0, 0, 0.0, 1.0, "wilson")
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = (p + z2 / (2.0 * n)) / denom
    margin = (
        z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    )
    return BinomialEstimate(
        successes, n, max(0.0, centre - margin), min(1.0, centre + margin),
        "wilson",
    )


def _binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), via log-space summation."""
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 1.0 if k >= n else 0.0
    log_p = math.log(p)
    log_q = math.log1p(-p)
    total = 0.0
    for i in range(0, k + 1):
        log_pmf = (
            math.lgamma(n + 1)
            - math.lgamma(i + 1)
            - math.lgamma(n - i + 1)
            + i * log_p
            + (n - i) * log_q
        )
        total += math.exp(log_pmf)
    return min(total, 1.0)


def clopper_pearson_interval(
    successes: int, n: int, alpha: float = 0.05
) -> BinomialEstimate:
    """Exact (conservative) Clopper-Pearson interval, dependency-free.

    The beta-quantile endpoints are found by bisecting the binomial tail
    directly (60 iterations ~ 1e-18 interval width), which keeps the
    implementation scipy-free at the cost of O(n) per bisection step —
    fine for campaign-scale fault counts.
    """
    _check_binomial(successes, n)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if n == 0:
        return BinomialEstimate(0, 0, 0.0, 1.0, "clopper-pearson")
    half = alpha / 2.0

    def bisect(objective: Callable[[float], float]) -> float:
        # objective is monotone decreasing in p; find its root in [0, 1].
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if objective(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    if successes == 0:
        low = 0.0
    else:
        # low: P(X >= successes; p) == alpha/2
        low = bisect(
            lambda p: half - (1.0 - _binom_cdf(successes - 1, n, p))
        )
    if successes == n:
        high = 1.0
    else:
        # high: P(X <= successes; p) == alpha/2
        high = bisect(lambda p: _binom_cdf(successes, n, p) - half)
    return BinomialEstimate(successes, n, low, high, "clopper-pearson")


def binomial_interval(
    successes: int, n: int, method: str = "wilson"
) -> BinomialEstimate:
    """Dispatch on the interval method name (``wilson`` | ``clopper-pearson``)."""
    if method == "wilson":
        return wilson_interval(successes, n)
    if method == "clopper-pearson":
        return clopper_pearson_interval(successes, n)
    raise ValueError(f"unknown binomial interval method {method!r}")


def halfwidth_met(
    successes: int, n: int, target: float, method: str = "wilson"
) -> bool:
    """Sequential stopping predicate: is the CI half-width <= ``target``?

    ``n == 0`` (no trials observed yet) never satisfies the rule — an
    empty sample carries no evidence, whatever the target.
    """
    if target <= 0:
        raise ValueError(f"target half-width must be positive, got {target}")
    if n == 0:
        return False
    return binomial_interval(successes, n, method).half_width <= target


def estimate(samples: Sequence[float]) -> Estimate:
    """95% Student-t estimate of the mean of ``samples``."""
    if not samples:
        raise ValueError("need at least one sample")
    n = len(samples)
    mean = statistics.mean(samples)
    if n == 1:
        return Estimate(mean=mean, half_width=float("inf"), n=1)
    sd = statistics.stdev(samples)
    t = _T_95.get(n - 1, 1.96)
    return Estimate(mean=mean, half_width=t * sd / math.sqrt(n), n=n)

