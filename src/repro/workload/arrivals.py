"""Dynamic workload arrival processes.

Applications arrive by a Poisson process (exponential inter-arrival gaps)
drawn from a weighted mix of profiles.  The whole arrival trace is
materialised up front from its RNG stream: paired experiments (e.g. the
same workload under different test schedulers) then see *bit-identical*
offered load, which is what makes the <1%-penalty claim measurable at all.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from math import isfinite, log
from typing import List, Optional, Sequence, Tuple

from repro.workload.application import ApplicationGraph, ApplicationInstance
from repro.workload.generator import ApplicationProfile, TaskGraphGenerator

# Both processes inline the two ``random.Random`` methods they call, as
# CPython 3.10-3.12 define them (see also repro.workload.generator):
#
# * ``expovariate(lambd)`` is ``-log(1.0 - random()) / lambd``;
# * ``choices(population, weights)[0]`` is
#   ``population[bisect(cum, random() * total, 0, len(cum) - 1)]``, with
#   ``cum`` and ``total`` from :func:`_cumulative_weights`.


def _cumulative_weights(weights: Sequence[float]) -> Tuple[List[float], float]:
    """``Random.choices``' cumulative weights and float total, checked
    as it checks them (once per trace instead of once per draw)."""
    cum = list(accumulate(weights))
    total = cum[-1] + 0.0
    if total <= 0.0:
        raise ValueError("Total of weights must be greater than zero")
    if not isfinite(total):
        raise ValueError("Total of weights must be finite")
    return cum, total


@dataclass(frozen=True, slots=True)
class Arrival:
    """One scheduled application arrival."""

    time: float
    graph: ApplicationGraph

    def instantiate(self, app_id: int) -> ApplicationInstance:
        return ApplicationInstance(app_id, self.graph, self.time)


class PoissonArrivalProcess:
    """Poisson arrivals of applications drawn from a profile mix."""

    def __init__(
        self,
        rate_per_ms: float,
        profiles: Sequence[ApplicationProfile],
        weights: Optional[Sequence[float]] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if rate_per_ms <= 0:
            raise ValueError("arrival rate must be positive")
        if not profiles:
            raise ValueError("need at least one profile")
        self.rate_per_ms = rate_per_ms
        self.profiles = list(profiles)
        self.weights = list(weights) if weights is not None else [1.0] * len(profiles)
        if len(self.weights) != len(self.profiles):
            raise ValueError("weights must match profiles")
        self.rng = rng if rng is not None else random.Random(0)
        self._generator = TaskGraphGenerator(self.rng)

    def generate(self, horizon_us: float) -> List[Arrival]:
        """Arrival trace on ``[0, horizon_us]`` (µs timestamps)."""
        if horizon_us <= 0:
            raise ValueError("horizon must be positive")
        random = self.rng.random
        cum, total = _cumulative_weights(self.weights)
        last = len(cum) - 1
        mean_gap_us = 1000.0 / self.rate_per_ms
        lambd = 1.0 / mean_gap_us
        arrivals: List[Arrival] = []
        t = 0.0
        while True:
            t += -log(1.0 - random()) / lambd
            if t > horizon_us:
                break
            profile = self.profiles[bisect(cum, random() * total, 0, last)]
            arrivals.append(Arrival(time=t, graph=self._generator.generate(profile)))
        return arrivals


class BurstyArrivalProcess(PoissonArrivalProcess):
    """Poisson arrivals modulated by on/off bursts.

    During a burst the rate is multiplied by ``burst_factor``; between
    bursts it drops to the base rate.  This reproduces the "highly dynamic
    workloads" of the ICCD'14 evaluation, which is what separates the PID
    budget controller from the naive policy (experiment E9).
    """

    def __init__(
        self,
        rate_per_ms: float,
        profiles: Sequence[ApplicationProfile],
        weights: Optional[Sequence[float]] = None,
        rng: Optional[random.Random] = None,
        burst_factor: float = 4.0,
        burst_length_us: float = 3000.0,
        quiet_length_us: float = 6000.0,
    ) -> None:
        super().__init__(rate_per_ms, profiles, weights, rng)
        if burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        if burst_length_us <= 0 or quiet_length_us <= 0:
            raise ValueError("burst/quiet lengths must be positive")
        self.burst_factor = burst_factor
        self.burst_length_us = burst_length_us
        self.quiet_length_us = quiet_length_us

    def generate(self, horizon_us: float) -> List[Arrival]:
        if horizon_us <= 0:
            raise ValueError("horizon must be positive")
        random = self.rng.random
        cum, total = _cumulative_weights(self.weights)
        last = len(cum) - 1
        arrivals: List[Arrival] = []
        t = 0.0
        in_burst = False
        phase_end = self.quiet_length_us
        while t <= horizon_us:
            rate = self.rate_per_ms * (self.burst_factor if in_burst else 1.0)
            mean_gap_us = 1000.0 / rate
            t += -log(1.0 - random()) / (1.0 / mean_gap_us)
            while t > phase_end:
                in_burst = not in_burst
                phase_end += (
                    self.burst_length_us if in_burst else self.quiet_length_us
                )
            if t > horizon_us:
                break
            profile = self.profiles[bisect(cum, random() * total, 0, last)]
            arrivals.append(Arrival(time=t, graph=self._generator.generate(profile)))
        return arrivals
