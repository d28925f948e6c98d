"""TGFF-style random task-graph generation.

The original evaluation drives the platform with synthetic task graphs (the
group's papers use TGFF-generated mixes).  We reproduce the statistical
shape with a layered-DAG generator: tasks are arranged in layers, each
non-root task draws 1..max_fanin predecessors from the previous layers, and
operation counts / communication volumes / activity factors are drawn from
profile-specified ranges.  Everything is driven by an injected RNG stream,
so a workload is a pure function of (seed, profile).

The generator keeps each graph as its drawn numbers
(:meth:`ApplicationGraph.from_draws`): a memoized arrival trace holds
every app that arrives, and only the admitted ones ever need their
``Task`` and ``Edge`` objects.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.workload.application import ApplicationGraph

#: Priority order of real-time classes, most urgent first.
RT_CLASSES = {"hard-rt": 0, "soft-rt": 1, "best-effort": 2}


@dataclass(frozen=True)
class ApplicationProfile:
    """Statistical shape of one class of applications."""

    name: str
    n_tasks: Tuple[int, int] = (4, 12)
    ops: Tuple[float, float] = (2e5, 2e6)
    max_fanin: int = 3
    comm_volume: Tuple[float, float] = (100.0, 2000.0)
    activity: Tuple[float, float] = (0.6, 1.0)
    layer_width: Tuple[int, int] = (1, 4)
    #: Real-time criticality class (the ICCD'14 mixed-criticality model):
    #: "hard-rt" | "soft-rt" | "best-effort". Drives queue priority and
    #: the power manager's DVFS favouritism.
    rt_class: str = "best-effort"

    def __post_init__(self) -> None:
        if self.rt_class not in RT_CLASSES:
            raise ValueError(
                f"{self.name}: unknown rt_class {self.rt_class!r}; "
                f"known: {sorted(RT_CLASSES)}"
            )
        if self.n_tasks[0] < 1 or self.n_tasks[0] > self.n_tasks[1]:
            raise ValueError(f"{self.name}: bad n_tasks range {self.n_tasks}")
        if self.ops[0] <= 0 or self.ops[0] > self.ops[1]:
            raise ValueError(f"{self.name}: bad ops range {self.ops}")
        if self.max_fanin < 1:
            raise ValueError(f"{self.name}: max_fanin must be >= 1")
        if self.layer_width[0] < 1 or self.layer_width[0] > self.layer_width[1]:
            raise ValueError(f"{self.name}: bad layer_width {self.layer_width}")


#: Profile presets covering the workload mix of a dynamic manycore system:
#: small latency-sensitive jobs, medium pipelines and large compute kernels.
PROFILE_PRESETS = {
    "small": ApplicationProfile(
        name="small", n_tasks=(3, 6), ops=(1e5, 6e5),
        comm_volume=(50.0, 500.0), layer_width=(1, 2),
    ),
    "medium": ApplicationProfile(
        name="medium", n_tasks=(6, 14), ops=(3e5, 2e6),
        comm_volume=(100.0, 2000.0), layer_width=(1, 4),
    ),
    "large": ApplicationProfile(
        name="large", n_tasks=(12, 24), ops=(1e6, 6e6),
        comm_volume=(500.0, 5000.0), layer_width=(2, 6), max_fanin=4,
    ),
    # Mixed-criticality variants (the ICCD'14 workload model): the same
    # structural shapes, tagged with real-time classes.
    "hard-rt-small": ApplicationProfile(
        name="hard-rt-small", n_tasks=(3, 6), ops=(1e5, 6e5),
        comm_volume=(50.0, 500.0), layer_width=(1, 2), rt_class="hard-rt",
    ),
    "soft-rt-medium": ApplicationProfile(
        name="soft-rt-medium", n_tasks=(6, 14), ops=(3e5, 2e6),
        comm_volume=(100.0, 2000.0), layer_width=(1, 4), rt_class="soft-rt",
    ),
}


# A 60 ms trace draws tens of thousands of numbers, and each stdlib call
# costs up to three Python frames (``randint`` -> ``randrange`` ->
# ``_randbelow``).  ``TaskGraphGenerator.generate`` inlines the
# ``random.Random`` methods as CPython 3.10-3.12 define them, so it
# consumes the stream exactly as they do:
#
# * ``randint(a, b)`` is ``a + _randbelow(getrandbits, b - a + 1)``;
# * ``choice(seq)`` is ``seq[_randbelow(getrandbits, len(seq))]``;
# * ``uniform(a, b)`` is ``a + (b - a) * random()``.
#
# The arrival processes inline ``expovariate`` and ``choices`` the same
# way (``repro.workload.arrivals``).


def _randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """``Random._randbelow_with_getrandbits``: an int in ``[0, n)``, n > 0."""
    k = n.bit_length()  # not (n-1): n can be 1, and that still draws
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class TaskGraphGenerator:
    """Generates random :class:`ApplicationGraph` objects from a profile.

    ``rng`` is a ``random.Random``: the generator calls its ``random``
    and ``getrandbits`` the way that class's ``randint``, ``uniform`` and
    ``choice`` would, so a graph is the one those methods would draw.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self._counter = 0

    def generate(self, profile: ApplicationProfile, name: Optional[str] = None) -> ApplicationGraph:
        """Draw one graph; its structure is built when first read."""
        random = self.rng.random
        getrandbits = self.rng.getrandbits
        self._counter += 1
        graph_name = name or f"{profile.name}-{self._counter}"
        low, high = profile.n_tasks
        n_tasks = low + _randbelow(getrandbits, high - low + 1)

        # Partition tasks into layers: layer k holds the ids in
        # [starts[k], starts[k + 1]).
        low, high = profile.layer_width
        starts = [0]
        while starts[-1] < n_tasks:
            width = low + _randbelow(getrandbits, high - low + 1)
            starts.append(starts[-1] + min(width, n_tasks - starts[-1]))

        # Per task, its ops then its activity.
        ops_low, ops_high = profile.ops
        ops_span = ops_high - ops_low
        act_low, act_high = profile.activity
        act_span = act_high - act_low
        values: List[float] = []
        for _ in range(n_tasks):
            values.append(ops_low + ops_span * random())
            values.append(act_low + act_span * random())

        vol_low, vol_high = profile.comm_volume
        vol_span = vol_high - vol_low
        ends: List[int] = []
        for layer in range(1, len(starts) - 1):
            # ``earlier`` (every id of the previous layers) is
            # range(first), the previous layer range(previous, first).
            previous, first = starts[layer - 1], starts[layer]
            max_fanin = min(profile.max_fanin, first)
            for dst in range(first, starts[layer + 1]):
                fanin = 1 + _randbelow(getrandbits, max_fanin)
                # Always keep one edge from the immediately preceding layer so
                # depth translates into pipeline structure, then sample the rest.
                srcs = {previous + _randbelow(getrandbits, first - previous)}
                while len(srcs) < fanin:
                    srcs.add(_randbelow(getrandbits, first))
                for src in sorted(srcs):
                    ends.append(src)
                    ends.append(dst)
                    values.append(vol_low + vol_span * random())
        return ApplicationGraph.from_draws(
            graph_name,
            n_tasks,
            array("d", values),
            array("I", ends),
            rt_class=profile.rt_class,
        )

    def generate_mix(
        self,
        profiles: Sequence[ApplicationProfile],
        weights: Sequence[float],
        count: int,
    ) -> List[ApplicationGraph]:
        """Generate ``count`` graphs drawn from weighted profiles."""
        if len(profiles) != len(weights) or not profiles:
            raise ValueError("profiles and weights must be equal-length, non-empty")
        chosen = self.rng.choices(list(profiles), weights=list(weights), k=count)
        return [self.generate(profile) for profile in chosen]
