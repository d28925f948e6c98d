"""Process-variation model (per-core speed and leakage spread).

At 16 nm no two cores of a die are equal: within-die variation gives each
core its own maximum frequency and leakage.  Variation matters to this
paper twice over: it is one of the reasons cores must be *tested
individually* (a slow corner core fails at settings its neighbours
tolerate), and it skews the power/performance accounting that the budget
manager works with.

We use the standard decomposition into a smooth **systematic** component
(a random-orientation spatial gradient across the die, from lens/focus
effects) plus an i.i.d. **random** component per core:

``factor = 1 + systematic(x, y) + N(0, sigma_random)``

Speed factors multiply a core's effective frequency at every DVFS level;
leakage factors multiply its static power.  Fast cores leak more (the
classic inverse correlation), controlled by ``leak_speed_coupling``.
"""

from __future__ import annotations

import math
import random

from repro.core.config_io import VariationParameters
from repro.platform.chip import Chip


class VariationModel:
    """Draws and applies per-core speed/leakage factors."""

    def __init__(
        self,
        params: VariationParameters = VariationParameters(),
        rng: random.Random = None,
    ) -> None:
        self.params = params
        self.rng = rng if rng is not None else random.Random(0)

    def apply(self, chip: Chip) -> None:
        """Assign ``speed_factor`` and ``leak_factor`` to every core."""
        p = self.params
        angle = self.rng.uniform(0.0, 2.0 * math.pi)
        gx, gy = math.cos(angle), math.sin(angle)
        half_w = max(1.0, (chip.width - 1) / 2.0)
        half_h = max(1.0, (chip.height - 1) / 2.0)
        for core in chip:
            # Gradient position in [-1, 1] along the drawn orientation.
            u = ((core.x - half_w) / half_w) * gx + ((core.y - half_h) / half_h) * gy
            systematic = p.sigma_systematic * u
            rand = self.rng.gauss(0.0, p.sigma_random)
            speed = 1.0 + systematic + rand
            speed = max(p.min_factor, min(p.max_factor, speed))
            core.speed_factor = speed
            # Fast cores leak more: couple leakage to the speed delta.
            leak = 1.0 + p.leak_speed_coupling * (speed - 1.0)
            core.leak_factor = max(0.5, leak)

    @staticmethod
    def spread(chip: Chip) -> float:
        """Max/min ratio of applied speed factors (1.0 when uniform)."""
        factors = [core.speed_factor for core in chip]
        low = min(factors)
        if low <= 0:
            raise ValueError("non-positive speed factor on chip")
        return max(factors) / low
