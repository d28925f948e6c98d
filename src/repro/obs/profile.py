"""Block profiler: exclusive self time per ``repro`` module.

:class:`Profile` runs a ``with`` block under the standard library's
``cProfile.Profile(builtins=False)`` and sums each Python function's
self time by the module that defines it.  Self times do not nest, so
the rows partition the block's time and add up to the block's wall
time, from the return of the profiler's ``enable()`` to the call of its
``disable()`` (each costs about 10 µs on Python 3.12's cProfile);
:attr:`Profile.coverage` is that sum over the wall time, and what it
misses is the profiler's own bookkeeping, which includes this module's
own frames.  A C function is not a row of its own: its time is charged
to the Python function that called it.  Functions defined outside the
``repro`` package (the standard library, generated dataclass methods)
share one ``(other)`` row.

Nothing in the program is wrapped or patched, so a block computes
exactly what it computes without the profile.  The price is wall time
(about 3x on the simulator's event loop): this is a diagnostic switched
on around a block, not an always-on sink.  Only one profiler can be
active in a process at a time, so blocks must not nest.
"""

from __future__ import annotations

import os
import time
from typing import Dict

from repro._sum import lsum

#: Row that collects the self time of functions defined outside ``repro``.
OTHER = "(other)"

_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PACKAGE_PARENT = os.path.dirname(_PACKAGE_DIR)


def module_of(filename: str) -> str:
    """Dotted ``repro`` module defining a code object's file, else ``OTHER``."""
    path = os.path.abspath(filename)
    if not path.startswith(_PACKAGE_DIR + os.sep) or not path.endswith(".py"):
        return OTHER
    name = os.path.relpath(path[:-3], _PACKAGE_PARENT).replace(os.sep, ".")
    return name[: -len(".__init__")] if name.endswith(".__init__") else name


class Profile:
    """Context manager summing self time and calls per ``repro`` module.

    Re-entering the same instance adds the new block to its rows.
    """

    def __init__(self) -> None:
        #: ``{module: {"calls": n, "self_s": t}}`` over every block so far.
        self.rows: Dict[str, Dict[str, float]] = {}
        #: Wall time of every block so far, in seconds.
        self.wall_s = 0.0
        self._cprofile = None
        self._t0 = 0.0

    def __enter__(self) -> "Profile":
        import cProfile

        self._cprofile = cProfile.Profile(builtins=False)
        self._cprofile.enable()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.wall_s += time.perf_counter() - self._t0
        cprofile, self._cprofile = self._cprofile, None
        cprofile.disable()
        # The raw entries, not ``pstats``: pstats keys functions by
        # (file, line, name), so generated dataclass methods (all
        # ``<string>:2``) would overwrite each other and lose their time.
        for entry in cprofile.getstats():
            module = module_of(entry.code.co_filename)
            if module == __name__:  # __exit__ runs on past the wall's end
                continue
            row = self.rows.setdefault(module, {"calls": 0, "self_s": 0.0})
            row["calls"] += entry.callcount
            row["self_s"] += entry.inlinetime

    @property
    def self_s(self) -> float:
        """Sum of every row's self time, in seconds."""
        return lsum(row["self_s"] for row in self.rows.values())

    @property
    def coverage(self) -> float:
        """Summed self time over wall time (0.0 before any block)."""
        return self.self_s / self.wall_s if self.wall_s > 0 else 0.0

    def summary(self) -> Dict[str, Dict[str, float]]:
        """The rows, largest self time first (ties by module name)."""
        ordered = sorted(
            self.rows.items(), key=lambda item: (-item[1]["self_s"], item[0])
        )
        return {module: dict(row) for module, row in ordered}

    def report(self) -> str:
        """Aligned text table of the rows, then the coverage line."""
        from repro.metrics.report import format_table

        wall = self.wall_s
        rows = [
            [
                module,
                int(row["calls"]),
                row["self_s"] * 1e3,
                100.0 * row["self_s"] / wall if wall > 0 else 0.0,
            ]
            for module, row in self.summary().items()
        ]
        table = format_table(
            ["module", "calls", "self_ms", "share_%"], rows, precision=3,
            title="profile (self time per module)",
        )
        return (
            f"{table}\n"
            f"self {self.self_s * 1e3:.3f} ms of wall {wall * 1e3:.3f} ms "
            f"(coverage {self.coverage:.3f})"
        )
