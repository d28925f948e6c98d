"""Outside-in layer tracer: exclusive (self) host time per program layer.

The program has no tracing of its own that adds up, so this module adds
it from outside.  :meth:`LayerTracer.install` wraps, in place:

* every public method of every class defined in a layer's modules, and
  every public module-level function of those modules (rebound in every
  ``repro`` module that imported it by name);
* the callbacks handed to ``Simulator.schedule``, ``at`` and ``every``,
  so each dispatched event is charged to the layer of the module that
  owns its function -- that is how private event handlers such as
  ``ExecutionEngine._finish_task`` land in ``executor``.

Each wrapper opens a span on one stack.  A span's self time is its
duration minus the time of the spans it directly encloses, so the self
times of all layers sum exactly to the duration of the outermost spans;
``coverage`` compares that sum to the wall time the caller measured
around them.  Spans stay in memory; :attr:`LayerTracer.spans` holds raw
``(id, parent, name, start, end)`` records only while recording is
switched on.  :meth:`uninstall` restores every patched attribute.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Module-name prefix -> layer; the longest matching prefix wins.
#: Modules matching none (``repro.obs``, ``repro.core.config_io``, ...)
#: are not wrapped, so their time is charged to whichever layer calls
#: them.
LAYER_PREFIXES: Dict[str, str] = {
    "repro.sim": "sim",
    "repro.experiments": "experiments",
    "repro.core.system": "system",
    "repro.core.executor": "executor",
    "repro.noc": "noc",
    "repro.mapping": "mapping",
    "repro.core.mapping": "mapping",
    "repro.power.meter": "power.meter",
    "repro.power": "power.control",
    "repro.testing": "testing",
    "repro.core.scheduler": "testing",
    "repro.core.criticality": "testing",
    "repro.aging": "aging",
    "repro.platform.thermal": "thermal",
    "repro.platform": "platform",
    "repro.metrics": "metrics",
    "repro.workload": "workload",
    "repro.campaign.runner": "campaign.plan",
    "repro.campaign.spec": "campaign.plan",
    "repro.campaign.store": "campaign.store",
    "repro.campaign.executor": "campaign.executor",
    "repro.campaign.report": "campaign.report",
    "repro.cache": "cache",
    "repro.telemetry": "telemetry",
}

#: Every layer, in the order tables print them.
LAYERS: Tuple[str, ...] = (
    "experiments", "sim", "system", "executor", "noc", "mapping",
    "power.meter", "power.control", "testing", "aging", "thermal",
    "platform", "metrics", "workload", "campaign.plan", "campaign.store",
    "campaign.executor", "cache", "telemetry", "campaign.report",
)


@functools.lru_cache(maxsize=None)
def layer_of(module: Optional[str]) -> Optional[str]:
    """The layer a module belongs to, or ``None`` for unwrapped modules."""
    for prefix in sorted(LAYER_PREFIXES, key=len, reverse=True):
        if module and (module == prefix or module.startswith(prefix + ".")):
            return LAYER_PREFIXES[prefix]
    return None


class LayerTracer:
    """A span stack plus per-layer self-time and call-count totals."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        #: Raw span records while recording, else ``None``.
        self.spans: Optional[List[Tuple[int, int, str, float, float]]] = None
        self._stack: List[List[float]] = []  # [child_s, span_id] per open span
        self._next_id = 1
        self._patched: List[Tuple[object, str, object]] = []
        self._patched_keys: set = set()

    # ------------------------------------------------------------------
    def span(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span charged to ``layer``."""
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def traced(*args, **kwargs):
            frame = [0.0, 0]
            spans = self.spans
            if spans is not None:
                frame[1] = self._next_id
                self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                if spans is not None:
                    parent = int(stack[-1][1]) if stack else 0
                    spans.append((int(frame[1]), parent, name, start, end))

        traced.__wrapped__ = fn
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            try:
                setattr(traced, attr, getattr(fn, attr))
            except AttributeError:
                pass
        return traced

    def callback(self, action: Callable) -> Callable:
        """An event callback wrapped in a span of its owning layer."""
        module = getattr(action, "__module__", None)
        name = getattr(action, "__qualname__", None) or repr(action)
        return self.span(layer_of(module) or "sim", f"event:{name}", action)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public surface (idempotent per tracer)."""
        if self._patched:
            return
        self._wrap_simulator_callbacks()
        modules = [
            (name, module)
            for name, module in sorted(sys.modules.items())
            if module is not None and layer_of(name) is not None
        ]
        rebind: Dict[int, Callable] = {}
        for mod_name, module in modules:
            layer = layer_of(mod_name)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(value) and value.__module__ == mod_name:
                    self._wrap_class(value, layer)
                elif (
                    inspect.isfunction(value)
                    and value.__module__ == mod_name
                    and id(value) not in rebind
                ):
                    rebind[id(value)] = self.span(
                        layer, f"{layer}:{value.__qualname__}", value
                    )
        # Rebind wrapped functions wherever ``from m import f`` copied them.
        for name, module in sorted(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = rebind.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patch(module, attr, wrapper)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}:{cls.__name__}.{attr}"
            if isinstance(value, staticmethod):
                self._patch(
                    cls, attr, staticmethod(self.span(layer, name, value.__func__))
                )
            elif isinstance(value, classmethod):
                self._patch(
                    cls, attr, classmethod(self.span(layer, name, value.__func__))
                )
            elif inspect.isfunction(value):
                self._patch(cls, attr, self.span(layer, name, value))

    def _wrap_simulator_callbacks(self) -> None:
        """Scheduling methods that also wrap the callback they are given."""
        from repro.sim.engine import Simulator

        for attr in ("schedule", "at", "every"):
            original = vars(Simulator)[attr]

            def scheduling(sim, when, action, *args, _original=original, **kwargs):
                return _original(sim, when, self.callback(action), *args, **kwargs)

            self._patch(
                Simulator, attr, self.span("sim", f"sim:Simulator.{attr}", scheduling)
            )

    def _patch(self, owner: object, attr: str, value: object) -> None:
        """Replace ``owner.attr``; the first patch of an attribute wins."""
        if (id(owner), attr) in self._patched_keys:
            return
        self._patched_keys.add((id(owner), attr))
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        self._patched_keys = set()
