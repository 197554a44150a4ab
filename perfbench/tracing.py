"""Per-layer tracing by wrappers installed from outside the package.

``install`` replaces each traced function of ``gradedcover`` under every
name it is bound to: module globals that imported it by name (``cli``
binds ``parse_expression``, ``lift_super`` and others; ``covering`` binds
``compose``), the package namespace, and class aliases such as
``__rmul__ = __mul__``.  Nothing inside the package changes on disk, and
``uninstall`` puts every original back.

Calls on the hot path (coefficient and polynomial arithmetic, hundreds of
thousands per heavy operation) are not recorded one by one: their count
and time are aggregated into the enclosing span.  Every other traced call
becomes a span with its parent, operation number and self time, kept in
memory until ``write_spans``.

Self time: a span's self time is its duration minus its child spans, so
it includes the hot calls made directly under it (the arithmetic that
``_normed`` runs counts as ``_normed`` time).  A hot call's self time is
its duration minus every traced call inside it.  Time spent in hooks,
which compute size counters after a call returns, is charged to no one.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Frame:
    __slots__ = ("covered", "busy", "holder")

    def __init__(self, holder):
        self.covered = 0.0  # spans and hooks below this call: not a span's self time
        self.busy = 0.0  # every traced call and hook below: not a hot call's self time
        self.holder = holder  # the innermost span at or above this call


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[Frame] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self.op = 0
        self._totals: dict[str, list] = {}  # name -> [calls, self seconds]
        self._patches: list[tuple[object, str, object]] = []

    @property
    def calls(self) -> dict[str, int]:
        return {name: t[0] for name, t in self._totals.items() if t[0]}

    @property
    def self_s(self) -> dict[str, float]:
        return {name: t[1] for name, t in self._totals.items() if t[0]}

    # -- counters, called by hooks after a call has been timed -----------

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, hook=None, hot: bool = False):
        """A function that times ``fn`` as ``name`` and then runs ``hook``.

        The hook sees (tracer, args, kwargs, result) after the clock has
        stopped; its own time is charged to nobody.
        """
        clock, stack, spans = self.clock, self.stack, self.spans
        total = self._totals.setdefault(name, [0, 0.0])
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            holder = None if parent is None else parent.holder
            if not hot:
                holder = {"id": len(spans), "parent": None if holder is None else holder["id"],
                          "op": tracer.op, "name": name, "agg": {}}
                spans.append(holder)
            frame = Frame(holder)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                own = elapsed - (frame.busy if hot else frame.covered)
                total[0] += 1
                total[1] += own
                if not hot:
                    holder["start"], holder["end"], holder["self_s"] = start, end, own
                elif holder is not None:
                    entry = holder["agg"].get(name)
                    if entry is None:
                        holder["agg"][name] = entry = [0, 0.0]
                    entry[0] += 1
                    entry[1] += own
            hook_s = 0.0
            if hook is not None:
                hook(tracer, args, kwargs, result)
                hook_s = clock() - end
            if parent is not None:
                parent.busy += elapsed + hook_s
                parent.covered += (frame.covered if hot else elapsed) + hook_s
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package, targets) -> None:
        """Wrap every (owner, attribute, name, hook, hot) target everywhere it is bound."""
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        namespaces = []
        for module in modules:
            namespaces.append(module)
            namespaces.extend(v for v in vars(module).values()
                              if isinstance(v, type) and v.__module__.startswith(package.__name__))
        for owner, attr, name, hook, hot in targets:
            original = vars(owner)[attr]
            wrapper = self.wrap(name, original, hook, hot)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, value))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._patches):
            setattr(ns, key, value)
        self._patches.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
