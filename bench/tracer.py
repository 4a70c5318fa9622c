"""In-memory spans and counters around the public functions of hpclease.

The program binds names with ``from .x import y``, so wrapping a function
where it is defined is not enough: ``rebind`` replaces it in every hpclease
module that holds a reference to it. Methods are wrapped on their class.
Nothing under ``src/`` is changed; ``Tracer.remove`` restores every binding.

A span is ``(name, parent index or -1, start, end)`` with ``perf_counter``
times. Spans of one CLI invocation share one ``Tracer``. Counters are filled
from the arguments and results of the wrapped calls, outside the span's
own interval.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import Counter

# (span name, module, attribute). Several targets may share a span name.
TARGETS = (
    ("env.generate_trace", "env", "generate_trace"),
    ("engine.run", "engine", "run"),
    ("engine.delay_reconstruction", "engine", "_delay_histogram"),
    ("engine.compare_with_oracle", "engine", "compare_with_oracle"),
    ("oracle.solve_dp", "oracle", "solve_dp"),
    ("oracle.validate_schedule", "oracle", "validate_schedule"),
    ("report.emit", "report", "emit"),
    ("report.emit", "report", "run_series_csv"),
    ("report.emit", "report", "comparison_table_csv"),
    ("policy.decide_slot", "policy", "LyapunovPolicy.decide_slot"),
    ("policy.decide_slot", "policy", "StaticBurstPolicy.decide_slot"),
    ("policy.decide_slot", "policy", "QualityPolicy.decide_slot"),
)


def _program_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "hpclease" or name.startswith("hpclease."))
    ]


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every hpclease module name bound to ``original`` at
    ``replacement``; returns the (module, name, old value) undo list."""
    undo = []
    for mod in _program_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


class Tracer:
    """Spans and counters of one traced CLI invocation."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float] | None] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._instances: set[bytes] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, after=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_run(self, args, metrics) -> None:
        self.counts["engine.slots"] += metrics.horizon
        self.counts["engine.conc_slots"] += metrics.k * metrics.horizon
        self.counts["engine.leases"] += int(metrics.purchases_per_slot.sum())

    def _after_solve(self, args, schedule) -> None:
        inst = args[0]
        t, n, m = inst.horizon, inst.n_units, inst.quality_budget
        if n > 0 and t == n:
            self.counts["oracle.forced_calls"] += 1
        elif n > 0:
            self.counts["oracle.dp_states"] += t * (t - n + 1) * (m + 1)
        key = hashlib.sha256()
        for arr in (inst.levels, inst.price_full_microcents, inst.price_reduced_microcents):
            key.update(arr.tobytes())
        key.update(f"{n}/{m}".encode())
        self._instances.add(key.digest())

    @property
    def distinct_instances(self) -> int:
        return len(self._instances)

    def install(self) -> None:
        """Wrap every target that the loaded program has."""
        hooks = {"engine.run": self._after_run, "oracle.solve_dp": self._after_solve}
        for name, module, attr in TARGETS:
            mod = sys.modules.get(f"hpclease.{module}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = vars(owner).get(method) if owner is not None else None
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(name, original, hooks.get(name))
            if owner_name:
                setattr(owner, method, wrapper)
                self._undo.append((owner, method, original))
            else:
                self._undo.extend(rebind(original, wrapper))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int], float]:
        """Per span name: total time, self time (minus direct children) and
        call count; plus the total time of top-level spans."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        top = 0.0
        for i, (name, parent, start, end) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child[i]
            calls[name] += 1
            if parent < 0:
                top += end - start
        return dict(total), dict(self_time), dict(calls), top

    def durations(self, name: str) -> list[float]:
        return [end - start for n, _, start, end in self.spans if n == name]
