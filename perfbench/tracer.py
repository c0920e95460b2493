"""Outside-in tracing of radarmag's public functions.

The tracer replaces each named function at every place the radarmag
package holds a reference to it (module globals, dicts held in module
globals such as the CLI dispatch table, and class attributes for methods),
so calls made from inside the library are seen as well as calls made by
the benchmark.  Nothing under ``src/`` is changed; ``remove()`` puts every
original back.

Each call becomes a span (name, start, end, parent) kept in memory.  Self
time is a span's duration minus the time covered by its direct children.
``tracemalloc`` runs only while a span marked ``peak`` is open; nested peak
spans share one tracemalloc trace and each records its own peak above the
traced size at its entry.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
import warnings
from collections import defaultdict

MIB = float(1 << 20)


class Segment:
    """Aggregate of the spans and counters recorded between two ``take`` calls."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.dur_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.peak_mb = defaultdict(float)
        self.row_predict_s: list[float] = []


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self._stack: list[int] = []
        self._peak_stack: list[list[int]] = []   # [traced size at entry, highest peak seen]
        self._patches: list[tuple] = []
        self.counters = defaultdict(float)
        self.peak_mb = defaultdict(float)
        self.row_predict_s: list[float] = []
        self.distinct: dict[str, set] = defaultdict(set)
        self._keep_alive: list = []
        self._warn_registry: dict = {}

    # -- installation ---------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every (module, qualname, span name, options) target at all import sites."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "radarmag" or n.startswith("radarmag."))]
        for module_name, qualname, name, opts in targets:
            owner = sys.modules[module_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(name, original, **opts), setattr)
                continue
            original = getattr(owner, qualname)
            wrapper = self._wrap(name, original, **opts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper, setattr)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch(value, k, original, wrapper, dict.__setitem__)

    def _patch(self, holder, key, original, wrapper, setter) -> None:
        setter(holder, key, wrapper)
        self._patches.append((holder, key, original, setter))

    def remove(self) -> None:
        for holder, key, original, setter in reversed(self._patches):
            setter(holder, key, original)
        self._patches.clear()

    @property
    def sites(self) -> list[tuple]:
        """(holder, key, original) for every patched site, for checks."""
        return [(h, k, o) for h, k, o, _ in self._patches]

    def _wrap(self, name, fn, peak=False, before=None, observe=None, count_warnings=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, peak, before, observe, count_warnings, args, kwargs)
        wrapper.perfbench_traced = True
        return wrapper

    # -- spans ------------------------------------------------------------

    def _call(self, name, fn, peak, before, observe, count_warnings, args, kwargs):
        if before is not None:
            before(self, args, kwargs)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(idx)
        if peak:
            self._peak_enter()
        caught = None
        start = time.perf_counter()
        try:
            if count_warnings:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            span[1] = start
            if peak:
                self.peak_mb[name] = max(self.peak_mb[name], self._peak_exit())
            self._stack.pop()
        if caught:
            retries = [w for w in caught if issubclass(w.category, UserWarning)]
            self.counters[name + ".retries"] += len(retries)
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                       registry=self._warn_registry)
        if observe is not None:
            observe(self, idx, args, kwargs, result)
        return result

    def _peak_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._peak_stack:
            outer = self._peak_stack[-1]
            outer[1] = max(outer[1], peak)
        tracemalloc.reset_peak()
        self._peak_stack.append([current, current])

    def _peak_exit(self) -> float:
        _, peak = tracemalloc.get_traced_memory()
        entry = self._peak_stack.pop()
        entry[1] = max(entry[1], peak)
        if self._peak_stack:
            outer = self._peak_stack[-1]
            outer[1] = max(outer[1], entry[1])
        else:
            tracemalloc.stop()
        return (entry[1] - entry[0]) / MIB

    def ancestors(self, idx: int):
        parent = self.spans[idx][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def duration(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def keep_alive(self, obj) -> None:
        """Hold obj until the segment ends, so its id() cannot be reused."""
        self._keep_alive.append(obj)

    def take(self) -> Segment:
        """Aggregate everything recorded since the last take, then reset."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        seg = Segment()
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, children):
            seg.calls[name] += 1
            seg.dur_s[name] += end - start
            seg.self_s[name] += end - start - covered
        seg.counters.update(self.counters)
        for key, values in self.distinct.items():
            seg.counters[key] += len(values)
        seg.peak_mb.update(self.peak_mb)
        seg.row_predict_s = self.row_predict_s
        self.spans = []
        self.counters = defaultdict(float)
        self.peak_mb = defaultdict(float)
        self.row_predict_s = []
        self.distinct = defaultdict(set)
        self._keep_alive = []
        return seg
