"""Layer tracing from outside the library.

The tracer replaces chosen library callables with wrappers while it is
installed and puts every original back when it is removed.  Two kinds of
wrapper exist:

* span wrappers record (name, start, end, parent span, op id) in flat
  in-memory arrays, so self time can be computed afterwards as a span's
  duration minus the time its direct children cover;
* count wrappers only bump a counter; they sit on the hot leaves
  (``FIntegral.eval`` / ``log_eval``, millions of calls per suite) where a
  span would cost more than the work it measures.

Module-level functions are patched at every binding site: ``from .x import f``
copies the name into the importing module, so the tracer scans every loaded
``darbouxkit`` module for attributes that are the original object.  Methods
are patched on the class, which also covers frozen dataclasses.
"""

from __future__ import annotations

import itertools
import sys
import time
from array import array
from typing import Callable

import numpy as np


class Tracer:
    """Install wrappers, collect spans and counts, restore the originals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._op = [-1]
        self._counters: dict[str, itertools.count] = {}
        self.branch_counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- bookkeeping ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def set_op(self, op_id: int) -> None:
        """Tag the spans that start from now on with ``op_id``."""
        self._op[0] = op_id

    def bump(self, key: str) -> None:
        self.branch_counts[key] = self.branch_counts.get(key, 0) + 1

    def count(self, key: str) -> int:
        """Calls seen by the count wrapper ``key`` (0 if it never fired)."""
        counter = self._counters.get(key)
        # itertools.count has no getter and next() would advance it; its repr
        # is "count(N)" with N the next value, i.e. the calls so far
        return 0 if counter is None else int(repr(counter)[6:-1])

    # -- wrappers -------------------------------------------------------------

    def span_wrapper(
        self, fn: Callable, name: str, classify: Callable | None = None
    ) -> Callable:
        """Wrap ``fn`` in a span; ``classify(args, kwargs)`` may pick the name."""
        fixed = self.name_id(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        stack, op = self._stack, self._op
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(fixed if classify is None else classify(args, kwargs))
            parents.append(stack[-1])
            ops.append(op[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, fn: Callable, key: str) -> Callable:
        tick = self._counters.setdefault(key, itertools.count()).__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------------

    def patch_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def patch_function(self, fn: Callable, wrapper: Callable, package: str) -> int:
        """Rebind ``fn`` to ``wrapper`` in every loaded module of ``package``."""
        sites = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)
                    sites += 1
        if sites == 0:
            raise RuntimeError(f"no binding site found for {fn.__qualname__}")
        return sites

    def restore(self) -> None:
        """Undo every patch, last first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.span_op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        spans = self.span_arrays()
        dur = spans["end"] - spans["start"]
        child = np.zeros(len(dur))
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], dur[has_parent])
        out: dict[str, dict[str, float]] = {}
        k = len(self.names)
        calls = np.bincount(spans["name"], minlength=k)
        total = np.bincount(spans["name"], weights=dur, minlength=k)
        self_s = np.bincount(spans["name"], weights=dur - child, minlength=k)
        for i, name in enumerate(self.names):
            out[name] = {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have a span ``ancestor`` above them."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0
        spans = self.span_arrays()
        names, parent = spans["name"], spans["parent"]
        has_parent = parent >= 0
        pidx = np.where(has_parent, parent, 0)
        direct = has_parent & (names[pidx] == self._name_ids[ancestor])
        # widen "under" one generation per step until the call tree is covered
        under = direct
        while True:
            wider = direct | (has_parent & under[pidx])
            if np.array_equal(wider, under):
                break
            under = wider
        return int(np.count_nonzero(under & (names == self._name_ids[name])))

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.span_arrays())
