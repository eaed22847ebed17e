"""Spans recorded around dmpo's public functions, installed from outside.

A span is (name, start, end, parent). The wrappers replace the attribute a
caller resolves at call time -- a module global such as
``dmpo.meanflow.dispersive_loss`` or a class attribute such as
``dmpo.nets.Adam.step`` -- and ``patched`` puts every original back when it
exits. A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np


def resolve(path: str):
    """'dmpo.nets.Adam' -> the class; 'dmpo.meanflow' -> the module."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


@contextlib.contextmanager
def patched(replacements):
    """Install ``(owner, attr, make_wrapper)`` triples; restore on exit.

    The attribute must be defined on ``owner`` itself, so a function that was
    renamed or moved in ``dmpo`` raises here instead of going unmeasured.
    """
    saved = []
    try:
        for owner, attr, make_wrapper in replacements:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """In-memory span store for one traced unit of work."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.span_k: dict[int, int] = {}  # sampler span index -> K requested

    def wrap(self, name: str, fn, note=None):
        """Wrap ``fn`` so each call records a span; ``note(tracer, idx, args,
        kwargs, out)`` adds layer counts after a call that returned."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if note is not None:
                note(self, idx, args, kwargs, out)
            return out

        return traced

    def install(self, targets):
        """Context that wraps every ``(owner_path, attr, span_name, note)``."""
        return patched(
            [
                (resolve(owner), attr, functools.partial(self.wrap, name, note=note))
                for owner, attr, name, note in targets
            ]
        )

    def arrays(self):
        """(name ids, parent indices, durations in ns), one entry per span."""
        return np.asarray(self.name_id), np.asarray(self.parent), np.asarray(self.end) - np.asarray(self.start)

    def summary(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, total self time in ns)."""
        ids, par, dur = self.arrays()
        has = par >= 0
        child = np.bincount(par[has], weights=dur[has], minlength=dur.size)
        self_ns = dur - child
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=self_ns, minlength=n)
        return {name: (int(calls[i]), float(total[i])) for i, name in enumerate(self.names)}

    def child_counts(self, parent_names, child_name) -> dict[int, int]:
        """span index of each ``parent_names`` span -> its direct ``child_name`` children."""
        ids, par, _ = self.arrays()
        pid = [self._ids[n] for n in parent_names if n in self._ids]
        out = {int(i): 0 for i in np.flatnonzero(np.isin(ids, pid))}
        cid = self._ids.get(child_name)
        if cid is not None:
            for p in par[(ids == cid) & (par >= 0)]:
                if int(p) in out:
                    out[int(p)] += 1
        return out


def merged_summary(tracers) -> dict[str, tuple[int, float]]:
    total: dict[str, tuple[int, float]] = {}
    for t in tracers:
        for name, (calls, ns) in t.summary().items():
            c0, n0 = total.get(name, (0, 0.0))
            total[name] = (c0 + calls, n0 + ns)
    return total
