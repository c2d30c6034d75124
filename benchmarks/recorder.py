"""Timing and tracing of calls into pcolor's modules, from outside them.

Every call the benchmark makes into a layer (a module of pcolor) goes
through Recorder.call.  With tracing off it only runs the call; with
tracing on it also keeps a span (name, start, end, parent) in memory.
Spans are grouped under root spans: one per set-up repetition, timed
iteration or CLI phase.  Nothing is written out until the run ends.
"""

import statistics
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("families", "multigraph", "hypergraphs", "spectral", "difference_sets",
          "designs", "bent", "serialize", "cli")


class Raised:
    """Stands in for the result of a verdict call that raised."""

    def __init__(self, exc):
        self.error = repr(exc)

    def __repr__(self):
        return f"Raised({self.error})"


class Recorder:
    def __init__(self, trace):
        self.trace = trace
        self.spans = []         # [name, start, end, parent index or None]
        self.roots = []         # (kind, span index, counts dict)
        self.latencies = []     # per timed iteration: seconds per verdict call
        self.results = []       # (label, value) per verdict call
        self._stack = []
        self._counts = {}
        self._timing_verdicts = False
        self._per_root = None

    @contextmanager
    def root(self, kind, tracing):
        """One set-up repetition, timed iteration or CLI phase.

        Yields a one-element list that receives the root's wall time.
        `tracing` switches span recording for this root only, so a traced
        run can interleave untraced iterations to measure the overhead.
        """
        saved = self.trace
        self.trace = tracing
        self._counts = {}
        self._timing_verdicts = kind == "iteration"
        if self._timing_verdicts:
            self.latencies.append([])
        index = self._open(kind) if tracing else None
        wall = [0.0]
        start = perf_counter()
        try:
            yield wall
        finally:
            wall[0] = perf_counter() - start
            if tracing:
                self._close(index)
                self._counts["spans"] = len(self.spans) - 1 - index
                self.roots.append((kind, index, self._counts))
            self.trace = saved
            self._timing_verdicts = False

    def call(self, layer, fn, *args, **kwargs):
        """Run one public pcolor function, as a span of `layer` when tracing."""
        if not self.trace:
            return fn(*args, **kwargs)
        index = self._open(f"{layer}.{fn.__name__}")
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def verdict(self, label, thunk):
        """Run a zero-argument callable that returns a verdict; keep its
        value (or the exception it raised) and, in a timed iteration, its
        latency."""
        start = perf_counter()
        try:
            value = thunk()
        except Exception as exc:        # a verdict that raises counts as wrong
            value = Raised(exc)
        if self._timing_verdicts:
            self.latencies[-1].append(perf_counter() - start)
        self.results.append((label, value))
        return value

    def count(self, name, amount=1):
        """Add to a counter of the current root (work done, as a count)."""
        self._counts[name] = self._counts.get(name, 0) + amount

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    # ------------------------------------------------------- reporting

    def layer_times(self):
        """Per root: {span name: busy seconds} and {layer: self seconds}.

        A span's self time is its duration minus the part its children
        cover; children never overlap, since calls are sequential.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_root = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            root = i
            while self.spans[root][3] is not None:
                root = self.spans[root][3]
            if root == i:
                continue
            busy, self_time = per_root.setdefault(root, ({}, {}))
            busy[name] = busy.get(name, 0.0) + (end - start)
            layer = name.split(".", 1)[0]
            self_time[layer] = self_time.get(layer, 0.0) + (end - start) - child_time[i]
        return per_root

    def per_kind_median(self, value_of, kinds=None):
        """Sum over root kinds (all, or those in `kinds`) of the median,
        across that kind's roots, of value_of(busy, self_time, counts).
        Call only once recording is over."""
        if self._per_root is None:
            self._per_root = self.layer_times()
        per_root = self._per_root
        by_kind = {}
        for kind, index, counts in self.roots:
            if kinds is not None and kind not in kinds:
                continue
            busy, self_time = per_root.get(index, ({}, {}))
            by_kind.setdefault(kind, []).append(value_of(busy, self_time, counts))
        return sum(statistics.median(values) for values in by_kind.values())
