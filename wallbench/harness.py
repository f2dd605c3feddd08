"""Measurement plumbing shared by the wall-clock workloads.

Nothing here imports the program under test: percentiles, benchmark-side
spans, self-time accounting and result validation are plain Python, so the
self-tests in ``test_harness.py`` run without the ``src`` tree.
"""

import json
import multiprocessing
import statistics
import threading
import time
from contextlib import contextmanager

#: Percentile ladder in per-mille, lowest first.  A timing is reported at
#: the highest rung that leaves at least ``TAIL_MARGIN`` samples beyond it.
PERCENTILE_LADDER = (500, 900, 950, 990, 999)
TAIL_MARGIN = 10


def percentile(values, per_mille):
    """Linear-interpolated percentile of ``values`` at ``per_mille``/1000."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * per_mille / 1000.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def samples_beyond(count, per_mille):
    """How many of ``count`` samples lie beyond the ``per_mille`` rank."""
    return count * (1000 - per_mille) // 1000


def tail_per_mille(count):
    """The highest ladder percentile with at least ``TAIL_MARGIN`` samples
    beyond it, or None when even the median has fewer."""
    best = None
    for per_mille in PERCENTILE_LADDER:
        if samples_beyond(count, per_mille) >= TAIL_MARGIN:
            best = per_mille
    return best


def min_samples_for(per_mille):
    """The smallest sample count whose tail rule supports ``per_mille``."""
    count = 1
    while samples_beyond(count, per_mille) < TAIL_MARGIN:
        count += 1
    return count


def tail_ms(samples_s, per_mille):
    """``per_mille`` percentile of wall-second samples, in ms.  Raises when
    the sample count does not support that percentile, so a short run can
    never silently report a lower rung under a higher rung's name."""
    supported = tail_per_mille(len(samples_s))
    if supported is None or supported < per_mille:
        raise ValueError("%d samples do not support p%g"
                         % (len(samples_s), per_mille / 10.0))
    return percentile(samples_s, per_mille) * 1e3


def median_ms(samples_s):
    return statistics.median(samples_s) * 1e3


def ratio(numerator, base):
    """``numerator / base`` with an empty base reading as 0 (the layer did
    no work on this workload); the base is always reported beside it."""
    return numerator / base if base else 0.0


# ---------------------------------------------------------------------- #
# Machine speed


class SpeedProbe:
    """A fixed kernel timed between operations, to scale out the host's
    speed drift.

    On a shared host the same code runs up to ±20% slower or faster for
    tens of seconds at a time.  A run's wall times are scaled by
    ``REFERENCE_S / mean probe time``: a host slowdown that stretches
    the workload stretches the probe alike and cancels.  The mean, not
    the median: the workload lives through the slow stretches too, so
    its time is an average over the host's speed, and so is the probe's
    mean.  The kernel mixes what the program spends its time on:
    interpreted dict and list work, SHA-1, zlib and a NumPy copy.

    That holds only while the program does nothing during a probe.  A
    sample taken while another thread or a child process exists is
    counted in ``concurrent``; work running beside the probe would slow
    it and make the program look faster, so any such sample turns the
    scaling off (``factor`` returns 1) and the run reports wall times
    as measured.
    """

    #: Probe time that maps scaled times onto wall times.
    REFERENCE_S = 0.005

    def __init__(self, interval_s=0.25):
        import hashlib
        import random
        import zlib

        import numpy

        self.samples = []
        self.concurrent = 0
        self.interval_s = interval_s
        self._last = None
        self._blob = random.Random(1).randbytes(65536)
        self._array = numpy.arange(262144, dtype=numpy.uint32)
        self._sha1 = hashlib.sha1
        self._compress = zlib.compress

    def _kernel(self):
        table = {}
        for i in range(20000):
            key = i % 997
            table[key] = table.get(key, 0) + i
        self._sha1(self._blob).digest()
        self._compress(self._blob, 1)
        int(self._array.copy().sum())

    def sample(self):
        if threading.active_count() > 1 or multiprocessing.active_children():
            self.concurrent += 1
        began = time.perf_counter()
        self._kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - began)

    def tick(self):
        """Sample when the last sample is ``interval_s`` old; call between
        operations, outside their timed regions."""
        if self._last is None \
                or time.perf_counter() - self._last >= self.interval_s:
            self.sample()

    def factor(self, first=0, last=None):
        """Multiply a wall time by this to scale it to reference speed;
        ``first``/``last`` restrict it to the samples of one phase.
        It is 1 (no scaling) once any sample saw concurrent work."""
        if self.concurrent:
            return 1.0
        return self.REFERENCE_S / statistics.mean(self.samples[first:last])


# ---------------------------------------------------------------------- #
# Benchmark-side spans


class Tracer:
    """Spans recorded around calls into the program's layers.

    A span is ``[name, start_s, end_s, parent_index, op_id]``; parents come
    from a call stack, so a layer called from inside another nests under
    it.  Wrappers are installed on the program's classes only for the
    traced phase and removed afterwards, so untraced phases run the
    original methods untouched.
    """

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._installed = []

    def begin(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.op_id])
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span stack out of order")

    @contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def _wrapper(self, name, original):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(index)

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    def install(self, targets):
        """Wrap ``(cls, attribute, span_name)`` targets; each class must
        define the attribute itself (a subclass override is its own
        target)."""
        for cls, attribute, name in targets:
            original = cls.__dict__[attribute]
            self._installed.append((cls, attribute, original))
            setattr(cls, attribute, self._wrapper(name, original))

    def uninstall(self):
        while self._installed:
            cls, attribute, original = self._installed.pop()
            setattr(cls, attribute, original)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "op_id"],
                       "spans": self.spans}, handle)


def self_times(spans):
    """Per-span self time: duration minus the time its direct children
    cover (children never overlap: one thread, one stack)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent is not None:
            child[parent] += end - start
    return [span[2] - span[1] - child[i] for i, span in enumerate(spans)]


def span_summary(spans, root_prefix="op."):
    """Aggregate a trace.

    Returns ``{"calls": {name: n}, "total_s": {name: inclusive s},
    "self_s": {name: self s within op roots}, "root_s": total root
    duration, "roots": n}`` where op roots are spans whose name starts
    with ``root_prefix`` and have no parent.  Self time is summed only
    over spans inside a root, so setup-time calls stay out of the
    per-op accounting.
    """
    own = self_times(spans)
    root_of = [None] * len(spans)
    calls, total, in_root_self = {}, {}, {}
    root_s = 0.0
    roots = 0
    for index, (name, start, end, parent, _op) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        if parent is None:
            if name.startswith(root_prefix):
                root_of[index] = index
                root_s += end - start
                roots += 1
        else:
            root_of[index] = root_of[parent]
        if root_of[index] is not None:
            in_root_self[name] = in_root_self.get(name, 0.0) + own[index]
    return {"calls": calls, "total_s": total, "self_s": in_root_self,
            "root_s": root_s, "roots": roots}


# ---------------------------------------------------------------------- #
# Result validation


def build_result(spec, trace, metrics, attempted, failed):
    """The runner's final JSON object.  ``metrics`` maps name -> value;
    it must cover exactly the section ``trace`` selects.  ``correct``
    holds only when no operation failed or returned a wrong output."""
    section = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(wanted):
        missing = sorted(set(wanted) - set(metrics))
        extra = sorted(set(metrics) - set(wanted))
        raise ValueError("metric set mismatch: missing %s, extra %s"
                         % (missing, extra))
    if attempted < 1:
        raise ValueError("no operation was attempted")
    out = {}
    for name in sorted(wanted):
        value = float(metrics[name])
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError("metric %s is not finite" % name)
        if not trace and value == 0.0:
            raise ValueError("end-to-end metric %s read 0" % name)
        out[name] = {"value": value, "unit": wanted[name]}
    return {"correct": failed == 0,
            "attempted": int(attempted), "failed": int(failed),
            "metrics": out}
