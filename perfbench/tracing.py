"""Timing from outside msflow: in-memory spans, a per-step hook and a
machine-speed gauge.

Nothing here writes during a measurement; the spans and segments are kept
in memory and written out by run.py at the end.
"""

import statistics
import time
from contextlib import contextmanager

import scipy.sparse as sp
import scipy.sparse.linalg as spla


class Tracer:
    """Nested timing spans: name, start, end, parent span and trace id.

    All spans recorded during one pass share that pass's trace id, so a
    trace file can hold several passes side by side.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.trace_id = None

    @contextmanager
    def span(self, name, **attrs):
        record = {
            "id": len(self.spans),
            "trace": self.trace_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def of_trace(self, trace_id):
        return [s for s in self.spans if s["trace"] == trace_id]


def total(spans, name):
    """Summed duration of the spans with this exact name, in seconds."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def count(spans, name):
    return sum(1 for s in spans if s["name"] == name)


@contextmanager
def after_each_step(ops, callback):
    """Call `callback()` after every step of `run_fine(..., ops=ops)`.

    `run_fine` calls `ops.div_residual` exactly once per accepted step, to
    record that step's continuity residual. This shadows the bound method
    on the given `StepOperators` instance with one that calls the callback
    after it returns; what `run_fine` computes is unchanged.
    """
    inner = ops.div_residual

    def hooked(velocity):
        value = inner(velocity)
        callback()
        return value

    ops.div_residual = hooked
    try:
        yield
    finally:
        del ops.div_residual


class SpeedGauge:
    """Splits a pass into segments and scales each by the machine's speed.

    The benchmark was written on a 2-core VM shared with other tenants.
    There, the same SuperLU factorization took 0.25–0.6 s within one
    minute, in phases of 5–20 s, and CPU time followed wall time. A fixed
    probe slows down by nearly the same factor as the workload. The probe
    is a SuperLU factorization of a 5-point Laplacian, which uses scipy
    only and no msflow code.

    `mark()` ends a segment and runs the probe. The segment's raw duration
    excludes probe time. Its scaled duration is raw × REFERENCE_S / (mean
    of the probe times at its two ends): seconds at the machine speed where
    the probe takes REFERENCE_S. REFERENCE_S is the probe's median time on
    the machine the benchmark was written on.
    """

    REFERENCE_S = 0.011
    GRID = 60
    # Each probe is the median of at least MIN_REPEATS factorizations and
    # lasts about PROBE_SHARE of the segment before it, so that a long
    # segment is not scaled by a momentary reading.
    MIN_REPEATS = 3
    MAX_REPEATS = 25
    PROBE_SHARE = 0.05

    def __init__(self):
        n = self.GRID
        line = sp.diags([-1.0, 4.2, -1.0], [-1, 0, 1], shape=(n, n))
        couple = sp.diags([-1.0, -1.0], [-1, 1], shape=(n, n))
        eye = sp.identity(n)
        self.matrix = (sp.kron(eye, line) + sp.kron(couple, eye)).tocsc()
        self.segments = []
        self.probes = []
        self._probe_s = None
        self._t = None

    def _probe(self, segment_s=0.0):
        wanted = int(self.PROBE_SHARE * segment_s / self.REFERENCE_S)
        times = []
        for _ in range(min(max(wanted, self.MIN_REPEATS), self.MAX_REPEATS)):
            t0 = time.perf_counter()
            spla.splu(self.matrix)
            times.append(time.perf_counter() - t0)
        probe = statistics.median(times)
        self.probes.append(probe)
        return probe

    def start(self):
        self._probe_s = self._probe()
        self._t = time.perf_counter()

    def mark(self, label):
        raw = time.perf_counter() - self._t
        probe = self._probe(raw)
        self.segments.append(
            {
                "label": label,
                "raw_s": raw,
                "s": raw * 2.0 * self.REFERENCE_S / (self._probe_s + probe),
                "probes": (self._probe_s, probe),
            }
        )
        self._probe_s = probe
        self._t = time.perf_counter()

    def since(self, index):
        """Segments recorded from position `index` on."""
        return self.segments[index:]
