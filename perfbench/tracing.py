"""Spans around the benchmark's own calls into ergo's public functions.

A span has a name, a start, an end, a parent span and a job id.  Each job
opens a root span named ``job``; every call the job makes into ergo opens a
child span named ``<module>.<function>[.<variant>]``.  Spans stay in memory
and are written out once, when the run ends.

With tracing off, ``Tracer.call`` is a plain call, so untraced passes time
the program and nothing else.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

MODULES = ("linalg", "ergodicity", "seminorm", "spectral", "markov", "contraction",
           "oracle", "verify", "matrix_io", "report", "cli")
SUITES = ("equivalence", "oblique", "incidence", "conjecture", "spectral", "mixing")
COMMANDS = ("tau", "seminorm", "mixing", "rho-ess", "certify", "verify")

#: spans whose inclusive time is reported as ``<span>.busy_s``
BUSY_SPANS = (
    "ergodicity.tau.p1", "ergodicity.tau.p2", "ergodicity.tau.pinf",
    "ergodicity.dobrushin", "ergodicity.tau_oblique",
    "seminorm.deflated_norm.q1", "seminorm.deflated_norm.q2", "seminorm.deflated_norm.qinf",
    "seminorm.induced_seminorm.agreement.p1", "seminorm.induced_seminorm.agreement.p2",
    "seminorm.induced_seminorm.agreement.pinf", "seminorm.induced_seminorm.oblique.pinf",
    "seminorm.induced_seminorm.factored.p2", "seminorm.induced_seminorm.incidence.pinf",
    "seminorm.SeminormWeight.incidence",
    "markov.mixing_time", "markov.distance_to_stationarity",
    "spectral.ess_spectral_radius", "spectral.optimal_weight",
    "contraction.certify_averaging", "contraction.certify_markov",
    "contraction.simulate_and_check",
    "linalg.StochasticMatrix", "linalg.dominant_pair",
    "oracle.oracle_tau", "oracle.oracle_weighted_seminorm",
    *(f"verify.run_suite.{s}" for s in SUITES),
    "matrix_io.load_matrix", "matrix_io.load_sequence", "report.render_report",
    *(f"cli.main.{c}" for c in COMMANDS),
)
#: spans whose peak traced allocation is reported as ``<span>.peak_alloc_mb``
MEMORY_SPANS = ("seminorm.deflated_norm.qinf", "seminorm.SeminormWeight.incidence")
#: spans whose exception count is reported as ``<span>.failed``
FAILED_SPANS = ("spectral.optimal_weight", *(f"cli.main.{c}" for c in COMMANDS))
#: spans whose share of calls that returned is reported as ``<span>.ok_ratio``
RATIO_SPANS = ("spectral.optimal_weight",)
#: counts that jobs record from results (they must not change between commits)
COUNTERS = ("markov.mixing_time.t_mix",)


def per_layer_units():
    """Every per-layer metric name, in a fixed order, with its unit."""
    units = {}
    for m in MODULES:
        units.update({f"{m}.calls": "count", f"{m}.busy_s": "s",
                      f"{m}.failed": "count", f"{m}.entries": "count"})
    units.update({f"{s}.busy_s": "s" for s in BUSY_SPANS})
    units.update({f"{s}.peak_alloc_mb": "MB" for s in MEMORY_SPANS})
    units.update({f"{s}.failed": "count" for s in FAILED_SPANS})
    units.update({f"{s}.ok_ratio": "ratio" for s in RATIO_SPANS})
    units.update({c: "count" for c in COUNTERS})
    units.update({"tracing.wall_s_traced": "s", "tracing.wall_s_untraced": "s",
                  "tracing.overhead_ratio": "ratio"})
    return units


def input_entries(args):
    """Matrix entries handed to a call: arrays, StochasticMatrix objects and
    lists of them count; scalars and weight objects do not."""
    total = 0
    for a in args:
        if isinstance(a, np.ndarray):
            total += a.size
        elif hasattr(a, "matrix") and hasattr(a, "primitive"):
            total += a.matrix.size
        elif isinstance(a, (list, tuple)):
            total += input_entries(a)
    return total


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    pass_: int
    failed: bool = False
    entries: int = 0
    peak_alloc_mb: float | None = None


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []
        self.counters = {}
        self._open = []
        self._pass = -1
        self._job = -1
        self._patches = []

    def patch(self, owner, attr, span_name_of):
        """While tracing, route owner.attr through a span named span_name_of(*args)."""
        self._patches.append((owner, attr, span_name_of))

    @contextlib.contextmanager
    def traced_pass(self, index):
        self.enabled, self._pass = True, index
        self.counters[index] = {}
        saved = []
        for owner, attr, span_name_of in self._patches:
            real = getattr(owner, attr)
            saved.append((owner, attr, real))
            setattr(owner, attr, self._wrapped(real, span_name_of))
        try:
            yield
        finally:
            for owner, attr, real in saved:
                setattr(owner, attr, real)
            self.enabled = False

    def _wrapped(self, real, span_name_of):
        def wrapper(*args, **kwargs):
            return self.call(span_name_of(*args), real, *args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def job(self, job_id):
        if not self.enabled:
            yield
            return
        self._job = job_id
        with self._span("job", None):
            yield

    def call(self, name, fn, *args, entries=None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        if entries is None:
            entries = input_entries(args)
        with self._span(name, entries):
            return fn(*args, **kwargs)

    def count(self, name, value):
        if self.enabled:
            bucket = self.counters[self._pass]
            bucket[name] = bucket.get(name, 0) + value

    @contextlib.contextmanager
    def _span(self, name, entries):
        span = Span(len(self.spans), name, 0.0, 0.0,
                    self._open[-1].id if self._open else None, self._job, self._pass,
                    entries=entries or 0)
        self.spans.append(span)
        self._open.append(span)
        measure = name in MEMORY_SPANS
        if measure:
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            yield
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            if measure:
                span.peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            self._open.pop()

    def records(self):
        return [[s.id, s.name, s.start, s.end, s.parent, s.job, s.pass_, s.failed,
                 s.entries, s.peak_alloc_mb] for s in self.spans]


def self_times(spans):
    """Span duration minus the part its child spans cover.  Children of one
    span run one after another on one thread, so they never overlap."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def pass_metrics(spans, counters):
    """Per-layer metrics of one traced pass (tracing.* excluded)."""
    own = self_times(spans)
    out = {name: 0.0 for name in per_layer_units() if not name.startswith("tracing.")}
    layer = [s for s in spans if s.name != "job"]
    for s in layer:
        module = s.name.split(".", 1)[0]
        out[f"{module}.calls"] += 1
        out[f"{module}.busy_s"] += own[s.id]
        out[f"{module}.failed"] += int(s.failed)
        out[f"{module}.entries"] += s.entries
        if s.name in BUSY_SPANS:
            out[f"{s.name}.busy_s"] += s.end - s.start
        if s.name in FAILED_SPANS:
            out[f"{s.name}.failed"] += int(s.failed)
        if s.peak_alloc_mb is not None:
            key = f"{s.name}.peak_alloc_mb"
            out[key] = max(out[key], s.peak_alloc_mb)
    for name in RATIO_SPANS:
        calls = [s for s in layer if s.name == name]
        if calls:
            out[f"{name}.ok_ratio"] = sum(not s.failed for s in calls) / len(calls)
    out.update(counters)
    return out


def median_metrics(per_pass):
    """Median of each metric over the traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
