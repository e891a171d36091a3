"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public calls of each layer of the ``repro`` stack
from the outside (no product code changes): every wrapped call records
one span — its duration and the part of it covered by nested wrapped
calls on the same thread — into per-thread aggregates. A layer's *self
time* is the sum of its spans' durations minus their children's.

Spans never leave memory until the run ends. Worker processes forked by
a campaign's process pool inherit the wrappers; each forked child
starts with empty aggregates and, after every top-level span (one
executed unit), spills them as one small JSON file into the tracer's
spill directory, which the parent folds in when it reports.

Reconciliation: the workload declares how many execution lanes it has
(threads or processes doing the program's work). Over the traced
windows, ``lanes x wall`` lane-seconds are available; the self times of
every layer plus the unattributed remainder add up to exactly that,
because spans nest per thread. The tracer checks the identity against
an independently summed total of top-level span time.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers of the stack, in the order the report lists them. The
#: ``campaign.executor.wait`` pseudo-layer is the dispatcher blocking on
#: worker futures, separated so executor self time is dispatch work.
LAYERS = (
    "service",
    "service.wal",
    "service.tenancy",
    "campaign.executor",
    "campaign.executor.wait",
    "campaign.worker",
    "campaign.store",
    "checkpoint",
    "sph",
    "sph.numeric",
    "hardware",
    "core",
    "mpi",
    "telemetry",
)

#: NumericProblem step kernels reported one by one.
NUMERIC_KERNELS = (
    "domain_decomp_and_sync",
    "find_neighbors",
    "xmass",
    "normalization_gradh",
    "equation_of_state",
    "iad_velocity_div_curl",
    "gravity_step",
    "momentum_energy",
    "local_timesteps",
    "update_quantities",
)

SpanKey = Tuple[str, str]


class _ThreadStats:
    """Aggregates of one thread: open-span stack, spans, counters."""

    __slots__ = ("stack", "spans", "counts", "top_s")

    def __init__(self) -> None:
        self.stack: List[List[float]] = []
        self.spans: Dict[SpanKey, List[float]] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        self.top_s = 0.0


class Tracer:
    """Span and counter recorder behind the layer wrappers."""

    def __init__(self, spill_dir: str) -> None:
        self.spill_dir = spill_dir
        self.active = False
        self.wall_s = 0.0
        self._window_t0: Optional[float] = None
        self._patches: List[Tuple[Any, str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: List[_ThreadStats] = []
        self._is_child = False
        self._spills = 0
        #: Cross-call marks (service submit time per campaign id).
        self.marks: Dict[str, float] = {}
        #: Wrap targets absent from the program (see :meth:`patch`).
        self.missing: List[str] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- process / thread plumbing ------------------------------------------

    def _after_fork(self) -> None:
        """A forked worker starts empty; its spans are spilled per unit."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads = []
        self._is_child = True
        self._spills = 0

    def _stats(self) -> _ThreadStats:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = self._local.stats = _ThreadStats()
            with self._lock:
                self._threads.append(stats)
        return stats

    def _spill(self, stats: _ThreadStats) -> None:
        """Hand a forked child's aggregates back through the spill dir."""
        self._spills += 1
        path = os.path.join(
            self.spill_dir, f"spill-{os.getpid()}-{self._spills}.json"
        )
        payload = {
            "spans": [[k[0], k[1], *v] for k, v in stats.spans.items()],
            "counts": dict(stats.counts),
            "top_s": stats.top_s,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        stats.spans = {}
        stats.counts = defaultdict(float)
        stats.top_s = 0.0

    # -- windows -------------------------------------------------------------

    def start_window(self) -> None:
        self._window_t0 = time.perf_counter()
        self.active = True

    def stop_window(self) -> None:
        self.active = False
        if self._window_t0 is not None:
            self.wall_s += time.perf_counter() - self._window_t0
            self._window_t0 = None

    # -- recording -----------------------------------------------------------

    def _close(
        self, stats: _ThreadStats, key: SpanKey, dur: float, child: float
    ) -> None:
        rec = stats.spans.get(key)
        if rec is None:
            rec = stats.spans[key] = [0.0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        if stats.stack:
            stats.stack[-1][0] += dur
        else:
            stats.top_s += dur
            if self._is_child:
                self._spill(stats)

    def span(
        self,
        layer: str,
        name: str,
        fn: Callable,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """Wrap ``fn`` so each active call records one ``layer`` span.

        ``before(args, kwargs)`` runs first and its value reaches
        ``after(counts, args, kwargs, result, token)``, which runs on
        success only.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stats = tracer._stats()
            key = (layer, name)
            token = before(args, kwargs) if before is not None else None
            frame = [0.0]
            stats.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                dur = time.perf_counter() - t0
                stats.stack.pop()
                tracer._close(stats, key, dur, frame[0])
                raise
            dur = time.perf_counter() - t0
            stats.stack.pop()
            if after is not None:
                after(stats.counts, args, kwargs, result, token)
            tracer._close(stats, key, dur, frame[0])
            return result

        return wrapper

    def async_span(
        self,
        layer: str,
        fn: Callable,
        route: Callable[..., str],
    ) -> Callable:
        """:meth:`span` for a coroutine function that never suspends
        (``ServiceApp.__call__`` awaits nothing), so the span nests."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not tracer.active:
                return await fn(*args, **kwargs)
            stats = tracer._stats()
            frame = [0.0]
            stats.stack.append(frame)
            t0 = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stats.stack.pop()
                tracer._close(stats, (layer, route(args)), dur, frame[0])

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` to count its active calls (no span)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer._stats().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` (class or module) by ``make(original)``.

        A target this version of the program does not have is skipped
        and listed in :attr:`missing`, so the metrics it feeds read 0
        with the reason printed, instead of the traced run failing.
        """
        own = vars(owner)
        original = own[attr] if attr in own else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, own.get(attr)))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)  # was inherited
            else:
                setattr(owner, attr, original)

    # -- collection ----------------------------------------------------------

    def collect(self) -> Tuple[Dict[SpanKey, List[float]], Dict[str, float], float]:
        """Merged (spans, counts, top-level seconds) of every thread and
        every spilled worker-process aggregate."""
        spans: Dict[SpanKey, List[float]] = {}
        counts: Dict[str, float] = defaultdict(float)
        top = 0.0

        def fold(items, more_counts, more_top) -> None:
            nonlocal top
            for key, rec in items:
                acc = spans.setdefault(key, [0.0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += rec[i]
            for name, value in more_counts.items():
                counts[name] += value
            top += more_top

        with self._lock:
            threads = list(self._threads)
        for stats in threads:
            fold(stats.spans.items(), stats.counts, stats.top_s)
        for path in sorted(glob.glob(os.path.join(self.spill_dir, "spill-*.json"))):
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            fold(
                (((r[0], r[1]), r[2:]) for r in payload["spans"]),
                payload["counts"],
                payload["top_s"],
            )
        return spans, counts, top


# -- the layer table -----------------------------------------------------------


def _request_route(args) -> str:
    """``METHOD /path-template`` of a ServiceApp request."""
    request = args[1]
    parts = request.path.strip("/").split("/")
    if parts and parts[0] == "campaigns" and len(parts) >= 2:
        tail = "/" + parts[2] if len(parts) >= 3 else ""
        return f"request:{request.method} /campaigns/{{id}}{tail}"
    return f"request:{request.method} {request.path}"


def install_layers(tracer: Tracer) -> None:
    """Wrap the public calls of every layer (see the module docstring)."""
    from repro.campaign import executor as campaign_executor
    from repro.campaign import worker as campaign_worker
    from repro.campaign import CampaignExecutor, RunStore
    from repro.core import EnergyProfiler, FrequencyController
    from repro.hardware import SimulatedGpu
    from repro.mpi import SimComm
    from repro.service import CampaignService, FairScheduler, MultiTenantRunStore, ServiceApp
    from repro.service.jobs import CampaignJob
    from repro.service.wal import JobWal
    from repro.sph import NumericProblem, Simulation
    from repro.sph import simulation as sph_simulation
    from repro.telemetry import TraceCollector

    t = tracer

    def span(owner, attr, layer, name=None, **kw):
        t.patch(owner, attr, lambda fn: t.span(layer, name or attr, fn, **kw))

    # service
    t.patch(
        ServiceApp, "__call__",
        lambda fn: t.async_span("service", fn, route=_request_route),
    )

    def submitted(counts, args, kwargs, result, token):
        job, created = result
        if created:
            t.marks[job.id] = time.perf_counter()

    def job_started(args, kwargs):
        t0 = t.marks.pop(args[0].id, None)
        if t0 is not None:
            t._stats().counts["service.queue_wait_s"] += time.perf_counter() - t0

    span(CampaignService, "submit", "service", "CampaignService.submit", after=submitted)
    span(CampaignService, "status_doc", "service", "CampaignService.status_doc")
    span(CampaignService, "report", "service", "CampaignService.report")
    span(FairScheduler, "submit", "service", "FairScheduler.submit")
    span(CampaignJob, "execute", "service", "CampaignJob.execute", before=job_started)
    # service.wal
    span(JobWal, "append", "service.wal")

    # service.tenancy
    def adopted(counts, args, kwargs, result, token):
        counts["tenancy.adopted"] += len(result)
        counts["tenancy.grid_units"] += len(args[2])

    span(MultiTenantRunStore, "adopt_shared", "service.tenancy", after=adopted)
    span(MultiTenantRunStore, "publish_shared", "service.tenancy")

    # campaign.executor (+ its blocking wait on worker futures)
    def drained(counts, args, kwargs, result, token):
        counts["campaign.units_executed"] += result.executed
        counts["campaign.units_failed"] += result.failed
        counts["campaign.retries"] += result.retries

    span(CampaignExecutor, "run", "campaign.executor", after=drained)
    span(campaign_executor, "wait", "campaign.executor.wait")
    # campaign.worker: execute_unit, looked up through the worker module
    span(campaign_worker, "execute_unit", "campaign.worker")
    # campaign.store: run records, lane heartbeats and per-step beat files
    span(RunStore, "record_done", "campaign.store")
    span(RunStore, "write_heartbeats", "campaign.store")
    span(campaign_worker, "_write_beat", "campaign.store", "lane_beat")
    t.patch(os, "fsync", lambda fn: t.counter("os.fsync", fn))
    t.patch(os, "replace", lambda fn: t.counter("os.replace", fn))

    # checkpoint
    def wrote(counts, args, kwargs, result, token):
        counts["checkpoint.bytes"] += os.path.getsize(result)

    span(sph_simulation, "write_checkpoint", "checkpoint", after=wrote)
    span(sph_simulation, "read_checkpoint", "checkpoint")
    span(campaign_worker, "read_checkpoint", "checkpoint")

    # sph
    def stepped(counts, args, kwargs, result, token):
        counts["sph.steps"] += result.steps - result.resumed_from_step

    span(Simulation, "run", "sph", after=stepped)
    span(Simulation, "initialize", "sph")

    # sph.numeric
    def searched(counts, args, kwargs, result, token):
        problem = args[0]
        if problem.neighbor_rebuilds > token:
            counts["sph.numeric.neighbor_rebuilds"] += 1
        else:
            counts["sph.numeric.neighbor_reuses"] += 1
        pairs = problem.mean_neighbor_counts() * problem.local_particle_counts()
        counts["sph.numeric.pairs"] += float(pairs.sum())

    for kernel in NUMERIC_KERNELS:
        if kernel == "find_neighbors":
            span(
                NumericProblem, kernel, "sph.numeric",
                before=lambda args, kwargs: args[0].neighbor_rebuilds,
                after=searched,
            )
        else:
            span(NumericProblem, kernel, "sph.numeric")

    # hardware
    span(SimulatedGpu, "execute", "hardware")
    span(SimulatedGpu, "set_application_clocks", "hardware")

    # core
    for cls in (FrequencyController, EnergyProfiler):
        for attr in ("before_function", "after_function"):
            span(cls, attr, "core", f"{cls.__name__}.{attr}")
    span(EnergyProfiler, "gather", "core", "EnergyProfiler.gather")

    # mpi
    for attr in ("allreduce", "sendrecv", "barrier", "gather"):
        span(SimComm, attr, "mpi")

    # telemetry
    def merged(counts, args, kwargs, result, token):
        counts["telemetry.events"] += len(result[1])

    span(TraceCollector, "flush_shards", "telemetry")
    span(campaign_worker, "merge_shards", "telemetry", after=merged)
    span(campaign_worker, "write_merged_trace", "telemetry")


# -- reporting -----------------------------------------------------------------


def _total(spans, layer: str, prefix: str = "") -> float:
    return float(sum(r[1] for (l, n), r in spans.items() if l == layer and n.startswith(prefix)))


def _calls(spans, layer: str, prefix: str = "") -> float:
    return float(sum(r[0] for (l, n), r in spans.items() if l == layer and n.startswith(prefix)))


def layer_self_times(spans) -> Dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for (layer, _name), rec in spans.items():
        out[layer] = out.get(layer, 0.0) + rec[2]
    return out


def reconcile(
    spans, top_s: float, wall_s: float, lanes: int
) -> Dict[str, Any]:
    """Self times + unattributed = lanes x traced wall, checked."""
    selfs = layer_self_times(spans)
    attributed = sum(selfs.values())
    lane_s = lanes * wall_s
    unattributed = lane_s - attributed
    tol = 1e-6 * max(lane_s, 1e-9)
    problems = []
    if abs(attributed - top_s) > tol:
        problems.append(
            f"self times sum to {attributed:.6f}s but top-level spans to {top_s:.6f}s"
        )
    if unattributed < -tol:
        problems.append(
            f"spans cover {attributed:.6f}s, more than {lanes} lanes x {wall_s:.6f}s"
        )
    return {
        "self_s": selfs,
        "attributed_s": attributed,
        "lane_s": lane_s,
        "unattributed_s": unattributed,
        "problems": problems,
    }


def per_layer_metrics(
    spans, counts, top_s: float, wall_s: float, lanes: int, overhead_frac: float
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, Any]]:
    """The per-layer metrics (name -> (value, unit)) and the
    reconciliation record they were derived with."""
    rec = reconcile(spans, top_s, wall_s, lanes)
    units = counts.get("campaign.units_executed", 0.0)
    grid = counts.get("tenancy.grid_units", 0.0)
    m: Dict[str, Tuple[float, str]] = {
        "service.request_s": (_total(spans, "service", "request:"), "s"),
        "service.requests": (_calls(spans, "service", "request:"), "count"),
        "service.queue_wait_s": (counts.get("service.queue_wait_s", 0.0), "s"),
        "service.wal.append_s": (_total(spans, "service.wal"), "s"),
        "service.wal.appends": (_calls(spans, "service.wal"), "count"),
        "service.tenancy_s": (_total(spans, "service.tenancy"), "s"),
        "service.shared_hit_ratio": (
            counts.get("tenancy.adopted", 0.0) / grid if grid else 0.0, "ratio"
        ),
        "campaign.executor_self_s": (rec["self_s"]["campaign.executor"], "s"),
        "campaign.executor_wait_s": (_total(spans, "campaign.executor.wait"), "s"),
        "campaign.retries": (counts.get("campaign.retries", 0.0), "count"),
        "campaign.units_failed": (counts.get("campaign.units_failed", 0.0), "count"),
        "campaign.worker_self_s": (rec["self_s"]["campaign.worker"], "s"),
        "campaign.units_executed": (units, "count"),
        "campaign.store_s": (_total(spans, "campaign.store"), "s"),
        "durable.fsyncs_per_unit": (
            counts.get("os.fsync", 0.0) / units if units else 0.0, "count"
        ),
        "durable.replaces_per_unit": (
            counts.get("os.replace", 0.0) / units if units else 0.0, "count"
        ),
        "checkpoint.write_s": (_total(spans, "checkpoint", "write_checkpoint"), "s"),
        "checkpoint.writes": (_calls(spans, "checkpoint", "write_checkpoint"), "count"),
        "checkpoint.bytes": (counts.get("checkpoint.bytes", 0.0), "B"),
        "sph.loop_self_s": (rec["self_s"]["sph"], "s"),
        "sph.steps": (counts.get("sph.steps", 0.0), "count"),
    }
    for kernel in NUMERIC_KERNELS:
        m[f"sph.numeric.{kernel}_s"] = (_total(spans, "sph.numeric", kernel), "s")
    for name in ("neighbor_rebuilds", "neighbor_reuses", "pairs"):
        m[f"sph.numeric.{name}"] = (counts.get(f"sph.numeric.{name}", 0.0), "count")
    m.update(
        {
            "hardware.execute_s": (_total(spans, "hardware", "execute"), "s"),
            "hardware.launches": (_calls(spans, "hardware", "execute"), "count"),
            "hardware.clock_sets": (
                _calls(spans, "hardware", "set_application_clocks"), "count"
            ),
            "core.controller_s": (_total(spans, "core", "FrequencyController."), "s"),
            "core.profiler_s": (_total(spans, "core", "EnergyProfiler."), "s"),
            "core.hook_calls": (
                _calls(spans, "core", "FrequencyController.")
                + _calls(spans, "core", "EnergyProfiler.before")
                + _calls(spans, "core", "EnergyProfiler.after"),
                "count",
            ),
            "mpi.collective_s": (_total(spans, "mpi"), "s"),
            "mpi.collectives": (_calls(spans, "mpi"), "count"),
            "telemetry.shard_s": (_total(spans, "telemetry"), "s"),
            "telemetry.events": (counts.get("telemetry.events", 0.0), "count"),
        }
    )
    for layer, value in rec["self_s"].items():
        m[f"self.{layer}_s"] = (value, "s")
    m.update(
        {
            "reconcile.traced_wall_s": (wall_s, "s"),
            "reconcile.lanes": (float(lanes), "count"),
            "reconcile.unattributed_s": (rec["unattributed_s"], "s"),
            "reconcile.unattributed_frac": (
                rec["unattributed_s"] / rec["lane_s"] if rec["lane_s"] else 0.0,
                "ratio",
            ),
            "reconcile.tracing_overhead_frac": (overhead_frac, "ratio"),
        }
    )
    return m, rec
