"""The three benchmark workloads, driven through the public API.

Each workload is built from the workload seed alone (``inputs`` is the
complete set of generated inputs the program receives), set up once,
then either measured untraced for a time budget (``measure``) or run as
a fixed amount of traced work (``trace``), alternating untraced and
traced passes so the tracing overhead is measured on the same work.

* ``campaign-sweep`` — batch: one ``CampaignSpec`` per drain, drained
  by ``CampaignExecutor`` at 2 worker processes.
* ``numeric-sedov`` — one ``Simulation`` with a ``NumericProblem`` on a
  seeded Sedov blast, 2 ranks on the default comm backend.
* ``service-mixed`` — closed loop of 2 HTTP clients (2 tenants) against
  the in-process ``repro serve`` stack with default configuration.
"""

from __future__ import annotations

import asyncio
import functools
import http.client
import json
import multiprocessing
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import checks
from tracer import Tracer, install_layers

#: Worker processes / rank threads / client connections: the host's 2 cores.
WORKERS = 2


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def wait_children(timeout_s: float = 60.0) -> None:
    """Join every multiprocessing child (process-pool workers)."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.terminate()
                child.join(5.0)
            return
        time.sleep(0.02)


def failed_unit_types(store, keys: List[str]) -> List[str]:
    """Error types of failed units, from their run store's manifest."""
    types = {k: "unknown" for k in keys}
    with open(store.manifest_path, encoding="utf-8") as fh:
        for line in fh:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if record.get("key") in types and record.get("status") == "failed":
                types[record["key"]] = record.get("error", {}).get("type", "unknown")
    return list(types.values())


@dataclass
class Outcome:
    """What one measured or traced run did and how it checked out."""

    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    #: Failed units (or operations that errored as a whole) by error type.
    failure_types: Counter = field(default_factory=Counter)
    #: This workload's own metric names: name -> (value, unit, note).
    named: Dict[str, Tuple[float, str, str]] = field(default_factory=dict)
    #: The workload-independent end-to-end metrics of the result line.
    throughput: float = 0.0
    latency_p50_ms: float = 0.0
    latency_tail_ms: float = 0.0
    output_digest: str = ""
    #: Traced runs: traced wall time over untraced wall time, minus one.
    tracing_overhead_frac: float = 0.0


class Workload:
    name = ""
    loop = ""
    #: Execution lanes doing program work concurrently (reconciliation).
    lanes = 1

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    def inputs(self) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def input_digest(self) -> str:
        return checks.digest(self.inputs())

    def setup(self) -> None:
        pass

    def close(self) -> None:
        pass


# -- campaign-sweep ------------------------------------------------------------

SWEEP_POLICIES = [
    {"kind": "baseline"},
    {"kind": "static", "freq_mhz": 1305.0},
    {"kind": "static", "freq_mhz": 1005.0},
    {"kind": "dvfs"},
    {"kind": "mandyn"},
]
SWEEP_WORKLOADS = ["SedovBlast", "SubsonicTurbulence"]
SWEEP_STEPS = 10
#: Seed labels per drain: 10-unit grid x 20 = 200 units, so the p95
#: unit latency has 10 samples beyond it within every single drain.
SWEEP_LABELS = 20


def sweep_spec(seed: int, drain: int, labels: int = SWEEP_LABELS) -> Dict[str, Any]:
    rng = random.Random(f"campaign-sweep:{seed}:{drain}")
    return {
        "schema": 1,
        "kind": "campaign-spec",
        "name": f"sweep-s{seed}-d{drain}",
        "systems": ["miniHPC"],
        "workloads": list(SWEEP_WORKLOADS),
        "policies": [dict(p) for p in SWEEP_POLICIES],
        "particles": [1.0e6],
        "steps": SWEEP_STEPS,
        "ranks": 1,
        "seeds": sorted(rng.sample(range(1_000_000), labels)),
    }


@dataclass
class Drain:
    store: Any
    units: List[Any]
    status: Any
    wall_s: float
    latencies_s: List[float]


class CampaignSweep(Workload):
    name = "campaign-sweep"
    loop = "batch, 2 worker processes"
    lanes = 1 + WORKERS

    def _labels(self) -> int:
        return 2 if self.smoke else SWEEP_LABELS

    def inputs(self) -> Any:
        return sweep_spec(self.seed, 0, self._labels())

    def setup(self) -> None:
        from repro.campaign import CampaignSpec

        self._next = 0
        self._spec = CampaignSpec.from_dict(self.inputs())
        self._spec.expand()

    def _spec_for(self, index: int):
        from repro.campaign import CampaignSpec

        if index == 0:
            return self._spec
        return CampaignSpec.from_dict(sweep_spec(self.seed, index, self._labels()))

    def _drain(self, tracer: Optional[Tracer] = None) -> Drain:
        from repro.campaign import CampaignExecutor, ExecutorConfig, RunStore

        spec = self._spec_for(self._next)
        self._next += 1
        units = spec.expand()
        store = RunStore(str(self.workdir / spec.name), campaign=spec.name)
        starts: Dict[str, float] = {}
        latencies: List[float] = []

        def on_event(event: Dict[str, Any]) -> None:
            now = time.perf_counter()
            if event["event"] == "unit-start":
                starts.setdefault(event["key"], now)
            elif event["event"] == "unit-done":
                latencies.append(now - starts[event["key"]])

        executor = CampaignExecutor(
            store, ExecutorConfig(workers=WORKERS), on_event=on_event
        )
        # Each drain starts on a quiet disk: the previous drain's
        # artifacts, and their deletion, are written back first.
        os.sync()
        if tracer is not None:
            # Before the pool forks: workers inherit the wrappers.
            install_layers(tracer)
            tracer.start_window()
        t0 = time.perf_counter()
        try:
            status = executor.run(units)
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.stop_window()
                tracer.uninstall()
        wait_children()
        return Drain(store, units, status, wall, latencies)

    def _check(self, drain: Drain, out: Outcome, seen: Dict[str, str]) -> None:
        """Check one drain's units, then delete its store."""
        reference = checks.load_reference()["campaign-sweep"]
        done = drain.store.completed_keys()
        missing = []
        for unit in drain.units:
            out.attempted += 1
            if drain.status.provenance.get(unit.key) != "executed" or unit.key not in done:
                out.failed += 1
                missing.append(unit.key)
                continue
            signature, got, bad = checks.check_artifact(
                drain.store.load_result(unit.key), reference
            )
            seen[signature] = got
            if bad is not None:
                out.failed += 1
                out.failure_types["output-mismatch"] += 1
                out.mismatches.append(bad)
        if missing:
            out.failure_types.update(failed_unit_types(drain.store, missing))
        shutil.rmtree(drain.store.root)

    def _summarize(self, drains: List[Drain], out: Outcome) -> None:
        # Every statistic is taken per drain, then the median over drains:
        # a burst of host contention during a few drains barely moves it,
        # where it would dominate a p95 pooled over the whole run.
        rates = [d.status.executed / d.wall_s for d in drains]
        lat_ms = [[x * 1e3 for x in d.latencies_s] for d in drains]
        tails = [percentile(l, 95) for l in lat_ms]
        out.throughput = statistics.median(rates)
        out.latency_p50_ms = statistics.median(percentile(l, 50) for l in lat_ms)
        out.latency_tail_ms = statistics.median(tails)
        n = sum(len(l) for l in lat_ms)
        beyond = sum(x > t for l, t in zip(lat_ms, tails) for x in l)
        n_drains = f"median of {len(drains)} drains"
        out.named.update(
            {
                "units_per_s": (out.throughput, "1/s", n_drains),
                "unit_latency_p50_ms": (
                    out.latency_p50_ms, "ms", f"{n_drains}, n={n}"
                ),
                "unit_latency_p95_ms": (
                    out.latency_tail_ms, "ms", f"{n_drains}, n={n}, {beyond} beyond"
                ),
            }
        )

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        seen: Dict[str, str] = {}
        drains: List[Drain] = []
        t_end = time.perf_counter() + seconds
        while not drains or time.perf_counter() < t_end:
            drains.append(self._drain())
            self._check(drains[-1], out, seen)
        out.output_digest = checks.digest(seen)
        self._summarize(drains, out)
        return out

    def trace(self, tracer: Tracer, pairs: int) -> Outcome:
        out = Outcome()
        seen: Dict[str, str] = {}
        plain: List[Drain] = []
        traced: List[Drain] = []
        for _ in range(pairs):
            for runs, with_tracer in ((plain, None), (traced, tracer)):
                runs.append(self._drain(with_tracer))
                self._check(runs[-1], out, seen)
        out.output_digest = checks.digest(seen)
        self._summarize(plain + traced, out)
        out.tracing_overhead_frac = (
            statistics.median(d.wall_s for d in traced)
            / statistics.median(d.wall_s for d in plain)
            - 1.0
        )
        return out


# -- numeric-sedov -------------------------------------------------------------

#: Initial-condition variants: the Sedov IC seed is ``seed % IC_VARIANTS``,
#: so ``reference.json`` can hold a final-state digest for every variant.
IC_VARIANTS = 16
SEDOV_NSIDE = 16
SEDOV_SKIN = 0.1
SEDOV_RANKS = 2
SEDOV_STEPS = 10


def sedov_inputs(seed: int) -> Dict[str, Any]:
    return {
        "problem": "SedovBlast",
        "nside": SEDOV_NSIDE,
        "skin": SEDOV_SKIN,
        "ic_seed": seed % IC_VARIANTS,
        "ranks": SEDOV_RANKS,
        "steps": SEDOV_STEPS,
    }


@dataclass
class SedovRun:
    cluster: Any
    sim: Any
    particles: Any
    energy0: float


def build_sedov(inputs: Dict[str, Any]) -> SedovRun:
    """Particles, cluster and initialized simulation (before the loop)."""
    from repro.sph import NumericProblem, Simulation
    from repro.sph.init import SedovConfig, make_sedov, make_sedov_eos
    from repro.systems import Cluster, mini_hpc

    cfg = SedovConfig(nside=inputs["nside"], seed=inputs["ic_seed"])
    particles = make_sedov(cfg)
    cluster = Cluster(mini_hpc(), inputs["ranks"])
    problem = NumericProblem(
        particles=particles,
        n_ranks=inputs["ranks"],
        eos=make_sedov_eos(cfg),
        box_size=cfg.box_size,
        skin=inputs["skin"],
    )
    sim = Simulation(
        cluster, inputs["problem"], particles.n / inputs["ranks"], numeric=problem
    )
    energy0 = checks.total_energy(particles)
    sim.initialize()
    return SedovRun(cluster, sim, particles, energy0)


class NumericSedov(Workload):
    name = "numeric-sedov"
    loop = "batch, 2 ranks on the default comm backend"
    lanes = 1

    def inputs(self) -> Any:
        return sedov_inputs(self.seed)

    def setup(self) -> None:
        self._ready: Optional[SedovRun] = build_sedov(self.inputs())

    def _run(self, tracer: Optional[Tracer] = None) -> Tuple[float, List[float], str, float]:
        run = self._ready if self._ready is not None else build_sedov(self.inputs())
        self._ready = None
        steps = self.inputs()["steps"]
        step_s: List[float] = []
        last = [0.0]

        def on_step(done: int) -> None:
            now = time.perf_counter()
            step_s.append(now - last[0])
            last[0] = now

        if tracer is not None:
            install_layers(tracer)
            tracer.start_window()
        try:
            t0 = last[0] = time.perf_counter()
            run.sim.run(steps, on_step=on_step)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.stop_window()
                tracer.uninstall()
            run.cluster.detach_management_library()
        drift = abs(checks.total_energy(run.particles) / run.energy0 - 1.0)
        return wall, step_s, checks.particle_digest(run.particles), drift

    def _finish(self, runs, out: Outcome) -> None:
        want = checks.load_reference()["numeric-sedov"][str(self.inputs()["ic_seed"])]
        n_particles = SEDOV_NSIDE**3
        walls = [r[0] for r in runs]
        steps_ms = [x * 1e3 for r in runs for x in r[1]]
        for _wall, step_s, got, drift in runs:
            out.attempted += 1
            problems = []
            if got != want:
                problems.append(f"final state digest {got}, reference {want}")
            if drift > checks.SEDOV_ENERGY_DRIFT:
                problems.append(f"energy drift {drift:.4f} > {checks.SEDOV_ENERGY_DRIFT}")
            if problems:
                out.failed += 1
                out.failure_types["output-mismatch"] += 1
                out.mismatches.extend(problems)
        out.output_digest = checks.digest(sorted({r[2] for r in runs}))
        out.throughput = n_particles * sum(len(r[1]) for r in runs) / sum(walls)
        out.latency_p50_ms = percentile(steps_ms, 50)
        out.latency_tail_ms = percentile(steps_ms, 75)
        out.named.update(
            {
                "particle_steps_per_s": (
                    out.throughput, "1/s", f"{len(runs)} runs x {SEDOV_STEPS} steps"
                ),
                "step_p50_ms": (out.latency_p50_ms, "ms", f"n={len(steps_ms)}"),
                "step_p75_ms": (out.latency_tail_ms, "ms", f"n={len(steps_ms)}"),
            }
        )

    def measure(self, seconds: float) -> Outcome:
        runs = []
        t_end = time.perf_counter() + seconds
        while not runs or time.perf_counter() < t_end:
            runs.append(self._run())
        out = Outcome()
        self._finish(runs, out)
        return out

    def trace(self, tracer: Tracer, pairs: int) -> Outcome:
        plain, traced = [], []
        for _ in range(pairs):
            plain.append(self._run())
            traced.append(self._run(tracer))
        out = Outcome()
        self._finish(plain + traced, out)
        out.tracing_overhead_frac = (
            statistics.median(r[0] for r in traced)
            / statistics.median(r[0] for r in plain)
            - 1.0
        )
        return out

    def close(self) -> None:
        if getattr(self, "_ready", None) is not None:
            self._ready.cluster.detach_management_library()
            self._ready = None


# -- service-mixed -------------------------------------------------------------

TENANTS = ("alpha", "beta")
#: Each client's ops come in blocks of 10 with 3 re-posts at seeded
#: positions (2 of another tenant's spec, 1 of its own): a 30% share
#: that does not drift from seed to seed.
BLOCK = 10
RESUBMIT_KINDS = ("cross", "cross", "own")
#: A cross-tenant resubmission targets the other client's ops at least
#: this many indices back, so the spec has (almost always) been posted.
RESUBMIT_LAG = 3
SERVICE_STEPS = 4
HTTP_TIMEOUT_S = 60.0


def _rng(seed: int, client: int, index: int, what: str) -> random.Random:
    return random.Random(f"service-mixed:{seed}:{client}:{index}:{what}")


@functools.lru_cache(maxsize=4096)
def _block_plan(seed: int, client: int, block: int) -> Dict[int, str]:
    """Position in the block -> re-post kind, for one block of ops."""
    rng = _rng(seed, client, block, "block")
    positions = rng.sample(range(1 if block == 0 else 0, BLOCK), len(RESUBMIT_KINDS))
    kinds = list(RESUBMIT_KINDS)
    rng.shuffle(kinds)
    return dict(zip(positions, kinds))


def _resubmit_kind(seed: int, client: int, index: int) -> Optional[str]:
    return _block_plan(seed, client, index // BLOCK).get(index % BLOCK)


def service_spec(seed: int, client: int, index: int) -> Dict[str, Any]:
    """The small campaign a fresh op submits: 4 units, 4 steps."""
    rng = _rng(seed, client, index, "spec")
    kind = rng.choice(["baseline", "static", "mandyn"])
    policy: Dict[str, Any] = {"kind": kind}
    if kind == "static":
        policy["freq_mhz"] = rng.choice([1305.0, 1005.0])
    return {
        "schema": 1,
        "kind": "campaign-spec",
        "name": f"mix-s{seed}-{TENANTS[client]}-{index}",
        "systems": ["miniHPC"],
        "workloads": ["SedovBlast", "SubsonicTurbulence"],
        "policies": [policy],
        "particles": [1.0e6],
        "steps": SERVICE_STEPS,
        "ranks": 1,
        "seeds": sorted(rng.sample(range(1_000_000), 2)),
        "checkpoint_every": 2,
    }


def service_op(seed: int, client: int, index: int) -> Dict[str, Any]:
    """Op ``index`` of one client: post a fresh spec, or re-post one."""
    kind = _resubmit_kind(seed, client, index)
    if kind is None:
        return {"kind": "fresh", "spec": service_spec(seed, client, index)}
    rng = _rng(seed, client, index, "target")
    other = 1 - client

    def fresh(c: int, upto: int) -> List[int]:
        return [j for j in range(upto) if _resubmit_kind(seed, c, j) is None]

    cross = fresh(other, index - RESUBMIT_LAG + 1)
    own = fresh(client, index)
    if kind == "cross" and cross:
        owner, target = other, rng.choice(cross)
    else:
        owner, target = client, rng.choice(own)
    return {"kind": "resubmit", "spec": service_spec(seed, owner, target)}


@dataclass
class Cycle:
    """One client op: submit, follow events, fetch report and status."""

    tenant: str
    spec_name: str
    kind: str
    latency_s: Optional[float] = None
    error: Optional[str] = None
    units: Dict[str, Any] = field(default_factory=dict)


def _request(port: int, method: str, path: str, tenant: str, body=None, sse=False):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        headers = {"X-Repro-Tenant": tenant}
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        if not sse:
            return response.status, json.loads(response.read())
        events = []
        for raw in response:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("data: "):
                events.append(json.loads(line[len("data: "):]))
        return response.status, events
    finally:
        conn.close()


def client_cycle(port: int, client: int, op: Dict[str, Any]) -> Cycle:
    """Post, follow the SSE stream, fetch the report, then the status."""
    tenant = TENANTS[client]
    cycle = Cycle(tenant, op["spec"]["name"], op["kind"])
    try:
        t0 = time.perf_counter()
        status, sub = _request(port, "POST", "/campaigns", tenant, op["spec"])
        if status not in (200, 202):
            cycle.error = f"HTTP {status} on submit"
            return cycle
        cid, n_units = sub["id"], sub["units"]
        _request(port, "GET", f"/campaigns/{cid}/events", tenant, sse=True)
        status, _report = _request(port, "GET", f"/campaigns/{cid}/report", tenant)
        t1 = time.perf_counter()
        if status != 200:
            cycle.error = f"HTTP {status} on report"
            return cycle
        cycle.latency_s = t1 - t0
        status, doc = _request(port, "GET", f"/campaigns/{cid}", tenant)
        if status != 200:
            cycle.error = f"HTTP {status} on status"
            return cycle
        cycle.units = doc.get("units", {})
        if len(cycle.units) != n_units:
            cycle.error = "incomplete unit provenance"
    except (OSError, ValueError, KeyError, http.client.HTTPException) as exc:
        cycle.error = type(exc).__name__
    return cycle


def client_main(args_json: str) -> int:
    """One closed-loop client process (``run.py --client``).

    Prints READY, waits for a line on stdin, runs its ops and prints
    the cycles as one JSON line.
    """
    port, seed, client, first, ops, seconds = json.loads(args_json)
    print("READY", flush=True)
    sys.stdin.readline()
    t_end = time.perf_counter() + (seconds or 0.0)
    cycles: List[Dict[str, Any]] = []
    while (len(cycles) < ops) if ops is not None else (time.perf_counter() < t_end or not cycles):
        op = service_op(seed, client, first + len(cycles))
        cycles.append(asdict(client_cycle(port, client, op)))
    print(json.dumps(cycles), flush=True)
    return 0


class ServiceMixed(Workload):
    name = "service-mixed"
    loop = "closed loop, 2 clients as 2 tenants"
    #: The server's event loop plus the scheduler's 2 job threads.
    lanes = 3

    def _ops_per_phase(self) -> int:
        return 2 if self.smoke else 12

    def inputs(self) -> Any:
        return [[service_op(self.seed, c, i) for i in range(32)] for c in range(WORKERS)]

    def setup(self) -> None:
        from repro.service import CampaignService, ServiceConfig, serve

        self._index = [0] * WORKERS
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="perfbench-service", daemon=True
        )
        self.thread.start()

        async def boot():
            service = CampaignService(ServiceConfig(root=str(self.workdir / "service")))
            server = await serve(service)
            return service, server

        self.service, self.server = asyncio.run_coroutine_threadsafe(
            boot(), self.loop
        ).result(HTTP_TIMEOUT_S)

    def close(self) -> None:
        if getattr(self, "thread", None) is None:
            return

        async def stop():
            await self.server.close()
            await self.service.close()

        try:
            asyncio.run_coroutine_threadsafe(stop(), self.loop).result(HTTP_TIMEOUT_S)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(HTTP_TIMEOUT_S)
            self.loop.close()
            self.thread = None

    def _phase(self, ops: Optional[int], seconds: Optional[float]) -> Tuple[List[Cycle], float]:
        """Both clients in a closed loop, for ``ops`` each or ``seconds``.

        Each client is its own interpreter (``run.py --client``), like a
        real user of the service, so client work never holds the
        service's interpreter lock. The clock starts when both are ready.
        """
        procs = []
        try:
            for c in range(WORKERS):
                cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--client",
                       json.dumps([self.server.port, self.seed, c, self._index[c], ops, seconds])]
                procs.append(subprocess.Popen(
                    cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
                ))
            for proc in procs:
                if proc.stdout.readline().strip() != "READY":
                    raise RuntimeError("service client failed to start")
            os.sync()  # start on a quiet disk, as campaign-sweep drains do
            t0 = time.perf_counter()
            for proc in procs:
                proc.stdin.write("GO\n")
                proc.stdin.flush()
            results = [json.loads(proc.stdout.readline()) for proc in procs]
            wall = time.perf_counter() - t0
        finally:
            for proc in procs:
                if proc.poll() is None and proc.wait(timeout=HTTP_TIMEOUT_S) is None:
                    proc.kill()
                proc.stdin.close()
                proc.stdout.close()
        cycles = []
        for c, got in enumerate(results):
            self._index[c] += len(got)
            cycles.extend(Cycle(**cycle) for cycle in got)
        return cycles, wall

    # -- checks and metrics -----------------------------------------------

    def _finish(self, cycles: List[Cycle], wall: float, out: Outcome) -> None:
        reference = checks.load_reference()["service-mixed"]
        seen: Dict[str, str] = {}
        lat_ms = []
        for cycle in cycles:
            out.attempted += 1
            if cycle.latency_s is not None:
                lat_ms.append(cycle.latency_s * 1e3)
            if cycle.error is not None:
                out.failed += 1
                out.failure_types[cycle.error] += 1
                continue
            store = self.service.stores.store_for(cycle.tenant, cycle.spec_name)
            failed = [k for k, p in cycle.units.items() if p["provenance"] == "failed"]
            good = [k for k, p in cycle.units.items() if p["provenance"] != "failed"]
            bad = []
            for key in good:
                signature, got, problem = checks.check_artifact(
                    store.load_result(key), reference
                )
                seen[signature] = got
                if problem is not None:
                    bad.append(problem)
            if bad:
                out.mismatches.extend(bad)
                out.failure_types["output-mismatch"] += len(bad)
            if failed:
                out.failure_types.update(failed_unit_types(store, failed))
            if failed or bad:
                out.failed += 1
        out.output_digest = checks.digest(seen)
        out.throughput = len(lat_ms) / wall
        out.latency_p50_ms = percentile(lat_ms, 50)
        out.latency_tail_ms = percentile(lat_ms, 90)
        beyond = sum(1 for x in lat_ms if x > out.latency_tail_ms)
        out.named.update(
            {
                "campaigns_per_s": (out.throughput, "1/s", f"{len(lat_ms)} cycles"),
                "submit_to_report_p50_ms": (out.latency_p50_ms, "ms", f"n={len(lat_ms)}"),
                "submit_to_report_p90_ms": (
                    out.latency_tail_ms, "ms", f"n={len(lat_ms)}, {beyond} beyond"
                ),
            }
        )

    def measure(self, seconds: float) -> Outcome:
        cycles, wall = self._phase(None, seconds)
        out = Outcome()
        self._finish(cycles, wall, out)
        return out

    def trace(self, tracer: Tracer, pairs: int) -> Outcome:
        cycles: List[Cycle] = []
        walls: Dict[bool, List[float]] = {False: [], True: []}
        for _ in range(pairs):
            for traced in (False, True):
                if traced:
                    install_layers(tracer)
                    tracer.start_window()
                try:
                    got, wall = self._phase(self._ops_per_phase(), None)
                finally:
                    if traced:
                        tracer.stop_window()
                        tracer.uninstall()
                cycles.extend(got)
                walls[traced].append(wall)
        out = Outcome()
        self._finish(cycles, sum(walls[False]) + sum(walls[True]), out)
        out.tracing_overhead_frac = sum(walls[True]) / sum(walls[False]) - 1.0
        return out


WORKLOADS = {w.name: w for w in (CampaignSweep, NumericSedov, ServiceMixed)}
