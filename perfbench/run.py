"""One benchmark for the whole repro stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads: ``campaign-sweep``, ``numeric-sedov``, ``service-mixed``
(see ``workloads.py``); ``all`` runs each in its own interpreter and
prints every end-to-end metric of every workload. ``BENCHMARK.json``
lists the first two only: ``service-mixed`` returns wrong unit results
while two tenants' campaigns run in one process (see ``meta.json``), so
it stays runnable here, unnarrowed, until that is fixed.

``--trace 0`` measures the end-to-end metrics, untraced, for
``--seconds`` seconds. ``--trace 1`` runs a fixed amount of work
(independent of ``--seconds``, so per-layer totals compare across
versions) with the layer wrappers of ``tracer.py`` installed on
alternate passes, and reports the per-layer metrics, the reconciliation
of self times against the traced wall time, and the tracing overhead.
The result line holds exactly the per-layer metrics ``BENCHMARK.json``
lists; the others (the service-side layers) are printed above it.

Every timing is host time. Simulated GPU time, energy and EDP are
checked against ``reference.json``, never reported as metrics. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). Failures are
operations that raised, returned an error status, had a failed unit or
failed the output check; ``correct`` is false when any produced output
differs from its reference or the trace does not reconcile.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 5
#: Untraced/traced pass pairs in a ``--trace 1`` run.
TRACE_PAIRS = 2

#: The end-to-end metrics every workload reports on its result line.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}
#: What throughput, p50 and tail latency are on each workload: the
#: names printed above the result line.
WORKLOAD_METRIC_NAMES = {
    "campaign-sweep": ("units_per_s", "unit_latency_p50_ms", "unit_latency_p95_ms"),
    "numeric-sedov": ("particle_steps_per_s", "step_p50_ms", "step_p75_ms"),
    "service-mixed": (
        "campaigns_per_s", "submit_to_report_p50_ms", "submit_to_report_p90_ms",
    ),
}


def _versions() -> Dict[str, str]:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _workload(name: str, seed: int, workdir: Path, smoke: bool):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, workdir, smoke=smoke)


def _peak_rss_mb() -> float:
    """Max RSS of this process and of its waited-for children, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _probe_setup(name: str, seed: int, smoke: bool) -> float:
    """Fresh interpreter start to the first timed operation, seconds."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", name, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
    try:
        ready = None
        for line in proc.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter() - t0
                break
        proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready is None or code != 0:
        raise RuntimeError(f"setup probe for {name} failed (exit {code})")
    return ready


def _print_table(rows: List[Tuple[str, float, str, str]]) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:<26} {value:>14.6g} {unit:<6} {note}")


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def _listed_per_layer() -> List[str]:
    """The per-layer metric names ``BENCHMARK.json`` lists."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc["per_layer"]]


def _header(wl, args) -> None:
    info = {"workload": wl.name, "seed": args.seed, "loop": wl.loop,
            "host_cores": os.cpu_count(), **_versions(),
            "input_digest": wl.input_digest()}
    print("perfbench " + " ".join(f"{k}={v}" for k, v in info.items()))


def _report_outcome(out) -> bool:
    """Print failures and mismatches; True when every output checked."""
    frac = out.failed / out.attempted if out.attempted else 0.0
    print(f"  {'failed_frac':<26} {frac:>14.6g} {'ratio':<6} "
          f"{out.failed}/{out.attempted} operations")
    for kind, n in sorted(out.failure_types.items()):
        print(f"    failed units/ops of type {kind}: {n}")
    for line in out.mismatches[:20]:
        print(f"    MISMATCH {line}")
    print(f"  output_digest {out.output_digest}")
    return not out.mismatches


def run_timed(args, workdir: Path) -> int:
    wl = _workload(args.workload, args.seed, workdir, args.smoke)
    _header(wl, args)
    probes = [_probe_setup(args.workload, args.seed, args.smoke)
              for _ in range(1 if args.smoke else SETUP_PROBES)]
    wl.setup()
    try:
        out = wl.measure(args.seconds)
    finally:
        wl.close()
    setup_s = statistics.median(probes)
    rss = _peak_rss_mb()
    names = WORKLOAD_METRIC_NAMES[wl.name]
    _print_table([
        ("setup_s", setup_s, "s", f"median of {len(probes)} fresh interpreters"),
        ("peak_rss_mb", rss, "MB", "this process and its children"),
    ])
    correct = _report_outcome(out)
    _print_table([(n, *out.named[n]) for n in names])
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "throughput_per_s": (out.throughput, "1/s"),
        "latency_p50_ms": (out.latency_p50_ms, "ms"),
        "latency_tail_ms": (out.latency_tail_ms, "ms"),
    }
    print(_result_line(correct, out.attempted, out.failed, metrics))
    return 0


def run_traced(args, workdir: Path) -> int:
    from tracer import Tracer, per_layer_metrics

    wl = _workload(args.workload, args.seed, workdir, args.smoke)
    _header(wl, args)
    spill = workdir / "spans"
    spill.mkdir()
    tracer = Tracer(str(spill))
    wl.setup()
    try:
        out = wl.trace(tracer, 1 if args.smoke else TRACE_PAIRS)
    finally:
        wl.close()
    correct = _report_outcome(out)
    spans, counts, top_s = tracer.collect()
    metrics, rec = per_layer_metrics(
        spans, counts, top_s, tracer.wall_s, wl.lanes, out.tracing_overhead_frac
    )
    print(f"  reconciliation: {wl.lanes} lanes x {tracer.wall_s:.4f}s traced wall "
          f"= {rec['lane_s']:.4f} lane-s")
    for layer, value in rec["self_s"].items():
        share = value / rec["lane_s"] if rec["lane_s"] else 0.0
        print(f"    self {layer:<24} {value:>10.4f} s {share:>7.1%}")
    share = rec["unattributed_s"] / rec["lane_s"] if rec["lane_s"] else 0.0
    print(f"    {'unattributed':<29} {rec['unattributed_s']:>10.4f} s {share:>7.1%}")
    for (layer, name), (calls, total, _self) in sorted(spans.items()):
        if layer == "service" and name.startswith("request:"):
            print(f"    route {name[len('request:'):]:<34} {int(calls):>6} calls {total:>9.4f} s")
    print(f"  sph.numeric.pairs {metrics['sph.numeric.pairs'][0]:.0f} (computed: "
          "mean_neighbor_counts x local_particle_counts per neighbor search)")
    print(f"  tracing_overhead_frac {out.tracing_overhead_frac:+.4f}")
    for target in sorted(set(tracer.missing)):
        print(f"  not wrapped, absent from this version: {target}")
    for problem in rec["problems"]:
        print(f"    RECONCILIATION {problem}")
    listed = _listed_per_layer()
    for name, (value, unit) in metrics.items():
        if name not in listed:
            print(f"  {name:<36} {value:>14.6g} {unit:<6} not in BENCHMARK.json")
    print(_result_line(correct and not rec["problems"], out.attempted,
                       out.failed, {name: metrics[name] for name in listed}))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter; every metric by name."""
    from workloads import WORKLOADS

    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                              text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, m in result["metrics"].items():
            metrics[f"{name}.{key}"] = (m["value"], m["unit"])
    print(_result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--client"]:  # one service-mixed client process
        sys.path.insert(0, str(HERE))
        from workloads import client_main

        return client_main(argv[1])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed work (self-tests)")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: all, {', '.join(WORKLOADS)})")
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.probe_setup:
            wl = _workload(args.workload, args.seed, workdir, args.smoke)
            wl.setup()
            print("READY", flush=True)
            wl.close()
            return 0
        if args.trace:
            return run_traced(args, workdir)
        return run_timed(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
