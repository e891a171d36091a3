"""Command-line interface.

Gives downstream users the paper's workflow without writing Python::

    python -m repro run --system miniHPC --workload turbulence \
        --particles 91125000 --steps 10 --policy mandyn
    python -m repro tune --system miniHPC --particles 91125000
    python -m repro compare --system miniHPC --particles 91125000
    python -m repro systems
    python -m repro sacct --system CSCS-A100 --ranks 8 --steps 5
    python -m repro trace record --workload sedov --steps 4 \
        --export trace.json
    python -m repro trace summary --policy mandyn
    python -m repro campaign run --spec examples/campaign_fig7.json \
        --dir campaigns/fig7 --workers 2
    python -m repro campaign report --dir campaigns/fig7
    python -m repro monitor snapshot --workload sedov --steps 4
    python -m repro monitor report --workload sedov --steps 4 \
        --scenario flaky-clocks --out report.html
    python -m repro monitor watch --dir campaigns/fig7
    python -m repro profile record --spec examples/campaign_fig7.json \
        --dir campaigns/fig7 --workers 2
    python -m repro profile critical-path --trace campaigns/fig7/traces/<key>
    python -m repro profile diff trace_a.jsonl trace_b.jsonl

Every subcommand prints the same report tables the benchmarks use;
``trace`` records a structured run trace (Chrome ``trace_event`` JSON
for Perfetto, compact JSONL for diffing) through ``repro.telemetry``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import sys
from typing import Dict, List, Optional, Sequence

from . import nvml
from .core import (
    DvfsPolicy,
    FrequencyPolicy,
    ManDynPolicy,
    StaticFrequencyPolicy,
    baseline_policy,
    device_breakdown_percent,
    function_share_percent,
)
from .reporting import render_breakdown, render_table
from .slurm import JobSpec, SlurmController
from .sph import run_instrumented, resolve_workload
from .systems import Cluster, all_system_names, by_name
from .tuner import tune_all_sph_functions
from .units import format_energy, format_time, to_mhz


def _workload(name: str) -> str:
    try:
        return resolve_workload(name)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _policy(
    name: str, freq: Optional[float], freq_map: Optional[str], max_mhz: float
) -> FrequencyPolicy:
    key = name.lower()
    if key == "baseline":
        return baseline_policy(max_mhz)
    if key == "static":
        if freq is None:
            raise SystemExit("--freq is required with --policy static")
        return StaticFrequencyPolicy(freq)
    if key == "dvfs":
        return DvfsPolicy()
    if key == "mandyn":
        mapping: Dict[str, float] = {}
        if freq_map:
            mapping = {
                k: float(v)
                for k, v in (json.loads(freq_map)).items()
            }
        else:
            # The Fig. 2 outcome as a sensible default.
            mapping = {
                "MomentumEnergy": max_mhz,
                "IADVelocityDivCurl": max_mhz,
            }
        default = freq if freq is not None else 1005.0
        return ManDynPolicy(mapping, default_mhz=default)
    raise SystemExit(
        f"unknown policy {name!r} (known: baseline, static, dvfs, mandyn)"
    )


def _version() -> str:
    """Package version from installed metadata, else the source tree."""
    try:
        return importlib.metadata.version("repro")
    except importlib.metadata.PackageNotFoundError:
        from . import __version__

        return __version__


def _run_once(args, policy: FrequencyPolicy, telemetry=None):
    cluster = Cluster(by_name(args.system), args.ranks)
    try:
        result = run_instrumented(
            cluster,
            _workload(args.workload),
            args.particles,
            args.steps,
            policy=policy,
            telemetry=telemetry,
        )
    finally:
        cluster.detach_management_library()
    return result, cluster


def cmd_systems(args) -> int:
    from .catalog import available_entries, validate_shipped_catalog

    if getattr(args, "validate", False):
        entries = validate_shipped_catalog()
        for entry in entries:
            print(f"OK {entry.name}: {entry.path}")
        print(f"{len(entries)} shipped spec(s) valid")
        return 0
    entries = available_entries()
    if getattr(args, "json", False):
        systems = []
        for name in all_system_names():
            if name in entries:
                systems.append(entries[name].to_dict())
            else:  # preset without a catalog file (defensive)
                system = by_name(name)
                gpu = system.gpu_spec()
                systems.append({
                    "name": name,
                    "source": None,
                    "schema": None,
                    "vendor": gpu.vendor,
                    "gpu": gpu.name,
                    "clock_mhz": [to_mhz(gpu.min_clock_hz),
                                  to_mhz(gpu.max_clock_hz)],
                    "ranks_per_node": system.ranks_per_node,
                    "pmt_backend": system.pmt_backend,
                    "slurm_energy_plugin": system.slurm_energy_plugin,
                    "description": "",
                    "origin": "builtin",
                })
        print(json.dumps(
            {"schema": 1, "kind": "system-catalog", "systems": systems},
            indent=1, sort_keys=True,
        ))
        return 0
    rows = []
    for name in all_system_names():
        system = by_name(name)
        gpu = system.gpu_spec()
        entry = entries.get(name)
        rows.append(
            [
                name,
                f"{system.ranks_per_node}x {gpu.name}",
                f"{to_mhz(gpu.max_clock_hz):.0f}",
                system.pmt_backend,
                system.slurm_energy_plugin,
                "yes" if system.allow_user_freq_control else "no",
                entry.origin if entry else "builtin",
            ]
        )
    print(
        render_table(
            ["system", "GPUs per node", "max clock [MHz]", "PMT backend",
             "Slurm energy plugin", "user clock control", "catalog"],
            rows,
            title="available systems (Table I presets + catalog)",
        )
    )
    return 0


def cmd_calibrate_sweep(args) -> int:
    from .catalog.fit import run_calibration_sweep

    system = by_name(args.system)
    clocks = None
    if args.clocks:
        clocks = [float(c) for c in args.clocks.split(",") if c.strip()]
    result = run_calibration_sweep(
        system,
        args.out_dir,
        clocks_mhz=clocks,
        period_s=args.period,
        window_s=args.window,
    )
    print(
        f"swept {result.system}: {result.n_probes} probe windows across "
        f"{len(result.clocks_mhz)} clocks "
        f"({', '.join(f'{c:.0f}' for c in result.clocks_mhz)} MHz), "
        f"{result.elapsed_s:.2f} simulated s"
    )
    print(f"trace    : {result.trace_path}")
    print(f"pmt dump : {result.dump_path}")
    print(f"schedule : {result.schedule_path}")
    return 0


def cmd_calibrate_fit(args) -> int:
    from .catalog import write_spec_file
    from .catalog.fit import (
        fit_from_dump,
        fit_from_trace,
        fit_to_spec_payload,
    )

    if args.trace:
        fit = fit_from_trace(args.trace)
    elif args.dump:
        if not args.schedule:
            raise SystemExit("--dump requires --schedule (the sweep sidecar)")
        fit = fit_from_dump(args.dump, args.schedule)
    else:
        raise SystemExit("provide --trace, or --dump with --schedule")
    if args.json:
        print(json.dumps(
            {"schema": 1, "kind": "calibration-fit", **fit.to_dict()},
            indent=1, sort_keys=True,
        ))
    else:
        rows = [
            ["P_idle [W]", f"{fit.idle_power_w:.2f}"],
            ["P_dyn [W]", f"{fit.dynamic_power_w:.2f}"],
            ["alpha", f"{fit.power_exponent:.4f}"],
            ["FP64 peak [GFLOP/s]", f"{fit.fp_throughput / 1e9:.1f}"],
            ["mem BW [GB/s]", f"{fit.mem_bandwidth / 1e9:.1f}"],
        ]
        for k in fit.kernels:
            rows.append([
                f"{k.name} eff / kappa",
                f"{k.efficiency:.3f} / {k.compute_fraction_max:.3f}",
            ])
        print(render_table(
            ["parameter", "fitted value"], rows,
            title=f"calibration fit: {fit.gpu_name or fit.system} "
                  f"({fit.n_windows} windows, "
                  f"{len(fit.clocks_mhz)} clocks)",
        ))
    if args.out:
        base = by_name(args.base_system) if args.base_system else None
        if base is None:
            raise SystemExit(
                "--out requires --base-system (CPU/node/measurement "
                "sections are inherited from it)"
            )
        payload = fit_to_spec_payload(fit, base, name=args.name)
        write_spec_file(args.out, payload)
        print(f"spec written: {args.out}")
    return 0


def _calibrate_smoke(args) -> int:
    """Sweep + fit round-trip against ground truth; exit 1 on drift."""
    import tempfile

    from .catalog.fit import (
        fit_from_dump,
        fit_from_trace,
        run_calibration_sweep,
        verify_fit,
    )

    power_tol, roofline_tol = 0.02, 0.05
    system = by_name(args.system)
    spec = system.gpu_spec()
    failures = []
    with tempfile.TemporaryDirectory(prefix="repro-calibrate-") as tmp:
        result = run_calibration_sweep(system, tmp)
        fits = {
            "trace": fit_from_trace(result.trace_path),
            "dump": fit_from_dump(result.dump_path, result.schedule_path),
        }
        for label, fit in fits.items():
            errors = verify_fit(fit, spec)
            checks = {
                "idle_power_w": (errors["idle_power_w"], power_tol),
                "dynamic_power_w": (errors["dynamic_power_w"], power_tol),
                "power_exponent": (errors["power_exponent"], power_tol),
                "fp_throughput": (errors["fp_throughput"], power_tol),
                "mem_bandwidth": (errors.get("mem_bandwidth", 0.0),
                                  power_tol),
            }
            for name, kerrs in errors.get("kernels", {}).items():
                for key, err in kerrs.items():
                    checks[f"{name}.{key}"] = (err, roofline_tol)
            for key, (err, tol) in checks.items():
                status = "PASS" if err <= tol else "FAIL"
                if err > tol:
                    failures.append(f"{label}:{key}")
                print(f"{status} {label:5s} {key:40s} "
                      f"err={err:.2e} tol={tol:.0%}")
    if failures:
        print(f"calibration smoke FAILED on {system.name}: "
              f"{', '.join(failures)}")
        return 1
    print(f"calibration smoke passed on {system.name} "
          f"(power within {power_tol:.0%}, roofline within "
          f"{roofline_tol:.0%})")
    return 0


CALIBRATE_COMMANDS = {
    "sweep": cmd_calibrate_sweep,
    "fit": cmd_calibrate_fit,
}


def cmd_calibrate(args) -> int:
    if args.smoke:
        return _calibrate_smoke(args)
    if not args.calibrate_command:
        raise SystemExit(
            "choose a calibrate subcommand (sweep | fit) or pass --smoke"
        )
    return CALIBRATE_COMMANDS[args.calibrate_command](args)


def cmd_run(args) -> int:
    system = by_name(args.system)
    max_mhz = to_mhz(system.gpu_spec().max_clock_hz)
    policy = _policy(args.policy, args.freq, args.freq_map, max_mhz)
    result, cluster = _run_once(args, policy)

    print(
        f"workload={_workload(args.workload)} system={args.system} "
        f"ranks={args.ranks} particles/rank={args.particles:g} "
        f"steps={args.steps} policy={policy.name}"
    )
    print(
        f"time-to-solution : {format_time(result.elapsed_s)}\n"
        f"GPU energy       : {format_energy(result.gpu_energy_j)}\n"
        f"total energy     : {format_energy(result.report.total_j())}\n"
        f"EDP (GPU)        : {result.edp:.1f} J*s\n"
        f"clock changes    : {result.clock_set_calls}"
    )
    print()
    print(
        render_breakdown(
            device_breakdown_percent(result.report),
            title="energy per device class [%]",
        )
    )
    print()
    print(
        render_breakdown(
            function_share_percent(result.report, "GPU"),
            title="GPU energy per function [%]",
        )
    )
    if args.report:
        result.report.save(args.report)
        print(f"\nper-rank report written to {args.report}")
    return 0


def cmd_tune(args) -> int:
    system = by_name(args.system)
    cluster = Cluster(system, 1)
    try:
        gpu = cluster.gpus[0]
        lo = args.min_freq
        hi = int(to_mhz(gpu.spec.max_clock_hz))
        if gpu.spec.vendor == "nvidia":
            handle = nvml.nvmlDeviceGetHandleByIndex(0)
            freqs: Sequence[float] = nvml.supported_clock_window_mhz(
                handle, lo, hi
            )[:: args.stride]
        else:
            step = int(to_mhz(gpu.spec.clock_step_hz)) * args.stride
            freqs = list(range(hi, lo - 1, -step))
        with_gravity = _workload(args.workload) == "EvrardCollapse"
        best = tune_all_sph_functions(
            gpu, int(args.particles), freqs, with_gravity=with_gravity,
            iterations=args.iterations,
        )
    finally:
        cluster.detach_management_library()
    if args.json:
        print(
            json.dumps(
                {
                    "schema": 1,
                    "kind": "tune",
                    "system": args.system,
                    "workload": _workload(args.workload),
                    "clock_window_mhz": [lo, hi],
                    "n_clocks": len(freqs),
                    "freq_map": best,
                },
                indent=1,
                sort_keys=True,
            )
        )
        return 0
    print(
        render_table(
            ["function", "best-EDP clock [MHz]"],
            sorted(best.items(), key=lambda kv: -kv[1]),
            title=f"tuned frequencies on {args.system} "
                  f"({len(freqs)} clocks in [{lo}, {hi}] MHz)",
        )
    )
    print("\nManDyn frequency map (pass via `run --policy mandyn "
          "--freq-map '<json>'`):")
    print(json.dumps(best))
    return 0


def cmd_compare(args) -> int:
    system = by_name(args.system)
    max_mhz = to_mhz(system.gpu_spec().max_clock_hz)
    policies = {
        "baseline": baseline_policy(max_mhz),
        f"static {args.freq:.0f}": StaticFrequencyPolicy(args.freq),
        "dvfs": DvfsPolicy(),
        "mandyn": _policy("mandyn", args.freq, args.freq_map, max_mhz),
    }
    runs = {}
    for label, policy in policies.items():
        runs[label], _ = _run_once(args, policy)
    base = runs["baseline"]
    if args.json:
        payload = {
            "schema": 1,
            "kind": "compare",
            "system": args.system,
            "workload": _workload(args.workload),
            "baseline": "baseline",
            "rows": {
                label: {
                    "elapsed_s": res.elapsed_s,
                    "gpu_energy_j": res.gpu_energy_j,
                    "rel_time": res.elapsed_s / base.elapsed_s,
                    "rel_energy": res.gpu_energy_j / base.gpu_energy_j,
                    "rel_edp": (
                        res.elapsed_s
                        * res.gpu_energy_j
                        / (base.elapsed_s * base.gpu_energy_j)
                    ),
                }
                for label, res in runs.items()
            },
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    rows = []
    for label, res in runs.items():
        t = res.elapsed_s / base.elapsed_s
        e = res.gpu_energy_j / base.gpu_energy_j
        rows.append([label, f"{t:.4f}", f"{e:.4f}", f"{t * e:.4f}"])
    print(
        render_table(
            ["policy", "time", "GPU energy", "EDP"],
            rows,
            title=f"normalized policy comparison on {args.system}",
        )
    )
    return 0


def cmd_report(args) -> int:
    """Post-hoc analysis of a saved energy report (run --report ...)."""
    from .core import EnergyReport, run_metrics

    report = EnergyReport.load(args.path)
    metrics = run_metrics(report)
    gpu_metrics = run_metrics(report, gpu_only=True)
    print(
        f"ranks            : {len(report.ranks)}\n"
        f"window time      : {format_time(metrics.time_s)}\n"
        f"total energy     : {format_energy(metrics.energy_j)}\n"
        f"GPU energy       : {format_energy(gpu_metrics.energy_j)}\n"
        f"EDP (total)      : {metrics.edp:.1f} J*s"
    )
    print()
    print(
        render_breakdown(
            device_breakdown_percent(report),
            title="energy per device class [%]",
        )
    )
    for device in ("GPU", "CPU"):
        print()
        print(
            render_breakdown(
                function_share_percent(report, device),
                title=f"{device} energy per function [%]",
            )
        )
    return 0


def cmd_diff(args) -> int:
    """Compare two saved energy reports (B vs baseline A)."""
    from .core import EnergyReport, diff_reports

    a = EnergyReport.load(args.baseline)
    b = EnergyReport.load(args.candidate)
    diff = diff_reports(a, b)
    print(
        f"time        : x{diff.time_ratio:.4f}\n"
        f"total energy: x{diff.total_energy_ratio:.4f}\n"
        f"GPU energy  : x{diff.gpu_energy_ratio:.4f}\n"
        f"EDP (GPU)   : x{diff.edp_ratio:.4f}"
    )
    rows = [
        [d.function, f"{d.time_ratio:.4f}", f"{d.gpu_energy_ratio:.4f}",
         f"{d.edp_ratio:.4f}"]
        for d in diff.functions
    ]
    print()
    print(
        render_table(
            ["function", "time", "GPU energy", "EDP"],
            rows,
            title="per-function ratios (candidate / baseline)",
        )
    )
    return 0


def cmd_sacct(args) -> int:
    cluster = Cluster(by_name(args.system), args.ranks)
    controller = SlurmController()
    controller.accounting.enable_energy_accounting()

    def app(cl, job):
        return run_instrumented(
            cl, _workload(args.workload), args.particles, args.steps
        )

    try:
        job = controller.submit(
            JobSpec(
                name=args.job_name,
                n_nodes=cluster.n_nodes,
                n_tasks=args.ranks,
            ),
            cluster,
            app,
        )
    finally:
        cluster.detach_management_library()
    rows = controller.accounting.sacct(
        job.job_id,
        fields=("JobID", "JobName", "State", "Elapsed", "NNodes",
                "NTasks", "ConsumedEnergy", "ConsumedEnergyRaw"),
    )
    print(render_table(list(rows[0]), [list(r.values()) for r in rows]))
    pmt_j = job.result.report.total_j()
    print(
        f"\ninstrumented (PMT) window: {format_energy(pmt_j)} "
        f"({pmt_j / job.consumed_energy_j:.1%} of ConsumedEnergy)"
    )
    return 0


def _trace_run(args):
    """Shared record/summary path: one traced instrumented run."""
    from .telemetry import TraceCollector

    system = by_name(args.system)
    max_mhz = to_mhz(system.gpu_spec().max_clock_hz)
    policy = _policy(args.policy, args.freq, args.freq_map, max_mhz)
    collector = TraceCollector(max_events=args.max_events)
    result, _ = _run_once(args, policy, telemetry=collector)
    return collector, result, policy


def cmd_trace_record(args) -> int:
    from .telemetry import (
        max_drift_s,
        reconcile_with_report,
        write_chrome_trace,
        write_trace_jsonl,
    )

    collector, result, policy = _trace_run(args)
    label = (
        f"{_workload(args.workload)} on {args.system} "
        f"({policy.name}, {args.steps} steps)"
    )
    print(
        f"recorded {len(collector.events)} trace events "
        f"({len(collector.spans())} spans) over {args.steps} steps; "
        f"{collector.dropped} dropped"
    )
    rows = reconcile_with_report(collector.events, result.report)
    print(f"max trace-vs-report drift: {max_drift_s(rows):.2e} s")
    if args.export:
        write_chrome_trace(args.export, collector.events, label=label)
        print(f"Chrome trace_event JSON written to {args.export} "
              "(open in Perfetto / chrome://tracing)")
    if args.jsonl:
        write_trace_jsonl(args.jsonl, collector.events)
        print(f"JSONL trace written to {args.jsonl}")
    if args.report:
        result.report.save(args.report)
        print(f"per-rank energy report written to {args.report}")
    return 0


def cmd_trace_summary(args) -> int:
    from .telemetry import (
        max_drift_s,
        reconcile_with_report,
        render_summary,
        summarize_functions,
    )

    collector, result, policy = _trace_run(args)
    if args.json:
        rows = reconcile_with_report(collector.events, result.report)
        functions = summarize_functions(collector.events)
        payload = {
            "schema": 1,
            "kind": "trace-summary",
            "workload": _workload(args.workload),
            "system": args.system,
            "ranks": args.ranks,
            "steps": args.steps,
            "policy": policy.name,
            "snapshot": collector.metrics.snapshot(),
            "functions": {
                s.function: {
                    "spans": s.spans,
                    "total_s": s.total_s,
                    "mean_s": s.mean_s,
                    "min_s": s.min_s,
                    "max_s": s.max_s,
                }
                for s in functions.values()
            },
            "reconciliation": [
                {
                    "function": r.function,
                    "trace_time_s": r.trace_time_s,
                    "report_time_s": r.report_time_s,
                    "drift_s": r.drift_s,
                    "ok": r.ok(),
                }
                for r in rows
            ],
            "max_drift_s": max_drift_s(rows),
            "events": len(collector.events),
            "dropped": collector.dropped,
            "comm": result.report.comm,
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    print(
        f"workload={_workload(args.workload)} system={args.system} "
        f"ranks={args.ranks} steps={args.steps} policy={policy.name}"
    )
    print()
    print(render_summary(collector, result.report))
    return 0


def cmd_trace_export(args) -> int:
    from .telemetry import read_trace_jsonl, write_chrome_trace

    events = read_trace_jsonl(args.input)
    write_chrome_trace(args.output, events)
    print(
        f"re-rendered {len(events)} events from {args.input} as Chrome "
        f"trace_event JSON at {args.output}"
    )
    return 0


TRACE_COMMANDS = {
    "record": cmd_trace_record,
    "summary": cmd_trace_summary,
    "export": cmd_trace_export,
}


def cmd_trace(args) -> int:
    return TRACE_COMMANDS[args.trace_command](args)


def cmd_faults_list(args) -> int:
    from .faults import SCENARIO_DESCRIPTIONS, build_plan, scenario_names

    rows = []
    for name in scenario_names():
        plan = build_plan(name, seed=args.seed)
        rows.append([name, str(len(plan)), SCENARIO_DESCRIPTIONS[name]])
    print(
        render_table(
            ["scenario", "specs", "description"],
            rows,
            title=f"fault scenarios (seed {args.seed})",
        )
    )
    return 0


def cmd_faults_run(args) -> int:
    """One resilient run under a fault scenario + degradation report."""
    from .core import ResilienceConfig
    from .faults import FaultInjector, build_plan
    from .pmt import PmtSampler, create
    from .telemetry import TraceCollector

    system = by_name(args.system)
    max_mhz = to_mhz(system.gpu_spec().max_clock_hz)
    policy = _policy(args.policy, args.freq, args.freq_map, max_mhz)
    plan = build_plan(args.scenario, seed=args.seed, n_ranks=args.ranks)
    injector = FaultInjector(plan)
    collector = TraceCollector(max_events=args.max_events)
    cluster = Cluster(system, args.ranks)
    sampler = None
    try:
        if system.pmt_backend in ("nvml", "rocm"):
            sensor = injector.wrap_sensor(
                create(system.pmt_backend, device_index=0), rank=0
            )
            sampler = PmtSampler(
                sensor, cluster.clocks[0], period_s=args.sample_period
            )
            sampler.start()
        result = run_instrumented(
            cluster,
            _workload(args.workload),
            args.particles,
            args.steps,
            policy=policy,
            telemetry=collector,
            resilience=ResilienceConfig(),
            faults=injector,
        )
        if sampler is not None:
            sampler.stop()
    finally:
        cluster.detach_management_library()

    print(plan.describe())
    print()
    status = f"{result.steps}/{args.steps}"
    if result.preempted:
        status += " (preempted)"
    degraded = (
        ", ".join(str(r) for r in result.degraded_ranks)
        if result.degraded_ranks
        else "none"
    )
    print(
        f"steps completed  : {status}\n"
        f"faults injected  : {result.faults_injected}\n"
        f"retries          : {result.retries}\n"
        f"degraded ranks   : {degraded}\n"
        f"time-to-solution : {format_time(result.elapsed_s)}\n"
        f"GPU energy       : {format_energy(result.gpu_energy_j)}"
    )
    if sampler is not None:
        print(
            f"power sampling   : {len(sampler.samples)} samples, "
            f"{sampler.failed_reads} failed reads, "
            f"{len(sampler.gaps)} gaps bridged, "
            f"{sampler.monotonicity_violations} readings clamped"
        )
    if injector.records:
        print()
        rows = [
            [
                f"{r.t_s:.6f}",
                "-" if r.rank is None else str(r.rank),
                r.kind.value,
                r.op,
                str(r.call_index),
            ]
            for r in injector.records
        ]
        print(
            render_table(
                ["t [s]", "rank", "kind", "op", "call #"],
                rows,
                title="injected faults",
            )
        )
    for rank_report in result.report.ranks:
        if rank_report.degraded:
            print(
                f"\nrank {rank_report.rank} DEGRADED: "
                f"{rank_report.degraded_reason}"
            )
    if args.report:
        result.report.save(args.report)
        print(f"\nper-rank energy report written to {args.report}")
    return 0


FAULTS_COMMANDS = {
    "list": cmd_faults_list,
    "run": cmd_faults_run,
}


def cmd_faults(args) -> int:
    return FAULTS_COMMANDS[args.faults_command](args)


def _campaign_spec_path(directory: str) -> str:
    import os.path

    from .campaign.store import SPEC_NAME

    return os.path.join(directory, SPEC_NAME)


def _campaign_execute(args, spec) -> int:
    """Shared run/resume path: drain the spec's grid into --dir."""
    from .campaign import ExecutorConfig, run_campaign
    from .telemetry import TraceCollector

    config = ExecutorConfig(
        workers=args.workers,
        timeout_s=args.timeout,
        max_retries=args.max_retries,
        max_units=args.max_units,
    )
    collector = TraceCollector(max_events=100_000)
    status, store = run_campaign(
        spec, args.dir, config=config, telemetry=collector
    )
    print(f"campaign {spec.name!r} in {args.dir}")
    print(status.describe())
    counts = store.counts()
    print(
        f"store: {counts['done']} done, {counts['failed']} failed "
        f"(trace: {store.trace_path})"
    )
    if status.failed:
        for label in status.failed_units:
            print(f"  failed: {label}")
        return 1
    return 0


def cmd_campaign_run(args) -> int:
    from .campaign import CampaignSpec

    return _campaign_execute(args, CampaignSpec.load(args.spec))


def cmd_campaign_resume(args) -> int:
    import os.path

    from .campaign import CampaignSpec

    path = _campaign_spec_path(args.dir)
    if not os.path.exists(path):
        raise SystemExit(
            f"{path} not found — has `campaign run` been invoked "
            f"with this --dir?"
        )
    return _campaign_execute(args, CampaignSpec.load(path))


def cmd_campaign_status(args) -> int:
    import json as _json
    import os.path

    from .campaign import CampaignSpec, RunStore, build_status_doc, status_rows

    store = RunStore(args.dir)
    spec = None
    spec_path = _campaign_spec_path(args.dir)
    if os.path.exists(spec_path):
        spec = CampaignSpec.load(spec_path)
    # The exact document the service's /campaigns/{id} endpoint embeds —
    # one serializer, two transports.
    doc = build_status_doc(store, spec)
    if args.json:
        print(_json.dumps(doc, indent=1, sort_keys=True))
        return 0
    title = f"campaign {store.campaign or '?'} in {args.dir}"
    print(render_table(["state", "units"], status_rows(doc), title=title))
    return 0


def cmd_campaign_report(args) -> int:
    import os.path

    from .campaign import (
        CampaignSpec,
        RunStore,
        build_summary,
        render_summary as render_campaign_summary,
        summary_json,
        write_summary,
    )

    store = RunStore(args.dir)
    keys = None
    spec_path = _campaign_spec_path(args.dir)
    if os.path.exists(spec_path):
        spec = CampaignSpec.load(spec_path)
        keys = [unit.key for unit in spec.expand()]
    summary = build_summary(store, keys=keys)
    if not summary["groups"]:
        raise SystemExit(f"no completed runs in {args.dir}")
    if args.out:
        write_summary(summary, args.out)
    if args.json:
        sys.stdout.write(summary_json(summary))
    else:
        print(render_campaign_summary(summary))
        if args.out:
            print(f"\nsummary JSON written to {args.out}")
    return 0


CAMPAIGN_COMMANDS = {
    "run": cmd_campaign_run,
    "resume": cmd_campaign_resume,
    "status": cmd_campaign_status,
    "report": cmd_campaign_report,
}


def cmd_campaign(args) -> int:
    return CAMPAIGN_COMMANDS[args.campaign_command](args)


def cmd_serve(args) -> int:
    import asyncio

    from .service import CampaignService, SchedulerConfig, ServiceConfig
    from .service.app import run_until_interrupted

    config = ServiceConfig(
        root=args.root,
        shared_cache=not args.no_shared_cache,
        scheduler=SchedulerConfig(
            max_running=args.max_running,
            per_tenant_running=args.per_tenant_running,
            queue_depth=args.queue_depth,
            retry_after_s=args.retry_after,
        ),
        stall_after_s=args.stall_after,
    )
    service = CampaignService(config)

    def ready(host: str, port: int) -> None:
        print(f"campaign service at http://{host}:{port} "
              f"(store root: {args.root})", flush=True)

    async def _serve() -> None:
        task = asyncio.ensure_future(
            run_until_interrupted(
                service, host=args.host, port=args.port, ready=ready
            )
        )
        if args.duration is not None:
            await asyncio.sleep(args.duration)
            task.cancel()
        await asyncio.gather(task, return_exceptions=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _monitor_run(args):
    """Shared monitor snapshot/report/serve path: one monitored run."""
    from .core import ResilienceConfig
    from .monitor import Monitor, MonitorConfig
    from .telemetry import TraceCollector

    system = by_name(args.system)
    max_mhz = to_mhz(system.gpu_spec().max_clock_hz)
    policy = _policy(args.policy, args.freq, args.freq_map, max_mhz)
    collector = TraceCollector(max_events=args.max_events)
    monitor = Monitor(
        MonitorConfig(period_s=args.period), telemetry=collector
    )
    faults = None
    resilience = None
    if args.scenario:
        from .faults import FaultInjector, build_plan

        faults = FaultInjector(
            build_plan(args.scenario, seed=args.seed, n_ranks=args.ranks)
        )
        resilience = ResilienceConfig()
    cluster = Cluster(system, args.ranks)
    try:
        result = run_instrumented(
            cluster,
            _workload(args.workload),
            args.particles,
            args.steps,
            policy=policy,
            telemetry=collector,
            resilience=resilience,
            faults=faults,
            monitor=monitor,
        )
    finally:
        cluster.detach_management_library()
    return monitor, collector, result, policy


def _monitor_meta(args, policy) -> Dict[str, object]:
    meta = {
        "workload": _workload(args.workload),
        "system": args.system,
        "ranks": args.ranks,
        "steps": args.steps,
        "policy": policy.name,
    }
    if args.scenario:
        meta["scenario"] = args.scenario
        meta["seed"] = args.seed
    return meta


def _monitor_title(args) -> str:
    return (
        f"{_workload(args.workload)} on {args.system} "
        f"({args.ranks} rank(s), {args.steps} steps)"
    )


def _print_alerts(alerts) -> None:
    if not alerts:
        print("no alerts fired")
        return
    rows = [
        [
            a.rule.name,
            a.rule.severity,
            str(a.rank),
            f"{a.t_fired_s:.4f}",
            "-" if a.t_resolved_s is None else f"{a.t_resolved_s:.4f}",
            f"{a.value:g}",
        ]
        for a in alerts
    ]
    print(
        render_table(
            ["rule", "severity", "rank", "fired [s]", "resolved [s]",
             "value"],
            rows,
            title="alerts",
        )
    )


def cmd_monitor_snapshot(args) -> int:
    from .monitor import write_json_snapshot

    monitor, collector, result, policy = _monitor_run(args)
    data = monitor.snapshot(
        collector=collector,
        report=result.report,
        title=_monitor_title(args),
        meta=_monitor_meta(args, policy),
    )
    if args.prom:
        monitor.write_prom(args.prom)
    if args.out:
        write_json_snapshot(args.out, data)
    if args.json:
        print(json.dumps(data, indent=1, sort_keys=True))
        return 0
    rows = [
        [
            f"{s['name']}[{s['rank']}]",
            str(s["n_samples"]),
            f"{s['last']:g}",
            f"{s['min']:g}",
            f"{s['max']:g}",
            f"{s['mean']:g}",
        ]
        for s in data["series"]
    ]
    print(
        render_table(
            ["series", "samples", "last", "min", "max", "mean"],
            rows,
            title=data["title"],
        )
    )
    print()
    _print_alerts(monitor.alerts)
    if data["gaps"]:
        print(f"\nsampler gaps: {len(data['gaps'])}")
    if args.prom:
        print(f"\nPrometheus metrics written to {args.prom}")
    if args.out:
        print(f"snapshot JSON written to {args.out}")
    return 0


def cmd_monitor_report(args) -> int:
    monitor, collector, result, policy = _monitor_run(args)
    monitor.write_report(
        args.out,
        collector=collector,
        report=result.report,
        title=_monitor_title(args),
        meta=_monitor_meta(args, policy),
    )
    if args.prom:
        monitor.write_prom(args.prom)
        print(f"Prometheus metrics written to {args.prom}")
    n_series = len(monitor.sampler.series_names())
    print(
        f"HTML report written to {args.out} "
        f"({n_series} series, {len(monitor.alerts)} alert(s), "
        f"{len(monitor.sampler.gaps)} sampler gap(s))"
    )
    return 0


def cmd_monitor_serve(args) -> int:
    import time

    monitor, collector, result, policy = _monitor_run(args)
    server = monitor.serve(host=args.host, port=args.port)
    print(f"serving Prometheus metrics at {server.url}")
    _print_alerts(monitor.alerts)
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600.0)
    except KeyboardInterrupt:
        pass
    finally:
        monitor.stop_serving()
    return 0


def cmd_monitor_watch(args) -> int:
    import time

    from .campaign import RunStore
    from .monitor import stalled_worker_alerts

    store = RunStore(args.dir)
    iteration = 0
    stalled = False
    while True:
        iteration += 1
        heartbeats = store.read_heartbeats()
        counts = store.counts()
        busy = sum(
            1 for r in heartbeats.values() if r.get("state") != "idle"
        )
        print(
            f"[{iteration}] {args.dir}: {counts['done']} done, "
            f"{counts['failed']} failed, {busy}/{len(heartbeats)} "
            f"lane(s) busy"
        )
        alerts = stalled_worker_alerts(
            heartbeats, time.time(), stall_after_s=args.stall_after
        )
        for alert in alerts:
            stalled = True
            print(
                f"  ALERT {alert.rule.name}: lane {alert.rank} silent "
                f"for {alert.value:.0f}s"
            )
        if args.iterations and iteration >= args.iterations:
            break
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            break
    return 1 if stalled else 0


MONITOR_COMMANDS = {
    "snapshot": cmd_monitor_snapshot,
    "report": cmd_monitor_report,
    "serve": cmd_monitor_serve,
    "watch": cmd_monitor_watch,
}


def cmd_monitor(args) -> int:
    return MONITOR_COMMANDS[args.monitor_command](args)


def _profile_trace_path(path: str) -> str:
    """Resolve a trace argument: a merged JSONL file, or a unit trace
    directory holding one (``traces/<key>/`` of a recorded campaign)."""
    import os.path

    from .telemetry import merged_trace_path

    if os.path.isdir(path):
        return str(merged_trace_path(path))
    return path


def cmd_profile_record(args) -> int:
    """Drain a campaign under one root trace context.

    Every unit derives a child context from the root, every rank
    process a grandchild; the per-process shards merge into one
    clock-aligned ``merged.jsonl`` per unit under ``<dir>/traces/``.
    """
    if args.smoke:
        return _profile_smoke(args)
    if not args.spec or not args.dir:
        raise SystemExit("--spec and --dir are required (or pass --smoke)")

    from .campaign import CampaignSpec, ExecutorConfig, run_campaign
    from .telemetry import TraceCollector, mint_context

    spec = CampaignSpec.load(args.spec)
    config = ExecutorConfig(
        workers=args.workers,
        timeout_s=args.timeout,
        max_retries=args.max_retries,
        max_units=args.max_units,
    )
    collector = TraceCollector(max_events=100_000)
    context = mint_context(seed=args.seed)
    collector.configure_tracing(context)
    status, store = run_campaign(
        spec, args.dir, config=config, telemetry=collector
    )
    print(f"campaign {spec.name!r} traced as {context.trace_id}")
    print(f"traceparent: {context.to_traceparent()}")
    print(status.describe())
    for key in sorted(store.unit_trace_keys()):
        state = "merged" if store.has_unit_trace(key) else "shards only"
        print(f"  {key}: {store.unit_trace_dir(key)} ({state})")
    print(f"campaign trace: {store.trace_path}")
    return 1 if status.failed else 0


def _profile_smoke(args) -> int:
    """Traced 2-rank x 2-lane campaign + correlation checks; exit 1 on
    any break in the request-to-rank-process timeline."""
    import tempfile

    from .campaign import CampaignSpec, ExecutorConfig, run_campaign
    from .telemetry import (
        TRACK_JOB,
        TraceCollector,
        critical_path,
        gating_consistent_with_waits,
        mint_context,
        read_trace_jsonl,
    )
    from .telemetry.profile import RANK_PROCESS_SPAN, merged_trace_path

    lanes = 2
    spec = CampaignSpec(
        name="profile-smoke",
        workloads=("SedovBlast",),
        particles=(1.0e4,),
        steps=2,
        ranks=2,
        seeds=(0, 1),
    )
    collector = TraceCollector(max_events=100_000)
    context = mint_context(seed="profile-smoke")
    collector.configure_tracing(context)
    checks: List[tuple] = []
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as tmp:
        status, store = run_campaign(
            spec, tmp, config=ExecutorConfig(workers=lanes),
            telemetry=collector,
        )
        checks.append(("campaign-clean", status.failed == 0))
        busy_lanes = {
            s.rank for s in collector.spans(track=TRACK_JOB)
            if s.args.get("status") == "done"
        }
        checks.append(("all-lanes-ran", busy_lanes == set(range(lanes))))
        for unit in spec.expand():
            key = unit.key
            merged = store.has_unit_trace(key)
            checks.append((f"merged-trace:{key}", merged))
            if not merged:
                continue
            events = read_trace_jsonl(
                str(merged_trace_path(str(store.unit_trace_dir(key))))
            )
            ids = {
                e.args["trace_id"]
                for e in events
                if getattr(e, "args", None) and "trace_id" in e.args
            }
            checks.append(
                (f"one-trace-id:{key}", ids == {context.trace_id})
            )
            rank_spans = [
                e for e in events
                if getattr(e, "name", None) == RANK_PROCESS_SPAN
            ]
            checks.append(
                (
                    f"rank-process-spans:{key}",
                    len(rank_spans) == spec.ranks
                    and all(
                        s.args.get("parent_span_id") for s in rank_spans
                    ),
                )
            )
            steps = critical_path(events)
            checks.append(
                (f"critical-path:{key}", len(steps) == spec.steps)
            )
            payload = store.load_result(key)
            waits = (
                payload.get("result", {})
                .get("report", {})
                .get("comm", {})
                or {}
            ).get("rank_wait_s", [])
            checks.append(
                (
                    f"gating-vs-waits:{key}",
                    gating_consistent_with_waits(steps, waits),
                )
            )
        failures = []
        for name, ok in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name}")
            if not ok:
                failures.append(name)
    if failures:
        print(f"tracing smoke FAILED: {', '.join(failures)}")
        return 1
    print(
        f"tracing smoke passed ({spec.ranks} ranks x {lanes} lanes, "
        f"trace {context.trace_id})"
    )
    return 0


def cmd_profile_critical_path(args) -> int:
    """Per-step gating rank of a merged trace."""
    from .telemetry import critical_path, read_trace_jsonl

    path = _profile_trace_path(args.trace)
    steps = critical_path(read_trace_jsonl(path))
    if not steps:
        raise SystemExit(f"no step-annotated kernel spans in {path}")
    if args.json:
        payload = {
            "schema": 1,
            "kind": "critical-path",
            "trace": path,
            "steps": [
                {
                    "step": s.step,
                    "gating_rank": s.gating_rank,
                    "arrival_s": s.arrival_s,
                    "busy_s": s.busy_s,
                    "slack_s": s.slack_s,
                }
                for s in steps
            ],
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    rows = [
        [
            str(s.step),
            str(s.gating_rank),
            f"{max(s.arrival_s.values()):.6g}",
            f"{max(s.slack_s.values()):.3g}",
        ]
        for s in steps
    ]
    print(
        render_table(
            ["step", "gating rank", "arrival [s]", "max slack [s]"],
            rows,
            title=f"critical path of {path}",
        )
    )
    counts: Dict[int, int] = {}
    for s in steps:
        counts[s.gating_rank] = counts.get(s.gating_rank, 0) + 1
    dominant = min(counts, key=lambda r: (-counts[r], r))
    print(f"\nrank {dominant} gates {counts[dominant]} of {len(steps)} steps")
    return 0


def cmd_profile_flame(args) -> int:
    """Collapsed-stack flamegraph export of a merged trace."""
    from .telemetry import (
        atomic_write_lines,
        collapsed_stacks,
        read_trace_jsonl,
    )

    path = _profile_trace_path(args.trace)
    lines = collapsed_stacks(read_trace_jsonl(path))
    if not lines:
        raise SystemExit(f"no kernel spans in {path}")
    if args.out:
        atomic_write_lines(args.out, lines)
        print(
            f"{len(lines)} collapsed stacks written to {args.out} "
            "(feed to flamegraph.pl or speedscope)"
        )
        return 0
    for line in lines:
        print(line)
    return 0


def cmd_profile_diff(args) -> int:
    """Per-function regression diff of two merged traces (B vs A)."""
    from .telemetry import diff_traces, read_trace_jsonl

    a_events = read_trace_jsonl(_profile_trace_path(args.baseline))
    b_events = read_trace_jsonl(_profile_trace_path(args.candidate))
    result = diff_traces(a_events, b_events, threshold=args.threshold)
    if args.json:
        print(
            json.dumps(
                {"schema": 1, "kind": "trace-diff", **result},
                indent=1,
                sort_keys=True,
            )
        )
    else:
        rows = []
        for row in result["functions"]:
            delta = row["delta_frac"]
            rows.append(
                [
                    row["function"],
                    f"{row['time_a_s']:.6g}",
                    f"{row['time_b_s']:.6g}",
                    "new" if delta == float("inf") else f"{100 * delta:+.1f}%",
                    "REGRESSED" if row["regressed"] else "",
                ]
            )
        print(
            render_table(
                ["function", "A [s]", "B [s]", "delta", ""],
                rows,
                title="per-function trace diff (B vs A)",
            )
        )
        total = result["total_delta_frac"]
        total_txt = (
            "new" if total == float("inf") else f"{100 * total:+.2f}%"
        )
        print(
            f"\ntotal: {result['total_a_s']:.6g} s -> "
            f"{result['total_b_s']:.6g} s ({total_txt}, "
            f"threshold {result['threshold']:.0%})"
        )
    if result["regressions"]:
        print(f"REGRESSIONS: {', '.join(result['regressions'])}")
        return 1
    return 0


PROFILE_COMMANDS = {
    "record": cmd_profile_record,
    "critical-path": cmd_profile_critical_path,
    "flame": cmd_profile_flame,
    "diff": cmd_profile_diff,
}


def cmd_profile(args) -> int:
    return PROFILE_COMMANDS[args.profile_command](args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "GPU frequency scaling for astrophysics simulations "
            "(SC 2024 reproduction)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_version()}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    systems_p = sub.add_parser(
        "systems",
        help="list the known systems (Table-I presets + catalog specs)",
    )
    systems_p.add_argument("--json", action="store_true",
                           help="print a stable machine-readable listing "
                                "(name, vendor, clocks, source file, "
                                "schema version)")
    systems_p.add_argument("--validate", action="store_true",
                           help="validate every shipped catalog spec file "
                                "and exit")

    cal_p = sub.add_parser(
        "calibrate",
        help="fit model parameters from a measured trace (repro.catalog)",
    )
    cal_p.add_argument("--smoke", action="store_true",
                       help="sweep a simulated device and check the fit "
                            "recovers its spec (CI gate)")
    cal_p.add_argument("--system", default="miniHPC",
                       help="system to smoke-test (with --smoke)")
    cal_sub = cal_p.add_subparsers(dest="calibrate_command", required=False)

    csweep_p = cal_sub.add_parser(
        "sweep",
        help="drive a simulated device through the probe schedule and "
             "record trace + PMT dump + schedule sidecar",
    )
    csweep_p.add_argument("--system", default="miniHPC",
                          help="system to sweep (see `systems`)")
    csweep_p.add_argument("--out-dir", required=True,
                          help="directory for the sweep artifacts")
    csweep_p.add_argument("--clocks", default=None,
                          help="comma-separated probe clocks [MHz] "
                               "(default: 6 bins spanning the clock range)")
    csweep_p.add_argument("--period", type=float, default=0.01,
                          help="power sampling period [simulated s]")
    csweep_p.add_argument("--window", type=float, default=0.2,
                          help="probe window length [simulated s]; must be "
                               "a multiple of --period")

    cfit_p = cal_sub.add_parser(
        "fit",
        help="fit P_idle/P_dyn/alpha and roofline fractions from sweep "
             "artifacts; optionally emit a catalog spec file",
    )
    cfit_p.add_argument("--trace", default=None,
                        help="telemetry JSONL trace (self-contained)")
    cfit_p.add_argument("--dump", default=None,
                        help="PMT dump file (pairs with --schedule)")
    cfit_p.add_argument("--schedule", default=None,
                        help="schedule sidecar JSON from the sweep")
    cfit_p.add_argument("--json", action="store_true",
                        help="print the fit as a stable JSON document")
    cfit_p.add_argument("--out", default=None,
                        help="write a catalog spec file here "
                             "(.yaml or .json; requires --base-system)")
    cfit_p.add_argument("--base-system", default=None,
                        help="system whose CPU/node/measurement sections "
                             "the emitted spec inherits")
    cfit_p.add_argument("--name", default=None,
                        help="system name of the emitted spec")

    def common(p):
        p.add_argument("--system", default="miniHPC",
                       help="system preset name (see `systems`)")
        p.add_argument("--workload", default="turbulence",
                       help="turbulence | evrard | sedov")
        p.add_argument("--particles", type=float, default=float(450**3),
                       help="particles per rank")
        p.add_argument("--steps", type=int, default=10,
                       help="time-steps to run")
        p.add_argument("--ranks", type=int, default=1,
                       help="MPI ranks (= GPUs/GCDs)")

    run_p = sub.add_parser("run", help="run one instrumented simulation")
    common(run_p)
    run_p.add_argument("--policy", default="baseline",
                       help="baseline | static | dvfs | mandyn")
    run_p.add_argument("--freq", type=float, default=None,
                       help="static clock / ManDyn default clock [MHz]")
    run_p.add_argument("--freq-map", default=None,
                       help="JSON {function: MHz} for ManDyn")
    run_p.add_argument("--report", default=None,
                       help="write the gathered energy report JSON here")

    tune_p = sub.add_parser("tune", help="find per-function sweet spots")
    common(tune_p)
    tune_p.add_argument("--min-freq", type=int, default=1005,
                        help="lower end of the clock window [MHz]")
    tune_p.add_argument("--stride", type=int, default=3,
                        help="evaluate every Nth supported clock bin")
    tune_p.add_argument("--iterations", type=int, default=3,
                        help="benchmark repetitions per configuration")
    tune_p.add_argument("--json", action="store_true",
                        help="print a stable machine-readable JSON document")

    cmp_p = sub.add_parser("compare",
                           help="baseline vs static vs DVFS vs ManDyn")
    common(cmp_p)
    cmp_p.add_argument("--freq", type=float, default=1005.0,
                       help="static/ManDyn-default clock [MHz]")
    cmp_p.add_argument("--freq-map", default=None,
                       help="JSON {function: MHz} for ManDyn")
    cmp_p.add_argument("--json", action="store_true",
                       help="print a stable machine-readable JSON document")

    report_p = sub.add_parser(
        "report", help="analyze a saved energy-report JSON"
    )
    report_p.add_argument("path", help="report file from `run --report`")

    diff_p = sub.add_parser(
        "diff", help="compare two saved energy reports (A/B)"
    )
    diff_p.add_argument("baseline", help="baseline report JSON")
    diff_p.add_argument("candidate", help="candidate report JSON")

    sacct_p = sub.add_parser("sacct",
                             help="run under Slurm accounting and query it")
    common(sacct_p)
    sacct_p.add_argument("--job-name", default="sphexa",
                         help="Slurm job name")

    trace_p = sub.add_parser(
        "trace",
        help="record/inspect structured run traces (repro.telemetry)",
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    def trace_common(p):
        common(p)
        p.add_argument("--policy", default="baseline",
                       help="baseline | static | dvfs | mandyn")
        p.add_argument("--freq", type=float, default=None,
                       help="static clock / ManDyn default clock [MHz]")
        p.add_argument("--freq-map", default=None,
                       help="JSON {function: MHz} for ManDyn")
        p.add_argument("--max-events", type=int, default=100_000,
                       help="trace ring-buffer capacity")

    rec_p = trace_sub.add_parser(
        "record", help="run once and export the trace"
    )
    trace_common(rec_p)
    rec_p.add_argument("--export", default=None,
                       help="write Chrome trace_event JSON here (Perfetto)")
    rec_p.add_argument("--jsonl", default=None,
                       help="write the compact JSONL trace here")
    rec_p.add_argument("--report", default=None,
                       help="write the gathered energy report JSON here")

    summ_p = trace_sub.add_parser(
        "summary",
        help="run once and print metrics + trace-vs-report reconciliation",
    )
    trace_common(summ_p)
    summ_p.add_argument("--json", action="store_true",
                        help="print a stable machine-readable JSON document")

    exp_p = trace_sub.add_parser(
        "export", help="re-render a JSONL trace as Chrome trace_event JSON"
    )
    exp_p.add_argument("input", help="JSONL trace from `trace record --jsonl`")
    exp_p.add_argument("output", help="Chrome trace_event JSON destination")

    faults_p = sub.add_parser(
        "faults",
        help="fault-injection scenarios and resilient runs (repro.faults)",
    )
    faults_sub = faults_p.add_subparsers(dest="faults_command", required=True)

    list_p = faults_sub.add_parser(
        "list", help="list the named fault scenarios"
    )
    list_p.add_argument("--seed", type=int, default=0,
                        help="plan seed used for the listing")

    frun_p = faults_sub.add_parser(
        "run",
        help="run one resilient simulation under a fault scenario "
             "and print the degradation report",
    )
    common(frun_p)
    frun_p.add_argument("--scenario", default="chaos",
                        help="fault scenario name (see `faults list`)")
    frun_p.add_argument("--seed", type=int, default=20240,
                        help="fault plan seed (same seed = same faults)")
    frun_p.add_argument("--policy", default="mandyn",
                        help="baseline | static | dvfs | mandyn")
    frun_p.add_argument("--freq", type=float, default=None,
                        help="static clock / ManDyn default clock [MHz]")
    frun_p.add_argument("--freq-map", default=None,
                        help="JSON {function: MHz} for ManDyn")
    frun_p.add_argument("--max-events", type=int, default=100_000,
                        help="trace ring-buffer capacity")
    frun_p.add_argument("--sample-period", type=float, default=0.5,
                        help="power sampling period [simulated s]")
    frun_p.add_argument("--report", default=None,
                        help="write the gathered energy report JSON here")

    camp_p = sub.add_parser(
        "campaign",
        help="resumable experiment campaigns (repro.campaign)",
    )
    camp_sub = camp_p.add_subparsers(dest="campaign_command", required=True)

    def campaign_exec(p):
        p.add_argument("--dir", required=True,
                       help="campaign directory (run store)")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (1 = serial)")
        p.add_argument("--timeout", type=float, default=None,
                       help="per-unit wall-clock timeout [s]")
        p.add_argument("--max-retries", type=int, default=2,
                       help="retries per unit after transient failures")
        p.add_argument("--max-units", type=int, default=None,
                       help="execute at most N missing units (smoke tests)")

    crun_p = camp_sub.add_parser(
        "run", help="execute every missing unit of a campaign spec"
    )
    crun_p.add_argument("--spec", required=True,
                        help="campaign spec JSON (see docs/campaigns.md)")
    campaign_exec(crun_p)

    cres_p = camp_sub.add_parser(
        "resume",
        help="re-drain a campaign directory using its saved spec "
             "(identical to re-running `campaign run`)",
    )
    campaign_exec(cres_p)

    cstat_p = camp_sub.add_parser(
        "status", help="manifest roll-up: done/missing/failed units"
    )
    cstat_p.add_argument("--dir", required=True,
                         help="campaign directory (run store)")
    cstat_p.add_argument("--json", action="store_true",
                         help="print the campaign-status JSON document "
                              "(same serializer as the service API)")

    crep_p = camp_sub.add_parser(
        "report", help="aggregate stored runs into EDP/Pareto summaries"
    )
    crep_p.add_argument("--dir", required=True,
                        help="campaign directory (run store)")
    crep_p.add_argument("--json", action="store_true",
                        help="print the stable summary JSON instead of tables")
    crep_p.add_argument("--out", default=None,
                        help="also write the summary JSON to this path")

    serve_p = sub.add_parser(
        "serve",
        help="run the campaign-as-a-service HTTP control plane "
             "(repro.service)",
    )
    serve_p.add_argument("--root", required=True,
                         help="multi-tenant store root directory")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address")
    serve_p.add_argument("--port", type=int, default=9465,
                         help="bind port (0 = ephemeral)")
    serve_p.add_argument("--max-running", type=int, default=2,
                         help="campaigns executing concurrently")
    serve_p.add_argument("--per-tenant-running", type=int, default=1,
                         help="concurrent campaigns per tenant")
    serve_p.add_argument("--queue-depth", type=int, default=8,
                         help="queued campaigns per tenant before 429")
    serve_p.add_argument("--retry-after", type=float, default=1.0,
                         help="Retry-After hint on 429 responses [s]")
    serve_p.add_argument("--stall-after", type=float, default=120.0,
                         help="heartbeat age that raises a stall alert [s]")
    serve_p.add_argument("--no-shared-cache", action="store_true",
                         help="disable the cross-tenant result cache")
    serve_p.add_argument("--duration", type=float, default=None,
                         help="serve this many wall seconds, then exit "
                              "(default: until Ctrl-C)")

    mon_p = sub.add_parser(
        "monitor",
        help="live monitoring: sampled series, alerts, Prometheus "
             "exposition, HTML reports (repro.monitor)",
    )
    mon_sub = mon_p.add_subparsers(dest="monitor_command", required=True)

    def monitor_common(p):
        common(p)
        p.add_argument("--policy", default="baseline",
                       help="baseline | static | dvfs | mandyn")
        p.add_argument("--freq", type=float, default=None,
                       help="static clock / ManDyn default clock [MHz]")
        p.add_argument("--freq-map", default=None,
                       help="JSON {function: MHz} for ManDyn")
        p.add_argument("--max-events", type=int, default=100_000,
                       help="trace ring-buffer capacity")
        p.add_argument("--period", type=float, default=0.05,
                       help="device sampling period [simulated s]")
        p.add_argument("--scenario", default=None,
                       help="run under this fault scenario "
                            "(see `faults list`)")
        p.add_argument("--seed", type=int, default=20240,
                       help="fault plan seed (with --scenario)")
        p.add_argument("--prom", default=None,
                       help="write Prometheus text metrics to this file")

    msnap_p = mon_sub.add_parser(
        "snapshot",
        help="run once and print the sampled series + alerts",
    )
    monitor_common(msnap_p)
    msnap_p.add_argument("--json", action="store_true",
                         help="print the snapshot JSON document")
    msnap_p.add_argument("--out", default=None,
                         help="also write the snapshot JSON to this path")

    mrep_p = mon_sub.add_parser(
        "report",
        help="run once and write the self-contained HTML run report",
    )
    monitor_common(mrep_p)
    mrep_p.add_argument("--out", default="report.html",
                        help="HTML report destination")

    mserve_p = mon_sub.add_parser(
        "serve",
        help="run once, then serve /metrics over HTTP",
    )
    monitor_common(mserve_p)
    mserve_p.add_argument("--host", default="127.0.0.1",
                          help="bind address of the metrics endpoint")
    mserve_p.add_argument("--port", type=int, default=9464,
                          help="bind port (0 = ephemeral)")
    mserve_p.add_argument("--duration", type=float, default=None,
                          help="serve this many wall seconds, then exit "
                               "(default: until Ctrl-C)")

    mwatch_p = mon_sub.add_parser(
        "watch",
        help="watch a campaign directory: progress + worker-stall alerts",
    )
    mwatch_p.add_argument("--dir", required=True,
                          help="campaign directory (run store)")
    mwatch_p.add_argument("--interval", type=float, default=5.0,
                          help="refresh interval [wall s]")
    mwatch_p.add_argument("--iterations", type=int, default=0,
                          help="stop after N refreshes (0 = until Ctrl-C)")
    mwatch_p.add_argument("--stall-after", type=float, default=120.0,
                          help="heartbeat age that counts as a stall [s]")

    prof_p = sub.add_parser(
        "profile",
        help="distributed tracing & profiling: merged per-unit traces, "
             "critical path, flamegraphs, regression diffs "
             "(repro.telemetry.profile)",
    )
    prof_sub = prof_p.add_subparsers(dest="profile_command", required=True)

    prec_p = prof_sub.add_parser(
        "record",
        help="drain a campaign under one root trace context; one merged "
             "clock-aligned trace per unit under <dir>/traces/",
    )
    prec_p.add_argument("--spec", default=None,
                        help="campaign spec JSON (see docs/campaigns.md)")
    prec_p.add_argument("--dir", default=None,
                        help="campaign directory (run store)")
    prec_p.add_argument("--workers", type=int, default=1,
                        help="parallel worker processes (1 = serial)")
    prec_p.add_argument("--timeout", type=float, default=None,
                        help="per-unit wall-clock timeout [s]")
    prec_p.add_argument("--max-retries", type=int, default=2,
                        help="retries per unit after transient failures")
    prec_p.add_argument("--max-units", type=int, default=None,
                        help="execute at most N missing units (smoke tests)")
    prec_p.add_argument("--seed", default=None,
                        help="trace-context seed (same seed = same trace "
                             "id; default: random)")
    prec_p.add_argument("--smoke", action="store_true",
                        help="self-contained 2-rank x 2-lane traced "
                             "campaign + correlation checks (CI gate)")

    pcp_p = prof_sub.add_parser(
        "critical-path",
        help="per-step gating rank of a merged trace",
    )
    pcp_p.add_argument("--trace", required=True,
                       help="merged trace JSONL (or a unit trace directory)")
    pcp_p.add_argument("--json", action="store_true",
                       help="print a stable machine-readable JSON document")

    pfl_p = prof_sub.add_parser(
        "flame",
        help="collapsed-stack flamegraph export of a merged trace",
    )
    pfl_p.add_argument("--trace", required=True,
                       help="merged trace JSONL (or a unit trace directory)")
    pfl_p.add_argument("--out", default=None,
                       help="write collapsed stacks here (default: stdout)")

    pdf_p = prof_sub.add_parser(
        "diff",
        help="per-function regression diff of two merged traces",
    )
    pdf_p.add_argument("baseline", help="baseline merged trace (A)")
    pdf_p.add_argument("candidate", help="candidate merged trace (B)")
    pdf_p.add_argument("--threshold", type=float, default=0.02,
                       help="relative slowdown that counts as a regression")
    pdf_p.add_argument("--json", action="store_true",
                       help="print a stable machine-readable JSON document")

    return parser


COMMANDS = {
    "systems": cmd_systems,
    "calibrate": cmd_calibrate,
    "report": cmd_report,
    "diff": cmd_diff,
    "run": cmd_run,
    "tune": cmd_tune,
    "compare": cmd_compare,
    "sacct": cmd_sacct,
    "trace": cmd_trace,
    "faults": cmd_faults,
    "campaign": cmd_campaign,
    "serve": cmd_serve,
    "monitor": cmd_monitor,
    "profile": cmd_profile,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
