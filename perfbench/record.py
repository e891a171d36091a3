"""Record ``reference.json`` (output digests) and ``meta.json``.

Run from the repository root on the version whose outputs are the
reference::

    python3 perfbench/record.py

Campaign references are computed by executing every distinct unit
configuration once, serially, through ``repro.campaign.execute_unit``
(seed labels do not change model-path results, so these cover every
workload seed). The numeric reference runs the Sedov problem once per
initial-condition variant. ``meta.json`` records the host, the library
versions, each workload's loop type and why it was chosen (from
``BENCHMARK.json``, or ``UNLISTED`` for a workload it leaves out), and
which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END_UNITS, WORKLOAD_METRIC_NAMES, _versions  # noqa: E402

#: Workloads ``run.py`` runs that ``BENCHMARK.json`` leaves out: why the
#: workload exists, and why it is left out.
UNLISTED = {
    "service-mixed": {
        "why": "closed loop, 2 clients as 2 tenants: the only path through HTTP, "
        "scheduler, WAL, tenancy cache, checkpoints and telemetry; ~30% re-posts "
        "read the caches",
        "unlisted": "its outputs are wrong: with the default max_running=2 two "
        "tenants' campaigns run in threads of one process and share the "
        "process-global simulated NVML driver (attach_devices/detach_devices), "
        "so units fail with NVMLError 'Uninitialized' or set clocks on the other "
        "job's devices and return wrong energy/time. BENCHMARK.json needs correct "
        "outputs, and narrowing the workload (one tenant, max_running=1, baseline "
        "only) would hide the defect. Its service, WAL, tenancy, checkpoint and "
        "telemetry metrics are printed by --workload service-mixed; list it again "
        "once the defect is fixed",
    },
}

#: Per-layer metric -> (end-to-end metric it should move, workload).
SHOULD_MOVE = {
    "service.request_s": ("submit_to_report_p50_ms", "service-mixed"),
    "service.requests": ("submit_to_report_p50_ms", "service-mixed"),
    "service.queue_wait_s": ("submit_to_report_p50_ms", "service-mixed"),
    "service.wal.append_s": ("submit_to_report_p50_ms", "service-mixed"),
    "service.wal.appends": ("submit_to_report_p50_ms", "service-mixed"),
    "service.tenancy_s": ("campaigns_per_s", "service-mixed"),
    "service.shared_hit_ratio": ("campaigns_per_s", "service-mixed"),
    "campaign.executor_self_s": ("unit_latency_p95_ms", "campaign-sweep"),
    "campaign.executor_wait_s": ("unit_latency_p95_ms", "campaign-sweep"),
    "campaign.retries": ("unit_latency_p95_ms", "campaign-sweep"),
    "campaign.units_failed": ("unit_latency_p95_ms", "campaign-sweep"),
    "campaign.worker_self_s": ("units_per_s", "campaign-sweep"),
    "campaign.units_executed": ("units_per_s", "campaign-sweep"),
    "campaign.store_s": (
        "units_per_s", "campaign-sweep; submit_to_report_p50_ms on service-mixed"
    ),
    "durable.fsyncs_per_unit": (
        "units_per_s", "campaign-sweep; submit_to_report_p50_ms on service-mixed"
    ),
    "durable.replaces_per_unit": (
        "units_per_s", "campaign-sweep; submit_to_report_p50_ms on service-mixed"
    ),
    "checkpoint.write_s": ("submit_to_report_p50_ms", "service-mixed"),
    "checkpoint.writes": ("submit_to_report_p50_ms", "service-mixed"),
    "checkpoint.bytes": ("submit_to_report_p50_ms", "service-mixed"),
    "sph.loop_self_s": (
        "units_per_s", "campaign-sweep; particle_steps_per_s on numeric-sedov"
    ),
    "sph.steps": ("units_per_s", "campaign-sweep; particle_steps_per_s on numeric-sedov"),
    "hardware.execute_s": ("units_per_s", "campaign-sweep"),
    "hardware.launches": ("units_per_s", "campaign-sweep"),
    "hardware.clock_sets": ("units_per_s", "campaign-sweep"),
    "core.controller_s": ("units_per_s", "campaign-sweep"),
    "core.profiler_s": ("units_per_s", "campaign-sweep"),
    "core.hook_calls": ("units_per_s", "campaign-sweep"),
    "mpi.collective_s": ("particle_steps_per_s", "numeric-sedov"),
    "mpi.collectives": ("particle_steps_per_s", "numeric-sedov"),
    "telemetry.shard_s": ("submit_to_report_p50_ms", "service-mixed"),
    "telemetry.events": ("submit_to_report_p50_ms", "service-mixed"),
}
for _kernel in ("find_neighbors", "iad_velocity_div_curl", "momentum_energy",
                "normalization_gradh", "local_timesteps", "xmass"):
    SHOULD_MOVE[f"sph.numeric.{_kernel}_s"] = ("particle_steps_per_s", "numeric-sedov")
for _count in ("neighbor_rebuilds", "neighbor_reuses", "pairs"):
    SHOULD_MOVE[f"sph.numeric.{_count}"] = ("particle_steps_per_s", "numeric-sedov")


def _unit_configs(doc):
    from repro.campaign import CampaignSpec

    return [u.config() for u in CampaignSpec.from_dict(doc).expand()]


def _campaign_reference(doc, checkpoint_every: int):
    from repro.campaign import execute_unit

    out = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for config in _unit_configs(doc):
            path = os.path.join(tmp, "unit.ckpt") if checkpoint_every else None
            result = execute_unit(
                config, checkpoint_path=path, checkpoint_every=checkpoint_every
            )
            if path and os.path.exists(path):
                os.unlink(path)
            artifact = {"unit": config, "result": result}
            out[checks.unit_signature(config)] = checks.unit_stats_digest(artifact)
    return dict(sorted(out.items()))


def main() -> int:
    sweep = workloads.sweep_spec(0, 0, labels=1)
    service_doc = workloads.service_spec(0, 0, 0)
    service_doc["policies"] = [
        {"kind": "baseline"},
        {"kind": "static", "freq_mhz": 1305.0},
        {"kind": "static", "freq_mhz": 1005.0},
        {"kind": "mandyn"},
    ]
    service_doc["seeds"] = [0]
    numeric = {}
    for ic in range(workloads.IC_VARIANTS):
        run = workloads.build_sedov(workloads.sedov_inputs(ic))
        try:
            run.sim.run(workloads.SEDOV_STEPS)
        finally:
            run.cluster.detach_management_library()
        numeric[str(ic)] = checks.particle_digest(run.particles)
    reference = {
        "campaign-sweep": _campaign_reference(sweep, 0),
        "service-mixed": _campaign_reference(service_doc, service_doc["checkpoint_every"]),
        "numeric-sedov": numeric,
    }
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")

    listed = {
        w["name"]: {"why": w["why"]}
        for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]
    }
    meta = {
        "host": {"cores": os.cpu_count(), **_versions()},
        "seeds": (
            "any integer; campaign seed labels and service specs derive from it, "
            f"numeric-sedov uses Sedov IC seed = seed % {workloads.IC_VARIANTS}"
        ),
        "workloads": {
            name: {
                "loop": workloads.WORKLOADS[name].loop,
                "lanes": workloads.WORKLOADS[name].lanes,
                **about,
            }
            for name, about in {**listed, **UNLISTED}.items()
        },
        "end_to_end": {
            name: {
                "unit": unit,
                "per_workload": (
                    {w: WORKLOAD_METRIC_NAMES[w][i - 2] for w in WORKLOAD_METRIC_NAMES}
                    if i >= 2 else "same name on every workload"
                ),
            }
            for i, (name, unit) in enumerate(END_TO_END_UNITS.items())
        },
        "computed_per_layer": {
            "sph.numeric.pairs": "computed, not counted: sum over neighbor "
            "searches of mean_neighbor_counts x local_particle_counts",
            "service.queue_wait_s": "CampaignService.submit return to "
            "CampaignJob.execute start, which publishes campaign-start",
        },
        "per_layer_should_move": {
            metric: {"end_to_end": e2e, "workload": where}
            for metric, (e2e, where) in SHOULD_MOVE.items()
        },
    }
    with open(HERE / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
