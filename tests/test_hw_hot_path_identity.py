"""Golden digests pinning the simulated-hardware model bit for bit.

The per-launch path of :mod:`repro.hardware` is tuned for speed, but
every float operation must still happen in the same order on the same
inputs. These digests were recorded before that tuning; a mismatch
means some result moved, however slightly.

Each digest is the SHA-256 of a payload's sorted-key JSON, whose float
rendering is the exact ``repr``.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.campaign.worker import execute_unit
from repro.faults import JobPreempted
from repro.hardware import (
    KernelLaunch,
    SimulatedGpu,
    ThermalSpec,
    VirtualClock,
    a100_pcie_40gb,
)
from repro.units import mhz

POLICIES = {
    "baseline": {"kind": "baseline"},
    "static1005": {"kind": "static", "freq_mhz": 1005.0},
    "dvfs": {"kind": "dvfs"},
    "mandyn": {"kind": "mandyn"},
}

#: system -> ranks; LUMI-G's two ranks share one MI250X card (2 GCDs).
SYSTEMS = {"miniHPC": 1, "LUMI-G": 2}

#: workload -> particles. In model mode the two workloads share one
#: cost table, so distinct sizes keep their digests apart (2e6 is deep
#: in the under-utilization regime, 3e7 close to a full device).
WORKLOADS = {"SedovBlast": 2.0e6, "SubsonicTurbulence": 3.0e7}

GOLDEN_UNITS = {
    "LUMI-G/SedovBlast/baseline": "a5d999894332648b6bd709c2dec2cc9b7093c536b47411ca758aeecd52649e44",
    "LUMI-G/SedovBlast/dvfs": "a4d438216b04a48d82bfac97c56547ced6c90230ea9d31f85e33fe353b40d8c0",
    "LUMI-G/SedovBlast/mandyn": "9ff9529af34c3b1366a9e9fa5b0b5c9cffac2d0c1f7cd7d970b6a38cc7cf7aed",
    "LUMI-G/SedovBlast/static1005": "7d2b366d4d8fef25bb7a35bb7e3ad6b78e36606352b12075d5e7e528c303755d",
    "LUMI-G/SubsonicTurbulence/baseline": "437172146624d39801ef82a4635c5f536265caf120e4ea38b719914b23cd9fdf",
    "LUMI-G/SubsonicTurbulence/dvfs": "1f1275c93f96a5015c4ea5cfa442c9c9626be7fd51c69db1060c5a31906f5bde",
    "LUMI-G/SubsonicTurbulence/mandyn": "971b0a5f6c8a8a6db4b593972c32fb3fd9828ad7ca767bd43ba59cca5d53b7bc",
    "LUMI-G/SubsonicTurbulence/static1005": "1cf02c43112671b1d962cd978b4e3671282fd6cd2800255c15290d8ad38e357b",
    "miniHPC/SedovBlast/baseline": "c49412386107bac7ff77d966ac1b1fca258d8de5f060ee7bcb6a2904a2e2562e",
    "miniHPC/SedovBlast/dvfs": "2a6064988af5719ee4031ed093059032536b6f5348dc84db245a86c6549460ab",
    "miniHPC/SedovBlast/mandyn": "c905d1b563b66b06372773ea980ba8678951a0de2c3c743d7e267fbe0d09a47e",
    "miniHPC/SedovBlast/static1005": "84cd37896482a4aaf85a74b8f77ab09e82decb3d51e80d6b6a9e79389e7f3da4",
    "miniHPC/SubsonicTurbulence/baseline": "ef3965cad1144f3c9b9be6921b90e2dc217a02322aa219cf7fccb74a243704ce",
    "miniHPC/SubsonicTurbulence/dvfs": "322f413732e6cfcb1a5cff2743f2920f04291ff335b41e1a231d14561ed9817e",
    "miniHPC/SubsonicTurbulence/mandyn": "8eacc5d9c343144d0835238eeec6ee0bcd1f2a947239c219f5030453c82b74f9",
    "miniHPC/SubsonicTurbulence/static1005": "747fea09ccf3e28765dba9c7b3ac19352b2e519eec6e42d1ddddc8971a73784d",
}

GOLDEN_THERMAL = (
    "4f0b26f58f29ed1b5f7463000557e180626504942c71c1e50892e40c9ac88171"
)

GOLDEN_RESUMED = (
    "d4e96fa86cddc3711248ebc80727397688e6a79bbb0d2273a4cf8c5047b793d9"
)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _config(system, workload, policy, **extra):
    cfg = {
        "campaign": "hot-path-golden",
        "system": system,
        "workload": workload,
        "particles": WORKLOADS[workload],
        "steps": 4,
        "ranks": SYSTEMS[system],
        "seed": 0,
        "policy": dict(POLICIES[policy]),
    }
    cfg.update(extra)
    return cfg


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_unit_payload_digest(system, workload, policy):
    payload = execute_unit(_config(system, workload, policy))
    key = f"{system}/{workload}/{policy}"
    assert _digest(payload) == GOLDEN_UNITS[key]


def _hot_gpu_trace():
    """A hot card driven through pinned, governed and idle phases.

    Constrained cooling (as in ``test_hw_thermal``) pushes the die past
    the throttle limit, so pinned kernels run in ``THERMAL_SLICE_S``
    slices with the thermal cap re-evaluated between them.
    """
    spec = dataclasses.replace(
        a100_pcie_40gb(),
        thermal=ThermalSpec(
            ambient_c=35.0,
            resistance_c_per_w=0.24,
            tau_s=5.0,
            throttle_temp_c=88.0,
        ),
    )
    gpu = SimulatedGpu(spec, VirtualClock())
    gpu.start_frequency_trace()
    heavy = KernelLaunch("Heavy", flops=2e13, bytes_moved=1e9, power_intensity=1.0)
    light = KernelLaunch(
        "Light", flops=4e9, bytes_moved=3e9, power_intensity=0.4,
        launch_overhead=1.5e-4,
    )
    samples = []
    for i in range(24):
        samples.append(gpu.execute(heavy))
        samples.append(gpu.execute(light))
        if i % 6 == 5:
            gpu.clock.advance(0.7)
        samples.append((gpu.temperature_c, gpu.current_clock_hz))
    gpu.set_application_clocks(gpu.memory_clock_hz, mhz(1005.0))
    for _ in range(6):
        samples.append(gpu.execute(heavy))
    gpu.reset_application_clocks()
    for _ in range(6):
        samples.append(gpu.execute(heavy))
        samples.append(gpu.execute(light))
        gpu.clock.advance(0.3)
    samples.append(gpu.utilization(window_s=5.0))
    records = {
        name: dataclasses.asdict(rec) for name, rec in gpu.kernel_records.items()
    }
    return {
        "samples": samples,
        "energy_j": gpu.energy_j,
        "busy_seconds": gpu.busy_seconds,
        "temp_c": gpu.temperature_c,
        "now": gpu.clock.now,
        "records": records,
        "trace": gpu.stop_frequency_trace(),
    }


def test_hot_thermal_gpu_sequence_digest():
    assert _digest(_hot_gpu_trace()) == GOLDEN_THERMAL


def test_checkpointed_unit_resumed_mid_run_digest(tmp_path):
    config = _config(
        "miniHPC", "SedovBlast", "dvfs", fault_scenario="preempt-mid-run",
        steps=6,
    )
    ckpt = str(tmp_path / "unit.ckpt")
    with pytest.raises(JobPreempted):
        execute_unit(config, checkpoint_path=ckpt, checkpoint_every=2)
    payload = execute_unit(config, checkpoint_path=ckpt, checkpoint_every=2)
    assert payload["checkpoint"] == "hit"
    assert payload["metrics"]["resumed_from_step"] == 3
    assert _digest(payload) == GOLDEN_RESUMED
