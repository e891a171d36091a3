"""SimulatedGpu: execution, energy integration, clocks, tracing."""

import hashlib

import numpy as np
import pytest

from repro.hardware import (
    GpuError,
    KernelLaunch,
    SimulatedGpu,
    VirtualClock,
    a100_sxm4_80gb,
)
from repro.units import mhz, to_mhz


def _kernel(name="MomentumEnergy", flops=1e12, nbytes=1e11, intensity=1.0):
    return KernelLaunch(name, flops, nbytes, intensity)


def test_execute_advances_clock_by_duration(a100):
    d = a100.execute(_kernel())
    assert d > 0
    assert a100.clock.now == pytest.approx(d)


def test_energy_equals_power_times_time_pinned(a100):
    k = _kernel()
    d = a100.execute(k)
    # Full-intensity kernel at max clock draws exactly TDP while busy.
    assert a100.energy_j == pytest.approx(a100.spec.max_power_w * d, rel=1e-9)


def test_downclock_slows_and_saves_energy(a100):
    k = _kernel()
    d0 = a100.execute(k)
    e0 = a100.energy_j
    a100.set_application_clocks(a100.spec.memory_clock_hz, mhz(1005))
    e_before = a100.energy_j
    d1 = a100.execute(k)
    e1 = a100.energy_j - e_before
    assert d1 > d0
    assert e1 < e0


def test_set_application_clocks_quantizes_and_counts(a100):
    set_hz = a100.set_application_clocks(a100.spec.memory_clock_hz, mhz(1007))
    assert to_mhz(set_hz) == 1005.0
    assert a100.clock_transitions == 1
    # Same bin again: no transition, no latency.
    t = a100.clock.now
    a100.set_application_clocks(a100.spec.memory_clock_hz, mhz(1005))
    assert a100.clock_transitions == 1
    assert a100.clock.now == t


def test_clock_set_charges_latency(a100):
    t0 = a100.clock.now
    a100.set_application_clocks(a100.spec.memory_clock_hz, mhz(1200))
    assert a100.clock.now == pytest.approx(t0 + SimulatedGpu.CLOCK_SET_LATENCY_S)


def test_reset_application_clocks_enables_dvfs(a100):
    assert not a100.dvfs_active
    a100.reset_application_clocks()
    assert a100.dvfs_active
    assert a100.application_clock_hz is None


def test_idle_energy_accrues_on_external_advance(a100):
    a100.clock.advance(1.0)
    assert 0 < a100.energy_j <= a100.spec.idle_power_w * 1.0 + 1e-9


def test_kernel_records_accumulate(a100):
    k = _kernel()
    a100.execute(k)
    a100.execute(k)
    rec = a100.kernel_records["MomentumEnergy"]
    assert rec.launches == 2
    assert rec.flops == pytest.approx(2e12)
    assert rec.energy_joules == pytest.approx(a100.energy_j, rel=1e-9)
    assert rec.busy_seconds == pytest.approx(a100.busy_seconds)


def test_launch_overhead_draws_idle_power(a100):
    k = KernelLaunch("K", flops=0.0, bytes_moved=0.0, launch_overhead=0.5)
    d = a100.execute(k)
    assert d == pytest.approx(0.5)
    assert a100.energy_j <= a100.spec.idle_power_w * 0.5 + 1e-9
    assert a100.busy_seconds == 0.0


def test_governed_execution_tracks_governor_clock(a100):
    a100.reset_application_clocks()
    a100.execute(_kernel(intensity=1.0))
    # Full-intensity kernel boosts the governor to max clock.
    assert to_mhz(a100.current_clock_hz) == 1410.0


def test_governed_idle_decays_clock(a100):
    a100.reset_application_clocks()
    a100.execute(_kernel())
    busy_clock = a100.current_clock_hz
    a100.clock.advance(2.0)
    assert a100.current_clock_hz < busy_clock


def test_frequency_trace_records_points(a100):
    a100.reset_application_clocks()
    a100.start_frequency_trace()
    a100.execute(_kernel())
    a100.clock.advance(1.0)
    trace = a100.stop_frequency_trace()
    assert len(trace) >= 2
    times = [t for t, _ in trace]
    assert times == sorted(times)
    # Tracing stops cleanly.
    assert a100.stop_frequency_trace() == []


def test_utilization_reflects_busy_fraction(a100):
    a100.execute(_kernel(flops=5e12, nbytes=0.0))  # ~0.5s busy
    a100.clock.advance(0.5)
    u = a100.utilization(window_s=1.0)
    assert 0.3 < u < 0.8


def test_cannot_change_clocks_mid_kernel(a100):
    # Simulate re-entrancy guard via the private flag.
    a100._executing = True
    with pytest.raises(GpuError):
        a100.set_application_clocks(a100.spec.memory_clock_hz, mhz(1005))
    with pytest.raises(GpuError):
        a100.execute(_kernel())
    a100._executing = False


def test_two_gpus_on_one_clock_both_integrate():
    clk = VirtualClock()
    g1 = SimulatedGpu(a100_sxm4_80gb(), clk, index=0)
    g2 = SimulatedGpu(a100_sxm4_80gb(), clk, index=1)
    g1.execute(_kernel())
    # g2 idles while g1 runs (shared clock).
    assert g2.energy_j > 0
    assert g2.busy_seconds == 0.0
    assert g1.busy_seconds > 0


def test_utilization_and_busy_interval_checkpoint_are_pinned():
    """Exact utilization values and checkpoint bytes of a long sequence.

    Recorded before the interval store became a deque; pruning with
    ``popleft`` must return the same values and checkpoint the same
    ``(n, 2)`` float64 array, and a restored device must agree.
    """
    gpu = SimulatedGpu(a100_sxm4_80gb(), VirtualClock())
    k = KernelLaunch("MomentumEnergy", 2e10, 1e9, 1.0, launch_overhead=1e-3)
    values = []
    for i in range(400):
        gpu.execute(k)
        if i % 7 == 0:
            gpu.clock.advance(0.013)
        if i % 50 == 49:
            values.append(gpu.utilization(window_s=0.05))
            values.append(gpu.utilization(window_s=0.2))
    assert values == [
        0.358659793814432, 0.4483247422680401,
        0.4098969072165026, 0.4611340206185577,
        0.46113402061856545, 0.47394329896908116,
        0.5123711340206061, 0.48675257731958743,
        0.5400000000000249, 0.4867525773195758,
        0.5400000000000249, 0.4867525773195758,
        0.5400000000000249, 0.4867525773195758,
        0.35865979381445534, 0.44832474226806585,
    ]
    # Intervals older than 10 windows were pruned as the run went on.
    assert len(gpu._busy_intervals) == 91

    state = gpu.state_dict()
    intervals = state["busy_intervals"]
    assert isinstance(intervals, np.ndarray)
    assert intervals.dtype == np.float64 and intervals.shape == (91, 2)
    assert hashlib.sha256(intervals.tobytes()).hexdigest() == (
        "7d1fc5b60d681f7795f6da9ee3bbebc7f42aac2a37f4f57565e524db1a595fe8"
    )

    restored = SimulatedGpu(a100_sxm4_80gb(), VirtualClock())
    restored.clock.restore_state(gpu.clock.state_dict())
    restored.restore_state(state)
    assert restored.utilization(0.05) == 0.35865979381445534
    assert restored.utilization(1.0) == 0.23312886597938287
    assert len(restored._busy_intervals) == 91
