"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOAD_METRIC_NAMES  # noqa: E402
from tracer import Tracer, reconcile  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def _field(proc: subprocess.CompletedProcess, name: str) -> str:
    for token in proc.stdout.split():
        if token.startswith(name + "="):
            return token.split("=", 1)[1]
    for line in proc.stdout.split("\n"):
        if line.strip().startswith(name + " "):
            return line.split()[-1]
    raise AssertionError(f"{name} not printed")


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric_with_its_unit(trace):
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    metrics = _result(proc)["metrics"]
    listed = BENCHMARK["end_to_end"] if trace == "0" else BENCHMARK["per_layer"]
    for workload in workloads.WORKLOADS:
        own = sorted(k[len(workload) + 1:] for k in metrics if k.startswith(workload + "."))
        assert own == sorted(metric["name"] for metric in listed)
        for metric in listed:
            got = metrics[f"{workload}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
        if trace == "0":
            for name in ("setup_s", "peak_rss_mb", "failed_frac", *WORKLOAD_METRIC_NAMES[workload]):
                assert f"  {name} " in proc.stdout
    assert "RECONCILIATION" not in proc.stdout
    assert "not wrapped" not in proc.stdout


def test_tracer_self_times_nest_and_patches_undo(tmp_path):
    class Base:
        def inner(self):
            time.sleep(0.01)

    class Layer(Base):
        def outer(self):
            self.inner()
            time.sleep(0.01)

    tracer = Tracer(str(tmp_path))
    tracer.patch(Layer, "outer", lambda fn: tracer.span("a", "outer", fn))
    tracer.patch(Layer, "inner", lambda fn: tracer.span("b", "inner", fn))
    tracer.patch(Layer, "absent", lambda fn: fn)
    tracer.start_window()
    Layer().outer()
    tracer.stop_window()
    tracer.uninstall()
    assert "inner" not in vars(Layer) and tracer.missing == ["Layer.absent"]
    spans, _counts, top = tracer.collect()
    rec = reconcile(spans, top, tracer.wall_s, lanes=1)
    assert rec["problems"] == []
    assert rec["self_s"]["a"] == pytest.approx(0.01, abs=0.005)
    assert rec["self_s"]["b"] == pytest.approx(0.01, abs=0.005)
    assert rec["unattributed_s"] >= 0.0


def test_output_check_rejects_a_tampered_unit_result():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        sweep = workloads.CampaignSweep(5, Path(tmp), smoke=True)
        sweep.setup()
        drain = sweep._drain()
        artifact = drain.store.load_result(drain.units[0].key)
    reference = checks.load_reference()["campaign-sweep"]
    assert checks.check_artifact(artifact, reference)[2] is None
    tampered = copy.deepcopy(artifact)
    tampered["result"]["report"]["ranks"][0]["window_gpu_j"] *= 1.0 + 1e-12
    assert checks.check_artifact(tampered, reference)[2] is not None


@pytest.mark.parametrize("workload", ["campaign-sweep", "numeric-sedov"])
def test_one_seed_gives_identical_input_and_output_digests(workload):
    runs = [_run("--workload", workload, "--seed", "11", "--seconds", "1",
                 "--smoke") for _ in range(2)]
    for name in ("input_digest", "output_digest"):
        assert _field(runs[0], name) == _field(runs[1], name)
    assert all(_result(r)["correct"] for r in runs)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_another_seed_gives_different_inputs(workload):
    cls = workloads.WORKLOADS[workload]
    digests = {cls(seed, ROOT).input_digest() for seed in (11, 12)}
    assert len(digests) == 2
    assert cls(11, ROOT).input_digest() == cls(11, ROOT).input_digest()
