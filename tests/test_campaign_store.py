"""The content-addressed run store: durability, replay, corruption."""

import hashlib
import json

import pytest

from repro.campaign import RunStore
from repro.campaign import worker as worker_mod

UNIT = {"campaign": "t", "system": "miniHPC", "seed": 0}
RESULT = {"metrics": {"elapsed_s": 1.0, "gpu_energy_j": 2.0}}


def test_record_done_round_trip(tmp_path):
    store = RunStore(str(tmp_path), campaign="t")
    store.record_done("k1", UNIT, RESULT)
    assert store.completed_keys() == {"k1"}
    artifact = store.load_result("k1")
    assert artifact["unit"] == UNIT
    assert artifact["result"] == RESULT
    assert artifact["schema"] == 1


def test_reopen_replays_manifest(tmp_path):
    RunStore(str(tmp_path), campaign="t").record_done("k1", UNIT, RESULT)
    reopened = RunStore(str(tmp_path))
    assert reopened.campaign == "t"
    assert reopened.completed_keys() == {"k1"}


def test_latest_status_wins(tmp_path):
    store = RunStore(str(tmp_path), campaign="t")
    store.record_failed("k1", UNIT, {"type": "ValueError", "message": "x"})
    assert store.failed_keys() == {"k1"}
    assert store.completed_keys() == set()
    store.record_done("k1", UNIT, RESULT)
    assert store.completed_keys() == {"k1"}
    assert store.counts() == {"done": 1, "failed": 0}


def test_done_without_artifact_is_not_completed(tmp_path):
    store = RunStore(str(tmp_path), campaign="t")
    store.record_done("k1", UNIT, RESULT)
    store.run_path("k1").unlink()
    assert RunStore(str(tmp_path)).completed_keys() == set()


def test_results_sorted_by_key_and_filterable(tmp_path):
    store = RunStore(str(tmp_path), campaign="t")
    for key in ("zz", "aa", "mm"):
        store.record_done(key, dict(UNIT, seed=key), RESULT)
    assert [r["key"] for r in store.results()] == ["aa", "mm", "zz"]
    assert [r["key"] for r in store.results(keys=["zz", "aa"])] == ["aa", "zz"]


def test_campaign_mismatch_rejected(tmp_path):
    RunStore(str(tmp_path), campaign="t").record_done("k1", UNIT, RESULT)
    with pytest.raises(ValueError, match="belongs to campaign"):
        RunStore(str(tmp_path), campaign="other")


def test_corrupt_manifest_line_names_file_and_line(tmp_path):
    store = RunStore(str(tmp_path), campaign="t")
    store.record_done("k1", UNIT, RESULT)
    with open(store.manifest_path, "a", encoding="utf-8") as fh:
        fh.write("{truncated\n")
    with pytest.raises(ValueError, match=r"manifest\.jsonl:3: not valid JSON"):
        RunStore(str(tmp_path))


def test_blank_manifest_lines_tolerated(tmp_path):
    store = RunStore(str(tmp_path), campaign="t")
    store.record_done("k1", UNIT, RESULT)
    with open(store.manifest_path, "a", encoding="utf-8") as fh:
        fh.write("\n\n")
    assert RunStore(str(tmp_path)).completed_keys() == {"k1"}


def test_manifest_header_schema_checked(tmp_path):
    store = RunStore(str(tmp_path), campaign="t")
    store.record_done("k1", UNIT, RESULT)
    lines = store.manifest_path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["schema"] = 99
    lines[0] = json.dumps(header)
    store.manifest_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"manifest\.jsonl:1"):
        RunStore(str(tmp_path))


def test_artifact_kind_checked(tmp_path):
    store = RunStore(str(tmp_path), campaign="t")
    store.record_done("k1", UNIT, RESULT)
    store.run_path("k1").write_text('{"schema": 1, "kind": "other"}\n')
    with pytest.raises(ValueError, match="not a campaign run artifact"):
        store.load_result("k1")


def test_no_tmp_files_left_behind(tmp_path):
    store = RunStore(str(tmp_path), campaign="t")
    store.record_done("k1", UNIT, RESULT)
    leftovers = list((tmp_path / "runs").glob("*.tmp"))
    assert leftovers == []


def test_heartbeats_roundtrip_and_absent_default(tmp_path):
    store = RunStore(str(tmp_path), campaign="t")
    assert store.read_heartbeats() == {}
    lanes = {
        "0": {"updated_s": 12.5, "state": "running", "unit": "u"},
        "1": {"updated_s": 13.0, "state": "idle"},
    }
    store.write_heartbeats(lanes)
    assert store.read_heartbeats() == lanes
    # Atomic replace: no temp litter next to the file.
    names = {p.name for p in store.heartbeats_path.parent.iterdir()}
    assert not any(n.startswith("tmp") for n in names)


# ---------------------------------------------------------------------------
# byte-level IO contract: goldens recorded before the one-shot serializer
# ---------------------------------------------------------------------------

GOLDEN_UNIT = {
    "campaign": "t",
    "system": "miniHPC",
    "seed": 0,
    "policy": {"kind": "static", "freq_mhz": 1005.0},
    "particles": 30000.0,
}
GOLDEN_RESULT = {
    "metrics": {
        "elapsed_s": 1.0,
        "gpu_energy_j": 2.0,
        "edp_j_s": 0.1 + 0.2,
        "degraded_ranks": [1, 3],
        "preempted": False,
        "resumed_from_step": None,
    },
    "report": {
        "label": "Sedov \u00b5-run",
        "ranks": [{"j": 1e-9}, {"j": 12345678.9}],
    },
}
GOLDEN_LANES = {
    "0": {
        "updated_s": 1700000000.25,
        "state": "running",
        "unit": "miniHPC/sedov/static@1005",
    },
    "1": {"updated_s": 1700000001.5, "state": "idle"},
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_record_done_bytes_are_pinned(tmp_path):
    store = RunStore(str(tmp_path), campaign="t")
    store.record_done("k1", GOLDEN_UNIT, GOLDEN_RESULT)
    assert _sha256(store.run_path("k1")) == (
        "7f5039a8d8baf9853e81b8d678114935460a6200191f9d7abbe1aff41c4ef5f2"
    )
    assert _sha256(store.manifest_path) == (
        "d022d7a54b24422e9f61423bdec4ec89c3dc5a7e10c7a1e848b57dfa413cd879"
    )


def test_heartbeat_and_lane_beat_bytes_are_pinned(tmp_path):
    store = RunStore(str(tmp_path), campaign="t")
    store.write_heartbeats(GOLDEN_LANES)
    assert _sha256(store.heartbeats_path) == (
        "ebbec6e40e9c2915f7c4098ff79f242f36af0f7504a952acfc204a58ef922c69"
    )
    beat = tmp_path / "beat.json"
    worker_mod._write_beat(
        str(beat),
        {"updated_s": 1700000002.75, "pid": 4242, "key": "abc", "step": 3},
    )
    assert _sha256(beat) == (
        "e2f61f78ec9d6a81b44b65ed614b6978bc1440caa45622f9dfd67bb04a7e4cd4"
    )


def test_heartbeats_reject_foreign_payload(tmp_path):
    store = RunStore(str(tmp_path), campaign="t")
    store.heartbeats_path.write_text('{"kind": "other"}', encoding="utf-8")
    with pytest.raises(ValueError):
        store.read_heartbeats()


# ---------------------------------------------------------------------------
# torn final line (crash mid-append)
# ---------------------------------------------------------------------------


def test_torn_final_line_skipped_with_warning(tmp_path):
    store = RunStore(str(tmp_path), campaign="t")
    store.record_done("k1", UNIT, RESULT)
    # A crash mid-append leaves a final line without its newline.
    with open(store.manifest_path, "a", encoding="utf-8") as fh:
        fh.write('{"schema": 1, "kind": "campaign-manifest", "key": "k2"')
    with pytest.warns(RuntimeWarning, match="torn final manifest line"):
        reopened = RunStore(str(tmp_path))
    # Everything before the torn tail replays; the torn unit re-runs.
    assert reopened.completed_keys() == {"k1"}
    assert reopened.counts() == {"done": 1, "failed": 0}


def test_torn_tail_recovers_after_next_append(tmp_path):
    store = RunStore(str(tmp_path), campaign="t")
    store.record_done("k1", UNIT, RESULT)
    with open(store.manifest_path, "a", encoding="utf-8") as fh:
        fh.write('{"torn')
    with pytest.warns(RuntimeWarning, match="torn final manifest line"):
        recovered = RunStore(str(tmp_path))
    # Recovery truncates the torn bytes, so the next append starts on
    # its own line -- and k2 is durable on the following (clean) reopen.
    recovered.record_done("k2", UNIT, RESULT)
    assert recovered.completed_keys() == {"k1", "k2"}
    assert RunStore(str(tmp_path)).completed_keys() == {"k1", "k2"}


@pytest.mark.parametrize(
    "history",
    [
        ("done",),
        ("failed", "done"),
        ("done", "failed"),
        ("done", "failed", "done"),
    ],
)
def test_replay_matches_live_statuses_despite_torn_tail(tmp_path, history):
    store = RunStore(str(tmp_path), campaign="t")
    for status in history:
        if status == "done":
            store.record_done("k1", UNIT, RESULT)
        else:
            store.record_failed("k1", UNIT, {"type": "E", "message": "x"})
    store.record_done("k2", UNIT, RESULT)
    live = (store.completed_keys(), store.failed_keys(), store.counts())
    assert ("k1" in live[0]) == (history[-1] == "done")
    with open(store.manifest_path, "a", encoding="utf-8") as fh:
        fh.write('{"key": "k1", "status": "fai')
    with pytest.warns(RuntimeWarning, match="torn final manifest line"):
        reopened = RunStore(str(tmp_path))
    replayed = (
        reopened.completed_keys(), reopened.failed_keys(), reopened.counts()
    )
    assert replayed == live


def test_torn_line_mid_file_still_raises(tmp_path):
    store = RunStore(str(tmp_path), campaign="t")
    store.record_done("k1", UNIT, RESULT)
    # Corruption *with* a trailing newline is not a torn append -- it
    # must keep failing loudly (see the corrupt-manifest test above).
    with open(store.manifest_path, "a", encoding="utf-8") as fh:
        fh.write('{"torn\n{"also-torn\n')
    with pytest.raises(ValueError, match="not valid JSON"):
        RunStore(str(tmp_path))
