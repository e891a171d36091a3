"""Campaign specs: validation, grid expansion, content-addressed keys."""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    canonical_json,
    policy_label,
    run_key,
)


def _spec(**overrides):
    base = dict(
        name="t",
        workloads=("turbulence",),
        policies=({"kind": "baseline"}, {"kind": "static"}),
        clocks_mhz=(1305.0, 1005.0),
        systems=("miniHPC",),
        particles=(30_000.0,),
        steps=2,
        seeds=(0,),
    )
    base.update(overrides)
    return CampaignSpec(**base)


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------


def test_run_key_is_order_independent():
    a = {"x": 1, "y": {"b": 2.0, "a": 3.0}}
    b = {"y": {"a": 3.0, "b": 2.0}, "x": 1}
    assert run_key(a) == run_key(b)
    assert len(run_key(a)) == 16


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_unit_keys_are_stable_across_expansions():
    first = [u.key for u in _spec().expand()]
    second = [u.key for u in _spec().expand()]
    assert first == second
    assert len(set(first)) == len(first)


def test_min_unit_wall_s_does_not_enter_keys():
    plain = [u.key for u in _spec().expand()]
    paced = [u.key for u in _spec(min_unit_wall_s=0.5).expand()]
    assert plain == paced


def test_renaming_campaign_changes_every_key():
    a = {u.key for u in _spec().expand()}
    b = {u.key for u in _spec(name="other").expand()}
    assert not (a & b)


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


def test_static_without_freq_expands_over_clocks():
    units = _spec().expand()
    labels = [u.label for u in units]
    assert len(units) == 3  # baseline + 2 clocks
    assert any("static-1305" in lab for lab in labels)
    assert any("static-1005" in lab for lab in labels)


def test_workload_aliases_resolve_in_units():
    units = _spec().expand()
    assert all(u.workload == "SubsonicTurbulence" for u in units)


def test_duplicate_configurations_rejected():
    spec = _spec(
        policies=({"kind": "baseline"}, {"kind": "baseline"}),
        clocks_mhz=(),
    )
    with pytest.raises(ValueError, match="duplicate"):
        spec.expand()


def test_n_units_matches_expansion():
    spec = _spec(seeds=(0, 1), particles=(1e4, 3e4))
    assert spec.n_units() == len(spec.expand()) == 3 * 2 * 2


def test_policy_labels():
    assert policy_label({"kind": "static", "freq_mhz": 1005.0}) == "static-1005"
    assert policy_label({"kind": "mandyn"}) == "mandyn"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_unknown_system_rejected():
    with pytest.raises(ValueError, match="unknown system"):
        _spec(systems=("notamachine",))


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        _spec(workloads=("notaworkload",))


def test_unknown_policy_kind_rejected():
    with pytest.raises(ValueError, match="unknown policy kind"):
        _spec(policies=({"kind": "magic"},))


def test_unknown_policy_keys_rejected():
    with pytest.raises(ValueError, match="unknown keys"):
        _spec(policies=({"kind": "static", "frequency": 1005},))


def test_static_without_freq_needs_clocks():
    with pytest.raises(ValueError, match="clocks_mhz"):
        _spec(policies=({"kind": "static"},), clocks_mhz=())


def test_unknown_fault_scenario_rejected():
    with pytest.raises(ValueError, match="unknown fault scenario"):
        _spec(fault_scenario="notascenario")


# ---------------------------------------------------------------------------
# (de)serialization
# ---------------------------------------------------------------------------


def test_round_trip_preserves_grid(tmp_path):
    spec = _spec(seeds=(0, 7))
    path = tmp_path / "spec.json"
    spec.save(str(path))
    loaded = CampaignSpec.load(str(path))
    assert [u.key for u in loaded.expand()] == [u.key for u in spec.expand()]


def test_from_dict_rejects_unknown_keys():
    for extra in ({"color": "red"}, {"comm_backend": "local"}):
        with pytest.raises(ValueError, match="unknown campaign spec keys"):
            CampaignSpec.from_dict({"name": "t", **extra})


def test_from_dict_rejects_wrong_schema():
    with pytest.raises(ValueError, match="schema"):
        CampaignSpec.from_dict({"schema": 99, "name": "t"})


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(ValueError, match="not valid JSON"):
        CampaignSpec.load(str(path))


def test_example_fig7_spec_expands_to_seven_units():
    spec = CampaignSpec.load("examples/campaign_fig7.json")
    units = spec.expand()
    assert len(units) == 7
    labels = {u.label.split("/")[2] for u in units}
    assert labels == {
        "baseline", "dvfs", "mandyn",
        "static-1305", "static-1200", "static-1110", "static-1005",
    }


def test_saved_spec_is_valid_json_with_header(tmp_path):
    path = tmp_path / "spec.json"
    _spec().save(str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["schema"] == 1
    assert payload["kind"] == "campaign-spec"
