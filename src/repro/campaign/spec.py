"""Declarative campaign specifications and grid expansion.

A :class:`CampaignSpec` describes one experiment *sweep* — the cross
product of workloads × frequency policies × clocks × seeds × system
presets that every figure and table of the paper is built from (Figs.
6-8 sweep clocks and policies, Table I sweeps systems). The spec is
pure data, loadable from JSON or a plain dict, and expands into a flat
list of :class:`RunUnit` configurations.

Every unit owns a **content-addressed run key**: a stable hash of the
unit's canonical configuration. Two campaigns that contain the same
configuration produce the same key, which is what makes the run store
idempotent — a completed key is never executed twice, so a killed
campaign resumes for free and overlapping sweeps share work.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..catalog import is_path_ref, resolve_system
from ..faults import scenario_names
from ..sph.workload import resolve_workload
from ..systems import all_system_names

#: Version of the campaign file formats (spec, manifest, run, summary).
CAMPAIGN_SCHEMA_VERSION = 1

#: Policy kinds a spec may name.
POLICY_KINDS = ("baseline", "static", "dvfs", "mandyn", "autodyn")


def canonical_json(payload: Any) -> str:
    """Deterministic JSON rendering: sorted keys, no whitespace."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def run_key(config: Mapping[str, Any]) -> str:
    """Content-addressed key of one unit configuration.

    The key is a truncated SHA-256 of the canonical JSON, so it is
    stable across processes, platforms and dict orderings — the same
    configuration always lands in the same run-store slot.
    """
    digest = hashlib.sha256(canonical_json(config).encode("utf-8"))
    return digest.hexdigest()[:16]


def _normalize_policy(raw: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate one policy entry and return its canonical dict form."""
    kind = raw.get("kind")
    if kind not in POLICY_KINDS:
        known = ", ".join(POLICY_KINDS)
        raise ValueError(f"unknown policy kind {kind!r} (known: {known})")
    policy: Dict[str, Any] = {"kind": kind}
    if kind == "static":
        freq = raw.get("freq_mhz")
        if freq is not None:
            if float(freq) <= 0:
                raise ValueError("static freq_mhz must be positive")
            policy["freq_mhz"] = float(freq)
    elif kind == "mandyn":
        freq_map = raw.get("freq_map")
        if freq_map is not None:
            policy["freq_map"] = {
                str(fn): float(mhz) for fn, mhz in freq_map.items()
            }
        default = raw.get("default_mhz")
        if default is not None:
            if float(default) <= 0:
                raise ValueError("mandyn default_mhz must be positive")
            policy["default_mhz"] = float(default)
    elif kind == "autodyn":
        candidates = raw.get("candidates_mhz")
        if candidates is not None:
            policy["candidates_mhz"] = [float(c) for c in candidates]
        rounds = raw.get("rounds_per_candidate")
        if rounds is not None:
            if int(rounds) < 1:
                raise ValueError("rounds_per_candidate must be >= 1")
            policy["rounds_per_candidate"] = int(rounds)
    unknown = set(raw) - set(policy) - {"kind"}
    if unknown:
        raise ValueError(
            f"unknown keys {sorted(unknown)} in {kind!r} policy entry"
        )
    return policy


def policy_label(policy: Mapping[str, Any]) -> str:
    """Short, unique-per-config label used in reports and aggregation."""
    kind = policy["kind"]
    if kind == "static":
        freq = policy.get("freq_mhz")
        return f"static-{freq:.0f}" if freq is not None else "static"
    return kind


@dataclass(frozen=True)
class RunUnit:
    """One fully-resolved point of the campaign grid."""

    campaign: str
    system: str
    workload: str
    particles: float
    steps: int
    ranks: int
    seed: int
    policy: Tuple[Tuple[str, Any], ...]
    fault_scenario: Optional[str] = None

    def policy_dict(self) -> Dict[str, Any]:
        return {k: _thaw_value(v) for k, v in self.policy}

    def config(self) -> Dict[str, Any]:
        """The canonical configuration dict the run key hashes."""
        cfg: Dict[str, Any] = {
            "campaign": self.campaign,
            "system": self.system,
            "workload": self.workload,
            "particles": self.particles,
            "steps": self.steps,
            "ranks": self.ranks,
            "seed": self.seed,
            "policy": self.policy_dict(),
        }
        if self.fault_scenario is not None:
            cfg["fault_scenario"] = self.fault_scenario
        return cfg

    @property
    def key(self) -> str:
        return run_key(self.config())

    @property
    def label(self) -> str:
        """Human-readable unit identity for progress and reports."""
        parts = [
            self.workload,
            self.system,
            policy_label(self.policy_dict()),
            f"s{self.seed}",
        ]
        return "/".join(parts)


def _freeze_policy(policy: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Hashable, order-stable form of a policy dict (for frozen units)."""
    out = []
    for k in sorted(policy):
        v = policy[k]
        if isinstance(v, Mapping):
            v = tuple(sorted((str(fk), float(fv)) for fk, fv in v.items()))
        elif isinstance(v, list):
            v = tuple(v)
        out.append((k, v))
    return tuple(out)


def _thaw_value(v: Any) -> Any:
    if isinstance(v, tuple) and v and isinstance(v[0], tuple):
        return {k: val for k, val in v}
    if isinstance(v, tuple):
        return list(v)
    return v


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative experiment sweep (grid of run configurations).

    Parameters
    ----------
    name:
        Campaign identity; part of every unit's run key, so renaming a
        campaign deliberately invalidates its cached runs.
    workloads:
        Workload names or CLI aliases (``"turbulence"``, ``"sedov"``).
    policies:
        Policy entries (see :data:`POLICY_KINDS`). A ``static`` entry
        without ``freq_mhz`` expands over :attr:`clocks_mhz`.
    clocks_mhz:
        Clock sweep for unpinned ``static`` policy entries — the Figs.
        6-8 frequency axis.
    systems:
        System references: catalog entry names (shipped or from
        ``REPRO_CATALOG_PATH``), legacy Table-I preset names, or
        ``path:<spec-file>`` references (a bare ``.yaml``/``.json``
        path also works). A path reference enters run keys as the
        literal string, so keep it stable (relative to the campaign
        working directory) if cached results should survive.
    particles:
        Per-rank particle counts (the Fig. 6 problem-size axis).
    seeds:
        Seeds; with a :attr:`fault_scenario` each seed builds a distinct
        deterministic fault plan, otherwise seeds are replicate labels.
    fault_scenario:
        Optional :mod:`repro.faults` scenario name; units then run with
        fault injection and resilience enabled.
    min_unit_wall_s:
        Pace each unit to at least this much *wall* time, emulating
        campaigns whose workers block on real hardware. Execution-only:
        does not enter run keys or results. Used by the throughput
        benchmark and smoke tests.
    checkpoint_every:
        With a positive value, workers snapshot full simulation state
        every that many steps into the run store's ``checkpoints/``
        directory, and a preempted / killed / timed-out unit resumes
        from its latest checkpoint on retry instead of step 0.
        Execution-only: crash tolerance does not change what a unit
        computes, so it does not enter run keys.
    """

    name: str
    workloads: Sequence[str] = ("SubsonicTurbulence",)
    policies: Sequence[Mapping[str, Any]] = ({"kind": "baseline"},)
    clocks_mhz: Sequence[float] = ()
    systems: Sequence[str] = ("miniHPC",)
    particles: Sequence[float] = (1.0e6,)
    steps: int = 5
    ranks: int = 1
    seeds: Sequence[int] = (0,)
    fault_scenario: Optional[str] = None
    min_unit_wall_s: float = 0.0
    checkpoint_every: int = 0
    _canonical_policies: Tuple[Dict[str, Any], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign needs a name")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.ranks < 1:
            raise ValueError("ranks must be >= 1")
        if self.min_unit_wall_s < 0.0:
            raise ValueError("min_unit_wall_s must be non-negative")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if not self.workloads:
            raise ValueError("campaign needs at least one workload")
        if not self.policies:
            raise ValueError("campaign needs at least one policy")
        if not self.particles:
            raise ValueError("campaign needs at least one particle count")
        if not self.seeds:
            raise ValueError("campaign needs at least one seed")
        for p in self.particles:
            if p <= 0:
                raise ValueError("particle counts must be positive")
        for c in self.clocks_mhz:
            if c <= 0:
                raise ValueError("clocks must be positive")
        # all_system_names() is the single known-systems source shared
        # with repro.systems.by_name, so catalog-only entries appear in
        # both error messages. File references are resolved eagerly —
        # a broken spec file fails at campaign load, not mid-drain in
        # a worker process.
        known_systems = set(all_system_names())
        for system in self.systems:
            if is_path_ref(system):
                resolve_system(system)
                continue
            if system not in known_systems:
                raise ValueError(
                    f"unknown system {system!r} "
                    f"(known: {', '.join(sorted(known_systems))})"
                )
        for workload in self.workloads:
            resolve_workload(workload)  # raises on unknown names
        if (
            self.fault_scenario is not None
            and self.fault_scenario not in scenario_names()
        ):
            raise ValueError(
                f"unknown fault scenario {self.fault_scenario!r} "
                f"(known: {', '.join(scenario_names())})"
            )
        canonical = tuple(_normalize_policy(p) for p in self.policies)
        object.__setattr__(self, "_canonical_policies", canonical)
        for policy in canonical:
            if (
                policy["kind"] == "static"
                and "freq_mhz" not in policy
                and not self.clocks_mhz
            ):
                raise ValueError(
                    "a static policy without freq_mhz needs clocks_mhz "
                    "to expand over"
                )

    # -- (de)serialization ---------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        """Build a spec from a plain dict (e.g. parsed JSON)."""
        data = dict(payload)
        schema = data.pop("schema", CAMPAIGN_SCHEMA_VERSION)
        if schema != CAMPAIGN_SCHEMA_VERSION:
            raise ValueError(
                f"campaign spec has schema {schema!r}, this build reads "
                f"{CAMPAIGN_SCHEMA_VERSION}"
            )
        kind = data.pop("kind", "campaign-spec")
        if kind != "campaign-spec":
            raise ValueError(f"expected a 'campaign-spec' file, found {kind!r}")
        known = {
            "name", "workloads", "policies", "clocks_mhz", "systems",
            "particles", "steps", "ranks", "seeds", "fault_scenario",
            "min_unit_wall_s", "checkpoint_every",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown campaign spec keys {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def load(cls, path: str) -> "CampaignSpec":
        """Load a JSON spec file."""
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not valid JSON ({exc})") from None
        return cls.from_dict(payload)

    def to_dict(self) -> Dict[str, Any]:
        """Round-trippable dict form (with the schema header fields)."""
        payload: Dict[str, Any] = {
            "schema": CAMPAIGN_SCHEMA_VERSION,
            "kind": "campaign-spec",
            "name": self.name,
            "workloads": [resolve_workload(w) for w in self.workloads],
            "policies": [dict(p) for p in self._canonical_policies],
            "systems": list(self.systems),
            "particles": [float(p) for p in self.particles],
            "steps": self.steps,
            "ranks": self.ranks,
            "seeds": [int(s) for s in self.seeds],
        }
        if self.clocks_mhz:
            payload["clocks_mhz"] = [float(c) for c in self.clocks_mhz]
        if self.fault_scenario is not None:
            payload["fault_scenario"] = self.fault_scenario
        if self.min_unit_wall_s:
            payload["min_unit_wall_s"] = self.min_unit_wall_s
        if self.checkpoint_every:
            payload["checkpoint_every"] = int(self.checkpoint_every)
        return payload

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    # -- expansion -----------------------------------------------------------

    def expanded_policies(self) -> List[Dict[str, Any]]:
        """Policy entries with unpinned static clocks swept (in order)."""
        out: List[Dict[str, Any]] = []
        for policy in self._canonical_policies:
            if policy["kind"] == "static" and "freq_mhz" not in policy:
                for clock in self.clocks_mhz:
                    out.append({"kind": "static", "freq_mhz": float(clock)})
            else:
                out.append(dict(policy))
        return out

    def expand(self) -> List[RunUnit]:
        """The full grid, in deterministic nesting order.

        Nesting is system → workload → particles → policy → seed, so
        related configurations (one figure's series) are adjacent.
        """
        units: List[RunUnit] = []
        for system in self.systems:
            for workload in self.workloads:
                canonical_workload = resolve_workload(workload)
                for particles in self.particles:
                    for policy in self.expanded_policies():
                        for seed in self.seeds:
                            units.append(
                                RunUnit(
                                    campaign=self.name,
                                    system=system,
                                    workload=canonical_workload,
                                    particles=float(particles),
                                    steps=self.steps,
                                    ranks=self.ranks,
                                    seed=int(seed),
                                    policy=_freeze_policy(policy),
                                    fault_scenario=self.fault_scenario,
                                )
                            )
        keys = [u.key for u in units]
        if len(set(keys)) != len(keys):
            dupes = sorted(
                {k for k in keys if keys.count(k) > 1}
            )
            raise ValueError(
                f"campaign grid contains duplicate configurations "
                f"(keys {dupes}); remove repeated policy/clock entries"
            )
        return units

    def n_units(self) -> int:
        return len(self.expand())
