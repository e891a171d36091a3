"""Output checks: simulated statistics against recorded references.

Host time is what the benchmark measures; simulated GPU time, energy
and EDP are outputs it checks. A change that only speeds up the
simulator must leave every one of them bit-identical, so each checked
value is compared through a digest of its exact float ``repr``.

* Campaign units (``campaign-sweep`` and ``service-mixed``): the GPU
  energy, time to solution and EDP recomputed from the stored
  ``EnergyReport`` of each unit. Seed labels are replicate labels on the
  model path, so the reference is keyed by the unit's configuration
  without campaign name and seed (its *signature*).
* ``numeric-sedov``: a digest of the final particle state, per initial
  condition variant, plus the total-energy drift tolerance that
  ``tests/test_sph_sedov.py`` uses.

``reference.json`` beside this file holds the recorded digests;
``python3 perfbench/record.py`` regenerates it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Relative total-energy drift allowed over a Sedov run.
SEDOV_ENERGY_DRIFT = 0.05

#: Particle fields hashed into the numeric state digest.
PARTICLE_FIELDS = ("x", "y", "z", "vx", "vy", "vz", "m", "h", "u")


def digest(payload: Any) -> str:
    """Short SHA-256 of a canonical JSON rendering."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def unit_signature(unit: Mapping[str, Any]) -> str:
    """Configuration identity of a unit, without campaign name and seed."""
    from repro.campaign import policy_label

    return "/".join(
        [
            unit["workload"],
            unit["system"],
            policy_label(unit["policy"]),
            f"p{float(unit['particles']):g}",
            f"n{int(unit['steps'])}",
            f"r{int(unit['ranks'])}",
        ]
    )


def unit_stats_digest(artifact: Mapping[str, Any]) -> str:
    """Digest of energy, time to solution and EDP from the stored report."""
    from repro.campaign import report_from_result

    report = report_from_result(artifact)
    energy = report.total_window_gpu_j()
    time_s = report.max_window_time_s()
    return digest([repr(energy), repr(time_s), repr(energy * time_s)])


def check_artifact(
    artifact: Mapping[str, Any], reference: Mapping[str, str]
) -> Tuple[str, str, Optional[str]]:
    """(signature, digest, mismatch description or None) of one unit."""
    signature = unit_signature(artifact["unit"])
    got = unit_stats_digest(artifact)
    want = reference.get(signature)
    if got == want:
        return signature, got, None
    return signature, got, f"{artifact['key']} ({signature}): digest {got}, reference {want}"


def particle_digest(particles) -> str:
    """Bit-exact digest of the final particle state."""
    h = hashlib.sha256()
    for name in PARTICLE_FIELDS:
        h.update(getattr(particles, name).tobytes())
    return h.hexdigest()[:16]


def total_energy(particles) -> float:
    return float(particles.kinetic_energy() + particles.internal_energy())
