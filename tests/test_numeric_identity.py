"""Golden digests pinning the numeric SPH step loop bit for bit.

The neighbor search and the pair geometry behind it are tuned for
speed, but the physics must see the same pairs in the same order and
sum them in the same order. A cached-versus-uncached comparison run at
one commit cannot notice when *both* sides drift together (say, a new
search that drops a boundary pair or reorders a row); these digests,
recorded before that tuning, can.

Each case runs the full instrumented loop (``Simulation`` over a
``NumericProblem``) from a fixed initial condition, at skin 0 (a fresh
search every step) and at skin 0.1 (Verlet reuse). The digest is the
SHA-256 of the raw bytes of every primary and derived particle field
after the last step; the rebuild/reuse counters are pinned beside it.
"""

import hashlib

import numpy as np
import pytest

from repro.sph import NumericProblem, Simulation
from repro.sph.init import (
    EvrardConfig,
    SedovConfig,
    TurbulenceConfig,
    TurbulenceDriver,
    make_evrard,
    make_evrard_eos,
    make_evrard_gravity,
    make_sedov,
    make_sedov_eos,
    make_turbulence,
    make_turbulence_eos,
)
from repro.sph.particles import DERIVED_FIELDS, PRIMARY_FIELDS
from repro.systems import Cluster, mini_hpc


def _sedov(skin, box_size=None):
    """Sedov blast split over 2 ranks, in an open box by default."""
    cfg = SedovConfig(nside=8, seed=3)
    particles = make_sedov(cfg)
    problem = NumericProblem(
        particles=particles,
        n_ranks=2,
        eos=make_sedov_eos(cfg),
        box_size=box_size,
        skin=skin,
    )
    return "SedovBlast", problem


def _sedov_periodic(skin):
    """The same blast in its periodic unit box, where skin 0.1 reuses."""
    return _sedov(skin, box_size=SedovConfig().box_size)


def _turbulence(skin):
    """Driven subsonic turbulence in a periodic box."""
    cfg = TurbulenceConfig(nside=8, mach_rms=0.3, seed=42)
    particles = make_turbulence(cfg)
    problem = NumericProblem(
        particles=particles,
        n_ranks=1,
        eos=make_turbulence_eos(cfg),
        box_size=cfg.box_size,
        driver=TurbulenceDriver(cfg, amplitude=0.4),
        skin=skin,
    )
    return "SubsonicTurbulence", problem


def _evrard(skin):
    """Self-gravitating collapse: open box, strongly adaptive ``h``."""
    cfg = EvrardConfig(n_particles=400, seed=7)
    particles = make_evrard(cfg)
    problem = NumericProblem(
        particles=particles,
        n_ranks=1,
        eos=make_evrard_eos(cfg),
        gravity=make_evrard_gravity(cfg),
        skin=skin,
    )
    return "EvrardCollapse", problem


#: case -> (problem factory, steps). The open-box cases grow ``h`` at
#: the edge every step, so only the periodic ones get to reuse a list.
CASES = {
    "sedov": (_sedov, 8),
    "sedov-periodic": (_sedov_periodic, 8),
    "turbulence": (_turbulence, 16),
    "evrard": (_evrard, 6),
}

#: (case, skin) -> (state digest, neighbor_rebuilds, neighbor_reuses)
SEDOV = "7520dc178304d15c43494201685b64a970ddcf7cdd2bf6235fd6958e2af83201"
SEDOV_PERIODIC = "6346ce8f23236fef1b3c4defbad08c7b8d87a870dae18cfc4d4839c6750f97b8"
TURBULENCE = "3fd758de654bc406a363649a2bd87fd49984671c20fa2ea03e88097c5d82dada"
EVRARD = "44cd92ca8707455bf10ea0190d0ffbed2108e51592d1f53b80f9c189e5c12845"

#: (case, skin) -> (state digest, neighbor_rebuilds, neighbor_reuses).
#: A reused list is masked back to the true support, so skin 0 and
#: skin 0.1 must end in the very same state.
GOLDEN = {
    ("sedov", 0.0): (SEDOV, 8, 0),
    ("sedov", 0.1): (SEDOV, 8, 0),
    ("sedov-periodic", 0.0): (SEDOV_PERIODIC, 8, 0),
    ("sedov-periodic", 0.1): (SEDOV_PERIODIC, 6, 2),
    ("turbulence", 0.0): (TURBULENCE, 16, 0),
    ("turbulence", 0.1): (TURBULENCE, 14, 2),
    ("evrard", 0.0): (EVRARD, 6, 0),
    ("evrard", 0.1): (EVRARD, 6, 0),
}


def _state_digest(particles) -> str:
    sha = hashlib.sha256()
    for name in PRIMARY_FIELDS + DERIVED_FIELDS:
        sha.update(name.encode("ascii"))
        sha.update(np.ascontiguousarray(getattr(particles, name)).tobytes())
    return sha.hexdigest()


def _run(case, skin):
    factory, steps = CASES[case]
    workload, problem = factory(skin)
    cluster = Cluster(mini_hpc(), problem.n_ranks)
    sim = Simulation(
        cluster,
        workload,
        problem.particles.n / problem.n_ranks,
        numeric=problem,
    )
    try:
        sim.run(steps)
    finally:
        cluster.detach_management_library()
    return (
        _state_digest(problem.particles),
        problem.neighbor_rebuilds,
        problem.neighbor_reuses,
    )


@pytest.mark.parametrize("skin", [0.0, 0.1])
@pytest.mark.parametrize("case", sorted(CASES))
def test_final_state_digest(case, skin):
    assert _run(case, skin) == GOLDEN[(case, skin)]
