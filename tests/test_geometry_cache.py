"""StepGeometry cache, Verlet-skin reuse, and pair-closure regression.

The numeric hot-path overhaul must not change the physics: running the
step loop through the shared :class:`StepGeometry` cache (with and
without a Verlet skin) has to reproduce the uncached per-kernel
recomputation path trajectory-for-trajectory, bit for bit: a reused
wide list masked back to the true support holds the same pairs in the
same order as a fresh search, so every sum runs in the same order.
"""

import numpy as np
import pytest

from repro.sph import NumericProblem, ParticleSet, find_neighbors
from repro.sph.eos import IdealGasEOS
from repro.sph.init import (
    EvrardConfig,
    SedovConfig,
    TurbulenceConfig,
    TurbulenceDriver,
    make_evrard,
    make_sedov,
    make_sedov_eos,
    make_turbulence,
    make_turbulence_eos,
)
from repro.sph.kernels_math import default_kernel
from repro.sph.neighbors import (
    mirror_missing,
    pairs_member_mask,
    symmetric_pairs,
)
from repro.sph.physics import (
    ArtificialViscosity,
    TimestepControl,
    compute_density_gradh,
    compute_iad_divv_curlv,
    compute_momentum_energy,
    compute_xmass,
    local_timestep,
    update_quantities,
)
from repro.sph.physics.positions import IntegrationConfig

TRACKED_FIELDS = ("rho", "gradh", "divv", "ax", "du")


def _snapshot(particles):
    return {f: np.copy(getattr(particles, f)) for f in TRACKED_FIELDS}


def _run_cached(particles, eos, box_size, steps, skin, driver=None):
    """Drive the step loop through NumericProblem (shared geometry)."""
    problem = NumericProblem(
        particles=particles,
        n_ranks=1,
        eos=eos,
        box_size=box_size,
        driver=driver,
        skin=skin,
    )
    trajectory = []
    for _ in range(steps):
        problem.find_neighbors()
        problem.xmass()
        problem.normalization_gradh()
        problem.equation_of_state()
        problem.iad_velocity_div_curl()
        problem.momentum_energy()
        problem.set_global_dt(min(problem.local_timesteps()))
        trajectory.append(_snapshot(particles))
        problem.update_quantities()
    return trajectory, problem


def _run_uncached(particles, eos, box_size, steps, driver=None):
    """Reference loop: fresh search and per-kernel geometry each step."""
    kernel = default_kernel()
    av = ArtificialViscosity()
    control = TimestepControl()
    integration = IntegrationConfig()
    previous_dt = None
    trajectory = []
    for _ in range(steps):
        nlist = find_neighbors(
            particles,
            support_radius=kernel.support_radius,
            box_size=box_size,
        )
        compute_xmass(particles, nlist, kernel, box_size)
        compute_density_gradh(particles, nlist, kernel, box_size)
        eos.apply(particles)
        compute_iad_divv_curlv(particles, nlist, kernel, box_size)
        ext = None if driver is None else driver.acceleration(particles)
        compute_momentum_energy(
            particles,
            nlist,
            kernel,
            av=av,
            box_size=box_size,
            external_ax=None if ext is None else ext[:, 0],
            external_ay=None if ext is None else ext[:, 1],
            external_az=None if ext is None else ext[:, 2],
        )
        dt = local_timestep(
            particles,
            nlist,
            control=control,
            previous_dt=previous_dt,
            box_size=box_size,
        )
        trajectory.append(_snapshot(particles))
        update_quantities(
            particles,
            dt,
            nlist=nlist,
            config=integration,
            box_size=box_size,
        )
        previous_dt = dt
    return trajectory


def _assert_trajectories_match(cached, reference):
    assert len(cached) == len(reference)
    for step, (got, want) in enumerate(zip(cached, reference)):
        for field in TRACKED_FIELDS:
            assert np.array_equal(got[field], want[field]), (
                f"step {step}: {field} differs bit-for-bit"
            )


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("skin", [0.0, 0.1])
    def test_sedov(self, skin):
        cfg = SedovConfig(nside=10, seed=5)
        cached, _ = _run_cached(
            make_sedov(cfg), make_sedov_eos(cfg), cfg.box_size,
            steps=3, skin=skin,
        )
        reference = _run_uncached(
            make_sedov(cfg), make_sedov_eos(cfg), cfg.box_size, steps=3
        )
        _assert_trajectories_match(cached, reference)

    @pytest.mark.parametrize("skin", [0.0, 0.1])
    def test_subsonic_turbulence(self, skin):
        cfg = TurbulenceConfig(nside=8, mach_rms=0.3, seed=42)
        cached, _ = _run_cached(
            make_turbulence(cfg),
            make_turbulence_eos(cfg),
            cfg.box_size,
            steps=3,
            skin=skin,
            driver=TurbulenceDriver(cfg, amplitude=0.4),
        )
        reference = _run_uncached(
            make_turbulence(cfg),
            make_turbulence_eos(cfg),
            cfg.box_size,
            steps=3,
            driver=TurbulenceDriver(cfg, amplitude=0.4),
        )
        _assert_trajectories_match(cached, reference)


class TestVerletReuse:
    def _problem(self, skin=0.5):
        cfg = SedovConfig(nside=8, seed=5)
        return NumericProblem(
            particles=make_sedov(cfg),
            n_ranks=1,
            eos=make_sedov_eos(cfg),
            box_size=cfg.box_size,
            skin=skin,
        )

    def test_static_particles_reuse_wide_list(self):
        problem = self._problem()
        problem.find_neighbors()
        assert (problem.neighbor_rebuilds, problem.neighbor_reuses) == (1, 0)
        problem.find_neighbors()
        problem.find_neighbors()
        assert (problem.neighbor_rebuilds, problem.neighbor_reuses) == (1, 2)

    def test_large_displacement_forces_rebuild(self):
        problem = self._problem()
        problem.find_neighbors()
        # Move one particle much farther than the skin budget allows.
        p = problem.particles
        p.x[0] = (p.x[0] + 10.0 * p.h[0]) % problem.box_size
        problem.find_neighbors()
        assert problem.neighbor_rebuilds == 2
        assert problem.neighbor_reuses == 0

    def test_smoothing_length_growth_forces_rebuild(self):
        problem = self._problem()
        problem.find_neighbors()
        problem.particles.h *= 1.5
        problem.find_neighbors()
        assert problem.neighbor_rebuilds == 2

    def test_masked_list_matches_fresh_search(self):
        """The wide list masked to true support = a fresh 2h search,
        row for row, also with strongly adaptive ``h`` (Evrard)."""
        evrard = NumericProblem(
            particles=make_evrard(EvrardConfig(n_particles=1000, seed=7)),
            n_ranks=1,
            skin=0.3,
        )
        for problem in (self._problem(skin=0.3), evrard):
            problem.find_neighbors()
            # Drift everything a little (inside the skin budget), reuse.
            rng = np.random.default_rng(3)
            p = problem.particles
            budget = 0.05 * float(np.min(p.h))
            for arr in (p.x, p.y, p.z):
                arr += rng.uniform(-budget, budget, p.n)
                if problem.box_size is not None:
                    arr %= problem.box_size
            problem.find_neighbors()
            assert problem.neighbor_reuses == 1
            fresh = find_neighbors(
                p, support_radius=2.0, box_size=problem.box_size
            )
            masked = problem.nlist
            assert np.array_equal(masked.offsets, fresh.offsets)
            assert np.array_equal(masked.neighbors, fresh.neighbors)


class TestSymmetricPairsRegression:
    def _asymmetric_particles(self, n=300, seed=9):
        rng = np.random.default_rng(seed)
        p = ParticleSet.zeros(n)
        p.x[:] = rng.random(n)
        p.y[:] = rng.random(n)
        p.z[:] = rng.random(n)
        p.m[:] = 1.0 / n
        # Strongly asymmetric smoothing lengths: many pairs where j is
        # inside 2 h_i but i is outside 2 h_j.
        p.h[:] = 0.06 * (1.0 + 2.0 * rng.random(n))
        p.u[:] = 1.0
        return p

    def test_matches_bruteforce_closure(self):
        p = self._asymmetric_particles()
        nlist = find_neighbors(p, support_radius=2.0, box_size=1.0)
        directed = {
            (i, j) for i in range(nlist.n) for j in nlist.of(i)
        }
        # The asymmetry must actually be exercised.
        asymmetric = {(i, j) for (i, j) in directed if (j, i) not in directed}
        assert asymmetric
        closure = directed | {(j, i) for (i, j) in directed}
        i_idx, j_idx = symmetric_pairs(nlist)
        got = set(zip(i_idx.tolist(), j_idx.tolist()))
        assert got == closure
        assert len(i_idx) == len(closure)  # no duplicates introduced

    def test_member_mask_no_overflow_on_huge_indices(self):
        """Indices above 2^31 take the lexsort path and must not wrap
        (the historical ``i * n + j`` key encoding overflowed here)."""
        big = 1 << 62
        i_idx = np.array([big, big, 5, big - 3], dtype=np.int64)
        j_idx = np.array([big - 1, 7, big, 5], dtype=np.int64)
        pair_set = set(zip(i_idx.tolist(), j_idx.tolist()))
        expected = np.array(
            [(j, i) in pair_set for i, j in zip(i_idx, j_idx)]
        )
        got = ~mirror_missing(i_idx, j_idx)
        assert np.array_equal(got, expected)

    def test_member_mask_paths_agree(self):
        """Packed-key fast path and lexsort fallback give identical
        answers on the same (shifted) pair set."""
        rng = np.random.default_rng(1)
        m = 500
        i_idx = rng.integers(0, 40, m).astype(np.int64)
        j_idx = rng.integers(0, 40, m).astype(np.int64)
        qi = rng.integers(0, 40, m).astype(np.int64)
        qj = rng.integers(0, 40, m).astype(np.int64)
        fast = pairs_member_mask(i_idx, j_idx, qi, qj)
        shift = np.int64(1) << 33  # push everything past the 31-bit cap
        slow = pairs_member_mask(
            i_idx + shift, j_idx + shift, qi + shift, qj + shift
        )
        assert np.array_equal(fast, slow)

    def test_member_mask_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        some = np.array([1, 2], dtype=np.int64)
        assert pairs_member_mask(empty, empty, some, some).tolist() == [
            False,
            False,
        ]
        assert pairs_member_mask(some, some, empty, empty).size == 0
