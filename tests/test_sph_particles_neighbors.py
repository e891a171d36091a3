"""ParticleSet container and neighbor search."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sph import (
    ParticleSet,
    find_neighbors,
    find_neighbors_bruteforce,
    pair_displacements,
)
from repro.sph.init import TurbulenceConfig, make_turbulence


def _random_particles(n=50, seed=0, box=None, h=0.2):
    rng = np.random.default_rng(seed)
    scale = box if box else 1.0
    pos = rng.uniform(0, scale, size=(n, 3))
    return ParticleSet(
        x=pos[:, 0], y=pos[:, 1], z=pos[:, 2],
        vx=np.zeros(n), vy=np.zeros(n), vz=np.zeros(n),
        m=np.full(n, 1.0 / max(n, 1)), h=np.full(n, h * scale),
        u=np.full(n, 1.0),
    )


def _assert_same_lists(fast, slow):
    """Same CSR structure, row by row, each row ascending in ``j``."""
    assert np.array_equal(fast.offsets, slow.offsets)
    assert np.array_equal(fast.neighbors, slow.neighbors)


def test_particleset_validates_shapes():
    with pytest.raises(ValueError):
        ParticleSet(
            x=np.zeros(3), y=np.zeros(2), z=np.zeros(3),
            vx=np.zeros(3), vy=np.zeros(3), vz=np.zeros(3),
            m=np.zeros(3), h=np.zeros(3), u=np.zeros(3),
        )


def test_ensure_derived_allocates_zeros():
    p = ParticleSet.zeros(5)
    assert p.rho is None
    p.ensure_derived()
    assert p.rho.shape == (5,)
    assert p.c33.shape == (5,)


def test_select_and_concatenate_roundtrip():
    p = _random_particles(20)
    first = p.select(np.arange(10))
    second = p.select(np.arange(10, 20))
    merged = ParticleSet.concatenate([first, second])
    assert merged.n == 20
    assert np.allclose(merged.x, p.x)


def test_conserved_helpers():
    p = _random_particles(10)
    p.vx[:] = 1.0
    assert p.total_mass() == pytest.approx(1.0)
    assert p.kinetic_energy() == pytest.approx(0.5)
    assert p.momentum()[0] == pytest.approx(1.0)
    assert p.internal_energy() == pytest.approx(1.0)


def test_neighbors_match_bruteforce_open_box():
    p = _random_particles(60, seed=3)
    fast = find_neighbors(p)
    slow = find_neighbors_bruteforce(p)
    assert np.array_equal(fast.offsets, slow.offsets)
    for i in range(p.n):
        assert set(fast.of(i)) == set(slow.of(i))


def test_neighbors_match_bruteforce_periodic():
    p = _random_particles(50, seed=4, box=1.0)
    p.h[:] = 0.15
    fast = find_neighbors(p, box_size=1.0)
    slow = find_neighbors_bruteforce(p, box_size=1.0)
    for i in range(p.n):
        assert set(fast.of(i)) == set(slow.of(i))


def test_neighbors_match_bruteforce_small_periodic_box():
    # h comparable to the box: the support wraps around more than once
    # along some rows.
    p = _random_particles(40, seed=3, box=1.0, h=0.3)
    _assert_same_lists(
        find_neighbors(p, box_size=1.0),
        find_neighbors_bruteforce(p, box_size=1.0),
    )


def test_neighbors_match_bruteforce_variable_h():
    p = _random_particles(80, seed=4, h=0.1)
    p.h = np.random.default_rng(5).uniform(0.05, 0.15, size=p.n)
    _assert_same_lists(find_neighbors(p), find_neighbors_bruteforce(p))


def test_neighbors_match_bruteforce_turbulence_ic():
    p = make_turbulence(TurbulenceConfig(nside=8, seed=9))
    _assert_same_lists(
        find_neighbors(p, box_size=1.0),
        find_neighbors_bruteforce(p, box_size=1.0),
    )


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=20, deadline=None)
def test_property_agreement_with_bruteforce(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    p = _random_particles(n, seed=seed + 1000, h=float(rng.uniform(0.05, 0.35)))
    if rng.integers(0, 2):
        p.h *= rng.uniform(0.5, 1.5, size=n)
    box = 1.0 if rng.integers(0, 2) else None
    _assert_same_lists(
        find_neighbors(p, box_size=box),
        find_neighbors_bruteforce(p, box_size=box),
    )


def test_empty_and_single_particle_sets():
    for n in (0, 1):
        p = _random_particles(n, seed=6)
        for box in (None, 1.0):
            nlist = find_neighbors(p, box_size=box)
            assert nlist.n == n
            assert nlist.total_pairs == 0
            assert nlist.offsets.tolist() == [0] * (n + 1)
            assert nlist.neighbors.dtype == np.int64


def test_too_many_particles_for_packed_pair_keys_rejected():
    # Checked before any array is touched, so a stand-in size suffices.
    with pytest.raises(ValueError, match="overflow"):
        find_neighbors(SimpleNamespace(n=1 << 31))


def test_self_excluded_from_neighbors():
    p = _random_particles(30, seed=5)
    nlist = find_neighbors(p)
    for i in range(p.n):
        assert i not in nlist.of(i)


def test_periodic_wrapping_finds_cross_boundary_pairs():
    n = 2
    p = ParticleSet(
        x=np.array([0.01, 0.99]), y=np.array([0.5, 0.5]),
        z=np.array([0.5, 0.5]),
        vx=np.zeros(n), vy=np.zeros(n), vz=np.zeros(n),
        m=np.ones(n), h=np.full(n, 0.05), u=np.ones(n),
    )
    nlist = find_neighbors(p, box_size=1.0)
    assert 1 in nlist.of(0)
    open_list = find_neighbors(p)
    assert 1 not in open_list.of(0)


def test_positions_outside_periodic_box_rejected():
    p = _random_particles(5)
    p.x[0] = 1.5
    with pytest.raises(ValueError):
        find_neighbors(p, box_size=1.0)


def test_neighbor_counts_and_stats():
    p = make_turbulence(TurbulenceConfig(nside=8, seed=2))
    nlist = find_neighbors(p, box_size=1.0)
    counts = nlist.counts()
    assert counts.sum() == nlist.total_pairs
    assert nlist.mean_count() == pytest.approx(counts.mean())
    # Target ~100 neighbors in a near-uniform box.
    assert 50 < nlist.mean_count() < 200


def test_pair_displacements_minimum_image():
    p = ParticleSet(
        x=np.array([0.02, 0.98]), y=np.array([0.5, 0.5]),
        z=np.array([0.5, 0.5]),
        vx=np.zeros(2), vy=np.zeros(2), vz=np.zeros(2),
        m=np.ones(2), h=np.full(2, 0.05), u=np.ones(2),
    )
    nlist = find_neighbors(p, box_size=1.0)
    dx, dy, dz, r, i_idx, j_idx = pair_displacements(p, nlist, box_size=1.0)
    assert np.all(r < 0.1)  # wrapped distance, not 0.96
    assert np.all(np.abs(dx) < 0.1)
