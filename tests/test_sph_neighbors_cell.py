"""KD-tree neighbor search checked against brute force on uniform boxes."""

import numpy as np
import pytest

from repro.sph import ParticleSet, find_neighbors, find_neighbors_bruteforce


def _random_particles(n, seed, h, box=1.0):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, box, size=(n, 3))
    return ParticleSet(
        x=pos[:, 0], y=pos[:, 1], z=pos[:, 2],
        vx=np.zeros(n), vy=np.zeros(n), vz=np.zeros(n),
        m=np.full(n, 1.0 / n), h=np.full(n, h), u=np.ones(n),
    )


def _same(nl_a, nl_b):
    assert np.array_equal(nl_a.offsets, nl_b.offsets)
    assert np.array_equal(nl_a.neighbors, nl_b.neighbors)


def test_matches_kdtree_open_box():
    p = _random_particles(120, seed=1, h=0.12)
    _same(find_neighbors(p), find_neighbors_bruteforce(p))


def test_matches_kdtree_periodic():
    p = _random_particles(100, seed=2, h=0.09)
    _same(
        find_neighbors(p, box_size=1.0),
        find_neighbors_bruteforce(p, box_size=1.0),
    )


def test_out_of_box_positions_rejected():
    p = _random_particles(10, seed=6, h=0.1)
    p.x[0] = 1.5
    with pytest.raises(ValueError):
        find_neighbors(p, box_size=1.0)
    p.x[0] = -0.1
    with pytest.raises(ValueError):
        find_neighbors(p, box_size=1.0)
