"""The benchmark's reference operator agrees with the library's operator.

Run from the repository root:  python3 -m pytest -q bench/test_reference.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import impulsegames as ig  # noqa: E402
import reference  # noqa: E402

TOL = 1e-12


def masked_game(seed, ns, na, nb):
    """A seeded random game with some costly actions masked out."""
    base = ig.random_game(ns, na, nb, seed)
    rng = np.random.default_rng(seed + 1000)
    mask1 = rng.random((ns, na + 1)) < 0.7
    mask2 = rng.random((ns, nb + 1)) < 0.7
    mask1[:, 0] = mask2[:, 0] = True
    return ig.ImpulseGame(kernel=base.kernel, reward=base.reward, cost1=base.cost1,
                          cost2=base.cost2, cost_floor=base.cost_floor,
                          discount=base.discount, mask1=mask1, mask2=mask2)


GAMES = [(seed, ns, na, nb, masked)
         for seed, (ns, na, nb) in enumerate([(1, 1, 1), (5, 1, 1), (6, 2, 3), (9, 3, 0),
                                              (7, 0, 2), (12, 3, 3)])
         for masked in (False, True)]


def make(seed, ns, na, nb, masked):
    return masked_game(seed, ns, na, nb) if masked else ig.random_game(ns, na, nb, seed)


@pytest.mark.parametrize("seed,ns,na,nb,masked", GAMES)
def test_matches_bellman(seed, ns, na, nb, masked):
    game = make(seed, ns, na, nb, masked)
    rng = np.random.default_rng(seed)
    for v in (np.zeros(ns), rng.normal(scale=5.0, size=ns),
              ig.solve(game, tol=1e-10).value):
        np.testing.assert_allclose(reference.operator(game, v), ig.bellman(game, v),
                                   rtol=0, atol=TOL)


@pytest.mark.parametrize("seed,ns,na,nb,masked", GAMES)
@pytest.mark.parametrize("n1,n2", [(0, 0), (1, 2), (3, 1)])
def test_matches_augment_then_bellman(seed, ns, na, nb, masked, n1, n2):
    game = make(seed, ns, na, nb, masked)
    aug = ig.augment(game, n1, n2)
    rng = np.random.default_rng(seed)
    for v in (np.zeros(aug.num_states), rng.normal(scale=5.0, size=aug.num_states)):
        np.testing.assert_allclose(reference.operator(game, v, (n1, n2)),
                                   ig.bellman(aug.game, v), rtol=0, atol=TOL)


def test_certified_error_bounds_distance_to_fixed_point():
    game = ig.random_game(8, 2, 2, 3)
    exact = reference.fixed_point(game, tol=1e-13)
    for sweeps in (5, 20, 60):
        v = np.zeros(8)
        for _ in range(sweeps):
            v = reference.operator(game, v)
        assert np.abs(v - exact).max() <= reference.certified_error(game, v) + 1e-12


def test_decisions_match_extract_policy():
    game = masked_game(4, 10, 2, 2)
    v = ig.solve(game, tol=1e-12).value
    pol = ig.extract_policy(game, v)
    dec = reference.decisions(game, v)
    np.testing.assert_array_equal(dec.p1_acts, pol.p1_acts)
    np.testing.assert_array_equal(dec.p2_acts, pol.p2_acts)
    for s in range(game.num_states):
        assert (dec.executed_a[s], dec.executed_b[s]) == pol.executed_pair(s)
