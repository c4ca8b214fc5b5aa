import numpy as np
import pytest

import impulsegames as ig

from _oracles import best_single_shot_value


def test_augment_state_count():
    base = ig.random_game(3, 1, 1, seed=0)
    aug = ig.augment(base, 2, 1)
    assert aug.game.num_states == 3 * 3 * 2
    assert len(aug.labels) == 18
    assert aug.labels[aug.index(2, 1, 0)] == (2, 1, 0)


def test_augment_zero_budgets_is_uncontrolled(g1):
    aug = ig.augment(g1, 0, 0)
    assert not aug.game.mask1[:, 1:].any()
    assert not aug.game.mask2[:, 1:].any()
    rep = ig.solve(aug.game, tol=1e-12)
    assert rep.value[0] == pytest.approx(2.0, abs=1e-9)  # 1 / (1 - 0.5)


def test_augmented_game_validates(g1):
    aug = ig.augment(g1, 2, 3)
    assert ig.validate(aug.game) == []


def test_budgeted_g2_hand_values(g2):
    aug = ig.AugmentedGame(g2, 2, 0)
    rep = ig.solve(g2, tol=1e-10, caps=aug.caps)
    grid = aug.value_grid(rep.value)
    assert grid[0, 0, 0] == pytest.approx(2.0, abs=1e-9)
    assert grid[0, 1, 0] == pytest.approx(2.5, abs=1e-9)
    assert grid[0, 2, 0] == pytest.approx(2.75, abs=1e-9)
    # acts while budget remains, idles at zero
    assert rep.policy.p1_acts[aug.index(0, 2, 0)]
    assert rep.policy.p1_acts[aug.index(0, 1, 0)]
    assert not rep.policy.p1_acts[aug.index(0, 0, 0)]


def test_budget_monotonicity_random_games():
    for k in range(4):
        base = ig.random_game(3, 1, 1, seed=800 + k)
        aug = ig.AugmentedGame(base, 2, 2)
        rep = ig.solve(base, tol=1e-9, caps=aug.caps)
        grid = aug.value_grid(rep.value)
        assert (np.diff(grid, axis=1) >= -1e-8).all()  # more own budget helps P1
        assert (np.diff(grid, axis=2) <= 1e-8).all()   # more opponent budget hurts P1


def test_large_budget_matches_unconstrained(g1, g2, g3):
    for game in (g1, g2, g3):
        free = ig.solve(game, tol=1e-10).value
        rep = ig.solve(game, tol=1e-10, caps=(40, 40))
        grid = ig.AugmentedGame(game, 40, 40).value_grid(rep.value)
        assert abs(grid[0, 40, 40] - free[0]) <= 1e-6


def test_one_shot_budget_matches_enumeration_oracle():
    for k in range(3):
        base = ig.random_game(3, 1, 0, seed=900 + k)
        rep = ig.solve(base, tol=1e-11, caps=(1, 0))
        grid = ig.AugmentedGame(base, 1, 0).value_grid(rep.value)
        oracle = best_single_shot_value(base)
        assert np.abs(grid[:, 1, 0] - oracle).max() <= 1e-8


def _full(aug, s=0):
    """The flat index of base state ``s`` with both counters full."""
    return aug.index(s, aug.n1, aug.n2)


def test_simulate_budgeted_spends_frontloaded_budget(g2):
    aug = ig.AugmentedGame(g2, 2, 0)
    rep = ig.solve(g2, tol=1e-10, caps=aug.caps)
    traj = ig.simulate(g2, rep.policy, 100, seed=0, start=_full(aug), caps=aug.caps)
    assert np.flatnonzero(traj.actions1).tolist() == [0, 1]


def test_simulate_budgeted_zero_budgets_never_acts():
    base = ig.random_game(3, 2, 2, seed=5)
    rep = ig.solve(base, tol=1e-9, caps=(0, 0))
    traj = ig.simulate(base, rep.policy, 200, seed=3, caps=(0, 0))
    assert not traj.actions1.any() and not traj.actions2.any()


def test_simulate_budgeted_deterministic():
    base = ig.random_game(3, 1, 1, seed=6)
    aug = ig.AugmentedGame(base, 1, 1)
    rep = ig.solve(base, tol=1e-9, caps=aug.caps)
    t1, t2 = (ig.simulate(base, rep.policy, 50, seed=9, start=_full(aug), caps=aug.caps)
              for _ in range(2))
    assert np.array_equal(t1.states, t2.states)


def test_feasibility_over_many_trajectories():
    rng = np.random.default_rng(0)
    for k in range(3):
        base = ig.random_game(2, 1, 1, seed=1000 + k)
        aug = ig.AugmentedGame(base, int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        rep = ig.solve(base, tol=1e-8, caps=aug.caps)
        for seed in range(50):
            traj = ig.simulate(base, rep.policy, 40, seed=seed, start=_full(aug),
                               caps=aug.caps)
            assert np.count_nonzero(traj.actions1) <= aug.n1
            assert np.count_nonzero(traj.actions2) <= aug.n2


def test_masked_action_is_hard_fault(g2):
    aug = ig.AugmentedGame(g2, 1, 0)
    bad = ig.EquilibriumPolicy(
        p1_acts=np.ones(aug.num_states, dtype=bool),
        p1_action=np.ones(aug.num_states, dtype=int),
        p2_acts=np.zeros(aug.num_states, dtype=bool),
        p2_action=np.zeros(aug.num_states, dtype=int),
    )
    with pytest.raises(RuntimeError, match="masked"):
        ig.simulate(g2, bad, 10, seed=0, start=_full(aug), caps=aug.caps)


def test_budgeted_qlearning_converges_small():
    base = ig.random_game(2, 1, 1, seed=14, gamma=0.8)
    aug = ig.augment(base, 2, 1)
    rep = ig.solve(base, tol=1e-10, caps=aug.caps)
    assert aug.game.num_states <= 20
    tol = 0.05 * (1 + np.abs(rep.q).max())
    for seed in range(3):
        q, diag = ig.learn(aug.game,
                           ig.LearnConfig(steps=200_000, seed=seed, episode_len=20),
                           reference_q=rep.q)
        seen = diag.visits > 0
        assert np.abs(q[seen] - rep.q[seen]).max() <= tol


def _masked(game, seed):
    rng = np.random.default_rng(seed)
    mask1 = rng.random(game.cost1.shape) < 0.6
    mask2 = rng.random(game.cost2.shape) < 0.6
    mask1[:, 0] = mask2[:, 0] = True
    return ig.ImpulseGame(kernel=game.kernel, reward=game.reward, cost1=game.cost1,
                          cost2=game.cost2, cost_floor=game.cost_floor,
                          discount=game.discount, mask1=mask1, mask2=mask2)


@pytest.mark.parametrize("caps", [(0, 0), (2, 3), (3, 1), (0, 2)])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("seed,ns,na,nb", [(0, 4, 2, 2), (1, 5, 0, 2), (2, 5, 3, 0),
                                           (3, 6, 1, 1)])
def test_factored_budget_matches_dense_augmentation(seed, ns, na, nb, masked, caps):
    base = ig.random_game(ns, na, nb, seed=1100 + seed)
    if masked:
        base = _masked(base, seed)
    aug = ig.augment(base, *caps)
    rep = ig.solve(base, tol=1e-10, caps=caps)
    dense = ig.solve(aug.game, tol=1e-10)
    assert rep.sweeps == dense.sweeps
    assert np.abs(rep.value - dense.value).max() <= 1e-12
    assert rep.q.shape == dense.q.shape
    assert np.abs(rep.q - dense.q).max() <= 1e-12
    assert np.abs(rep.q - ig.q_from_value(aug.game, rep.value)).max() <= 1e-12
    for field in ("p1_acts", "p1_action", "p2_acts", "p2_action"):
        np.testing.assert_array_equal(getattr(rep.policy, field),
                                      getattr(dense.policy, field))
    start = aug.index(seed % ns, *caps)
    run = ig.simulate(base, rep.policy, 300, seed=seed, start=start, caps=caps)
    ref = ig.simulate(aug.game, dense.policy, 300, seed=seed, start=start)
    for field in ("states", "actions1", "actions2", "rewards"):
        np.testing.assert_array_equal(getattr(run, field), getattr(ref, field))


def test_budgeted_paths_never_build_the_dense_model():
    base = ig.random_game(5, 2, 2, seed=3)
    aug = ig.AugmentedGame(base, 3, 2)
    rep = ig.solve(base, tol=1e-9, caps=aug.caps)
    aug.index(4, 3, 2), aug.labels, aug.value_grid(rep.value), aug.num_states
    ig.simulate(base, rep.policy, 50, seed=0, start=_full(aug, 4), caps=aug.caps)
    assert "game" not in vars(aug)
    assert aug.num_states == aug.game.num_states == len(aug.labels) == 5 * 4 * 3


def test_oversized_caps_refused_before_any_work():
    base = ig.random_game(3, 1, 1, seed=0)
    for caps, match in [((10**9, 10**9), "above the limit"), ((-1, 0), "nonnegative")]:
        with pytest.raises(ValueError, match=match):
            ig.AugmentedGame(base, *caps)
        with pytest.raises(ValueError, match=match):
            ig.solve(base, caps=caps)


def test_dense_reference_refuses_an_oversized_kernel_before_building_it():
    aug = ig.augment(ig.random_game(20, 2, 2, seed=0), 20, 20)  # 8,820 augmented states
    with pytest.raises(ValueError, match="above the limit"):
        aug.game
    assert "game" not in vars(aug)
