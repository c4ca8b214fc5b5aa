import math

import numpy as np
import pytest

import impulsegames as ig
from impulsegames import solver

from _oracles import loop_chain, loop_operator, mrp_value, single_agent_impulse_vi
from conftest import micro_game


def test_max_intervention_micro_values(g1):
    assert ig.max_intervention(g1, [0.0], 0) == (1.5, 1)
    value, action = ig.max_intervention(g1, [0.6], 0)
    assert abs(value - 1.8) < 1e-12 and action == 1


def test_min_intervention_micro_values(g1):
    assert ig.min_intervention(g1, [0.0], 0) == (0.3, 1)
    value, action = ig.min_intervention(g1, [0.6], 0)
    assert abs(value - 0.6) < 1e-12 and action == 1


def test_intervention_sentinels():
    game = ig.random_game(2, 0, 1, seed=1)
    assert ig.max_intervention(game, [0.0, 0.0], 0) == (-math.inf, None)
    game = ig.random_game(2, 1, 0, seed=1)
    assert ig.min_intervention(game, [0.0, 0.0], 0) == (math.inf, None)


def test_intervention_argmax_tie_breaks_low():
    # two identical Player-1 actions: the lower index must win
    kernel = np.ones((1, 3, 1, 1))
    reward = np.zeros((1, 3, 1))
    reward[0, 1, 0] = reward[0, 2, 0] = 1.0
    game = ig.ImpulseGame(kernel=kernel, reward=reward,
                          cost1=np.array([[0.0, 0.2, 0.2]]), cost2=np.zeros((1, 1)),
                          cost_floor=0.1, discount=0.5)
    assert ig.max_intervention(game, [0.0], 0).action == 1


def test_bellman_micro_values(g1):
    assert np.allclose(ig.bellman(g1, [0.0]), [0.3])
    assert np.allclose(ig.bellman(g1, [0.6]), [0.6])


def test_solve_micro_games(g1, g2, g3):
    for game, expected in [(g1, 0.6), (g2, 3.0), (g3, 2.0)]:
        rep = ig.solve(game, tol=1e-9)
        assert rep.converged
        assert abs(rep.value[0] - expected) <= 1e-9
        assert rep.residual <= 1e-9 * (1 - 0.5) / 0.5


def test_solve_policies(g1, g2, g3):
    rep1 = ig.solve(g1, tol=1e-10)
    assert rep1.policy.p2_acts[0] and rep1.policy.p2_action[0] == 1
    assert rep1.policy.executed_pair(0) == (0, 1)  # precedence blocks Player 1
    rep2 = ig.solve(g2, tol=1e-10)
    assert rep2.policy.p1_acts[0] and not rep2.policy.p2_acts[0]
    assert rep2.policy.executed_pair(0) == (1, 0)
    rep3 = ig.solve(g3, tol=1e-10)
    assert not rep3.policy.p1_acts[0] and not rep3.policy.p2_acts[0]


def test_solve_max_sweeps_flags_nonconverged(g1):
    rep = ig.solve(g1, tol=1e-12, max_sweeps=3)
    assert not rep.converged
    assert rep.sweeps == 3


def test_q_fixed_point_identity(g1):
    rep = ig.solve(g1, tol=1e-12)
    expected = g1.reward + g1.discount * ig.expected_next_values(g1, rep.value)
    assert np.allclose(rep.q, expected, atol=0)


def test_contraction_on_random_games():
    rng = np.random.default_rng(0)
    for k in range(25):
        gamma = [0.5, 0.9, 0.99][k % 3]
        game = ig.random_game(int(rng.integers(1, 8)), int(rng.integers(0, 3)),
                              int(rng.integers(0, 3)), seed=100 + k, gamma=gamma)
        for _ in range(4):
            v = rng.uniform(-10, 10, game.num_states)
            w = rng.uniform(-10, 10, game.num_states)
            lhs = np.abs(ig.bellman(game, v) - ig.bellman(game, w)).max()
            assert lhs <= gamma * np.abs(v - w).max() + 1e-12


def test_monotonicity_of_operator():
    rng = np.random.default_rng(1)
    for k in range(10):
        game = ig.random_game(5, 2, 2, seed=200 + k)
        v = rng.uniform(-5, 5, 5)
        w = v + rng.uniform(0, 3, 5)
        assert (ig.bellman(game, v) <= ig.bellman(game, w) + 1e-12).all()


def test_two_init_fixed_point_agreement():
    for k in range(5):
        game = ig.random_game(6, 2, 2, seed=300 + k)
        tol = 1e-9
        a = ig.solve(game, tol=tol).value
        b = ig.solve(game, tol=tol, v0=np.full(6, 100.0)).value
        assert np.abs(a - b).max() <= 2 * tol


def test_cost_monotonicity_one_step(g1):
    # raising Player 1's cost weakly lowers its intervention value,
    # raising Player 2's weakly raises its (a min over costlier terms)
    v = [0.4]
    base1 = ig.max_intervention(g1, v, 0).value
    base2 = ig.min_intervention(g1, v, 0).value
    costlier = micro_game(0.9, 0.7)
    assert ig.max_intervention(costlier, v, 0).value <= base1 + 1e-15
    assert ig.min_intervention(costlier, v, 0).value >= base2 - 1e-15


def test_single_agent_reduction_matches_independent_oracle():
    for k in range(4):
        game = ig.random_game(4, 2, 0, seed=400 + k)
        rep = ig.solve(game, tol=1e-12)
        oracle = single_agent_impulse_vi(game)
        assert np.abs(rep.value - oracle).max() <= 1e-10


def test_evaluate_policies_geometric_series(g1, g2):
    assert np.allclose(ig.evaluate_policies(g2, [1], [0]), [3.0])
    assert np.allclose(ig.evaluate_policies(g1, [0], [1]), [0.6])


def test_evaluate_policies_null_pair_is_mrp():
    game = ig.random_game(5, 2, 2, seed=17)
    v = ig.evaluate_policies(game, np.zeros(5, int), np.zeros(5, int))
    expected = mrp_value(game.kernel[:, 0, 0, :], game.reward[:, 0, 0], game.discount)
    assert np.allclose(v, expected, atol=1e-12)


def test_evaluate_policies_precedence_masks_player1(g1):
    # Player 1 "always act" is suppressed wherever Player 2 acts
    joint = ig.evaluate_policies(g1, [1], [1])
    only2 = ig.evaluate_policies(g1, [0], [1])
    assert np.allclose(joint, only2)


def test_minimax_oracle_micro(g1, g3):
    rep = ig.minimax_oracle(g1)
    assert rep.certified
    assert np.allclose(rep.upper, [0.6]) and np.allclose(rep.lower, [0.6])
    rep3 = ig.minimax_oracle(g3)
    assert rep3.certified and np.allclose(rep3.upper, [2.0])


def test_minimax_oracle_random_game_certifies():
    game = ig.random_game(3, 1, 1, seed=11)
    rep = ig.minimax_oracle(game)
    assert rep.certified


def test_minimax_oracle_declines_over_budget():
    game = ig.random_game(6, 2, 2, seed=0)
    with pytest.raises(ig.EnumerationBudgetError):
        ig.minimax_oracle(game, max_enumeration=10)


def test_intervention_times(g1, g2, g3):
    pol2 = ig.solve(g2, tol=1e-10).policy
    assert ig.intervention_times(g2, pol2, [0, 0, 0]) == ([0, 1, 2], [])
    pol3 = ig.solve(g3, tol=1e-10).policy
    assert ig.intervention_times(g3, pol3, [0, 0]) == ([], [])
    pol1 = ig.solve(g1, tol=1e-10).policy
    assert ig.intervention_times(g1, pol1, [0]) == ([], [0])


def test_report_error_bound_formula(g1):
    rep = ig.solve(g1, tol=1e-6)
    assert rep.error_bound == pytest.approx(
        g1.discount * rep.residual / (1 - g1.discount))


def test_gamma_zero_one_shot_game():
    game = micro_game(0.5, 0.3, gamma=0.0)
    rep = ig.solve(game, tol=1e-12)
    # one-shot: min(max(1.5, 1.0), 0.3) = 0.3
    assert rep.value[0] == pytest.approx(0.3, abs=1e-12)


def test_region_size_cost_trend_report():
    # reported, not asserted: how equilibrium intervention regions respond
    # to a global cost scale (the literal one-step monotonicity is asserted
    # separately above)
    rows = []
    for k in range(6):
        base = ig.random_game(6, 2, 2, seed=1100 + k)
        sizes = []
        for scale in (1.0, 3.0, 9.0):
            game = ig.ImpulseGame(
                kernel=base.kernel, reward=base.reward,
                cost1=base.cost1 * scale, cost2=base.cost2 * scale,
                cost_floor=base.cost_floor, discount=base.discount)
            rep = ig.solve(game, tol=1e-9)
            sizes.append(int(rep.policy.region1.size + rep.policy.region2.size))
        rows.append(sizes)
    print("\nintervention-region sizes at cost scales 1x/3x/9x:", rows)
    assert len(rows) == 6


def test_simulate_is_seed_deterministic(g2):
    rep = ig.solve(g2, tol=1e-10)
    t1 = ig.simulate(g2, rep.policy, 50, seed=5)
    t2 = ig.simulate(g2, rep.policy, 50, seed=5)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.rewards, t2.rewards)


def test_simulate_discounted_return_matches_partial_sum(g2):
    rep = ig.solve(g2, tol=1e-10)
    traj = ig.simulate(g2, rep.policy, 10, seed=0)
    expected = sum(0.5 ** t * 1.5 for t in range(10))
    assert traj.discounted_return == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(2.9971, abs=5e-4)


def _cross_game(seed, ns, na, nb, masked):
    """A random game; ``masked`` drops some costly actions at random, all of
    Player 1's at state 0 and all of Player 2's at state 1."""
    game = ig.random_game(ns, na, nb, seed=seed)
    if not masked:
        return game
    rng = np.random.default_rng(seed)
    mask1 = rng.random(game.mask1.shape) < 0.6
    mask2 = rng.random(game.mask2.shape) < 0.6
    mask1[:, 0] = mask2[:, 0] = True
    mask1[0, 1:] = mask2[1, 1:] = False
    return ig.ImpulseGame(kernel=game.kernel, reward=game.reward, cost1=game.cost1,
                          cost2=game.cost2, cost_floor=game.cost_floor,
                          discount=game.discount, mask1=mask1, mask2=mask2)


CROSS_GAMES = [(5, 2, 2, False), (6, 0, 3, False), (6, 3, 0, False), (4, 0, 0, False),
               (5, 2, 2, True), (7, 1, 3, True), (6, 3, 1, True), (5, 0, 2, True)]


@pytest.mark.parametrize("caps", [None, (2, 1), (0, 3)])
@pytest.mark.parametrize("k,shape", list(enumerate(CROSS_GAMES)))
def test_operator_matches_per_state_loop(k, shape, caps):
    game = _cross_game(1500 + k, *shape)
    size = game.num_states * (1 if caps is None else (caps[0] + 1) * (caps[1] + 1))
    rng = np.random.default_rng(k)
    fields = [rng.uniform(-5, 5, size) for _ in range(3)]
    fields.append(ig.solve(game, tol=1e-12, caps=caps).value)
    for v in fields:
        value, p1, a1, p2, a2 = loop_operator(game, v, caps)
        np.testing.assert_allclose(ig.bellman(game, v, caps=caps), value, rtol=0, atol=1e-12)
        pol = ig.extract_policy(game, v, caps=caps)
        assert pol.p1_acts.tolist() == p1.tolist() and pol.p2_acts.tolist() == p2.tolist()
        assert pol.p1_action.tolist() == a1.tolist() and pol.p2_action.tolist() == a2.tolist()


@pytest.mark.parametrize("k,shape", list(enumerate(CROSS_GAMES)))
def test_single_state_answers_match_all_states(k, shape):
    game = _cross_game(1600 + k, *shape)
    v = np.random.default_rng(k).uniform(-5, 5, game.num_states)
    t = solver.operator_terms(game, v)
    noop = ig.noop_continuation(game, v)
    np.testing.assert_allclose(noop, t.noop, rtol=0, atol=1e-12)
    for s in range(game.num_states):
        best1, best2 = ig.max_intervention(game, v, s), ig.min_intervention(game, v, s)
        assert (best1.action is not None) == bool(t.has1[s])
        assert (best2.action is not None) == bool(t.has2[s])
        if t.has1[s]:
            assert best1.action == t.act1[s] and abs(best1.value - t.m1[s]) <= 1e-12
        else:
            assert best1.value == -math.inf
        if t.has2[s]:
            assert best2.action == t.act2[s] and abs(best2.value - t.m2[s]) <= 1e-12
        else:
            assert best2.value == math.inf


@pytest.mark.parametrize("k,shape", list(enumerate(CROSS_GAMES)))
def test_policy_chains_match_per_state_loop(k, shape):
    game = _cross_game(1700 + k, *shape)
    rng = np.random.default_rng(k)
    for _ in range(5):
        pols = []
        for mask in (game.mask1, game.mask2):
            pols.append([int(rng.choice(np.flatnonzero(row))) for row in mask])
        p, r = loop_chain(game, *pols)
        np.testing.assert_allclose(ig.evaluate_policies(game, *pols),
                                   mrp_value(p, r, game.discount), rtol=0, atol=1e-10)
        pol = ig.EquilibriumPolicy(
            p1_acts=np.array(pols[0]) > 0, p1_action=np.array(pols[0]),
            p2_acts=np.array(pols[1]) > 0, p2_action=np.array(pols[1]))
        w = ig.stationary_distribution(game, pol).weights
        assert np.abs(w @ p - w).max() <= 1e-9


def test_evaluate_policies_refuses_masked_negative_and_out_of_range():
    game = _cross_game(1800, 4, 2, 3, True)  # Player 1 masked at state 0, Player 2 at 1
    null = [0] * 4

    def with_action(s, x):
        pol = list(null)
        pol[s] = x
        return pol

    with pytest.raises(ValueError, match="shape"):
        ig.evaluate_policies(game, [0], null)
    with pytest.raises(ValueError, match="masked action at state 0"):
        ig.evaluate_policies(game, with_action(0, 1), null)
    with pytest.raises(ValueError, match="masked action at state 1"):
        ig.evaluate_policies(game, null, with_action(1, 2))
    # a Player-1 action that Player 2 suppresses is not executed, masked or not
    assert game.mask2[0, 1]
    ig.evaluate_policies(game, with_action(0, 1), with_action(0, 1))
    for pol1, pol2 in [(with_action(2, -1), null), (null, with_action(2, -1)),
                       (with_action(2, 3), null), (null, with_action(2, 4)),
                       (with_action(2, 3), with_action(2, 1))]:
        with pytest.raises(IndexError, match="outside"):
            ig.evaluate_policies(game, pol1, pol2)
