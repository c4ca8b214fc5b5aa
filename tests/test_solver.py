import itertools
import math
import tracemalloc

import numpy as np
import pytest

import impulsegames as ig
from impulsegames import solver

from _oracles import (loop_chain, loop_intervention_times, loop_operator, loop_vi, mrp_value,
                      single_agent_impulse_vi)
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
    expected = g1.reward + g1.discount * (g1.kernel @ rep.value)
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


def test_evaluate_policies_refuses_actions_that_are_not_whole_numbers():
    game = ig.random_game(4, 1, 1, seed=0)
    for pol1, pol2 in [([0.7] * 4, [0] * 4), ([0] * 4, [0, 0, 0.5, 0]),
                       ([0, np.nan, 0, 0], [0] * 4), ([0] * 4, np.array([0.0, np.inf, 0, 0]))]:
        with pytest.raises(ValueError, match="integers"):
            ig.evaluate_policies(game, pol1, pol2)
    null = ig.evaluate_policies(game, [0] * 4, [0] * 4)
    assert np.array_equal(ig.evaluate_policies(game, np.zeros(4), [0.0] * 4), null)
    assert np.array_equal(ig.evaluate_policies(game, [1.0, 0, 1, 0], np.ones(4)),
                          ig.evaluate_policies(game, [1, 0, 1, 0], [1] * 4))


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


def test_intervention_times_refuses_non_integer_states():
    game = ig.random_game(3, 1, 1, seed=0)
    policy = ig.solve(game, tol=1e-10).policy
    for bad in ([0.7, 1.9, 2.2], [0, 0.5], [0.0, float("nan")], np.array([0.0, np.inf])):
        with pytest.raises(ValueError, match="integers"):
            ig.intervention_times(game, policy, bad)
    for ok in ([], np.array([], dtype=int), [2, 0, 1], np.arange(3), np.arange(3.0)):
        assert ig.intervention_times(game, policy, ok) == loop_intervention_times(game, policy, ok)


def _random_policy(n, na, nb, rng):
    return ig.EquilibriumPolicy(
        p1_acts=rng.random(n) < 0.5, p1_action=rng.integers(na, size=n),
        p2_acts=rng.random(n) < 0.3, p2_action=rng.integers(nb, size=n))


def test_intervention_times_match_loop_reference():
    game = ig.random_game(12, 2, 3, seed=4)
    rng = np.random.default_rng(5)
    for _ in range(20):
        policy = _random_policy(12, 3, 4, rng)
        traj = rng.integers(12, size=int(rng.integers(0, 200)))
        expected = loop_intervention_times(game, policy, traj)
        assert ig.intervention_times(game, policy, traj) == expected
        assert ig.intervention_times(game, policy, traj.tolist()) == expected
    duopoly = ig.build_duopoly_game(ig.DuopolyParams(grid_size=5))
    policy = ig.solve(duopoly, tol=1e-8).policy
    traj = ig.simulate(duopoly, policy, 500, seed=2).states[:-1]
    expected = loop_intervention_times(duopoly, policy, traj)
    assert expected[0] or expected[1]
    assert ig.intervention_times(duopoly, policy, traj) == expected


@pytest.mark.parametrize("bad", [12, -1, 40])
def test_intervention_times_name_the_first_state_out_of_range(bad):
    game = ig.random_game(12, 1, 1, seed=4)
    policy = _random_policy(12, 2, 2, np.random.default_rng(0))
    traj = [3, 7, bad, 0, 13, -2]
    with pytest.raises(IndexError) as ref:
        loop_intervention_times(game, policy, traj)
    with pytest.raises(IndexError, match=f"^trajectory state {bad} out of range$") as got:
        ig.intervention_times(game, policy, np.array(traj))
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("discount", [1.0, 1.5, -0.1, float("nan")])
def test_solve_refuses_a_discount_outside_the_unit_interval(discount):
    base = ig.random_game(3, 1, 1, seed=0)
    game = ig.ImpulseGame(kernel=base.kernel, reward=base.reward, cost1=base.cost1,
                          cost2=base.cost2, cost_floor=base.cost_floor, discount=discount)
    with pytest.raises(ValueError, match="discount must lie in"):
        ig.solve(game, max_sweeps=50)


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


def test_evaluate_policies_refuses_batched_policies():
    game = _cross_game(1810, 3, 2, 2, False)
    null = np.zeros(3, int)
    for pol1, pol2 in [(np.zeros((2, 3), int), null), (null, np.zeros((2, 3), int)),
                       (np.zeros((0, 3), int), null)]:
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            ig.evaluate_policies(game, pol1, pol2)


def _with_gamma(game, gamma):
    return ig.ImpulseGame(kernel=game.kernel, reward=game.reward, cost1=game.cost1,
                          cost2=game.cost2, cost_floor=game.cost_floor, discount=gamma,
                          mask1=game.mask1, mask2=game.mask2)


def _margins(game, v, caps):
    """Per state of ``v`` (flat like ``solve``'s), the smallest gap between
    values the greedy policy compares: acting against not acting, and each
    player's best action against its runner-up."""
    q = ig.q_from_value(game, v, caps)
    ny, nz = (1, 1) if caps is None else (caps[0] + 1, caps[1] + 1)
    x = np.arange(q.shape[0])
    s, y, z = x // (ny * nz), x // nz % ny, x % nz
    live1 = game.mask1[s, 1:] & ((y > 0) | (caps is None))[:, None]
    live2 = game.mask2[s, 1:] & ((z > 0) | (caps is None))[:, None]
    p1 = np.where(live1, q[:, 1:, 0] - game.cost1[s, 1:], -np.inf)
    p2 = np.where(live2, q[:, 0, 1:] + game.cost2[s, 1:], np.inf)
    noop = q[:, 0, 0]
    m1 = p1.max(axis=1, initial=-np.inf)
    m2 = p2.min(axis=1, initial=np.inf)
    gaps = [m1 - noop, m2 - np.maximum(m1, noop)]
    for side in (-np.sort(-p1, axis=1), np.sort(p2, axis=1)):
        if side.shape[1] > 1:
            with np.errstate(invalid="ignore"):  # two unavailable actions: inf - inf
                gaps.append(side[:, 0] - side[:, 1])
    return np.min([np.nan_to_num(np.abs(g), nan=np.inf) for g in gaps], axis=0)


SOLVE_GAMES = [(6, 2, 2), (5, 0, 2), (7, 3, 1)]


@pytest.mark.parametrize("caps", [None, (0, 0), (2, 3), (3, 1)])
@pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("masked", [False, True])
def test_solve_matches_plain_value_iteration(masked, gamma, caps):
    tol = 1e-9
    for k, shape in enumerate(SOLVE_GAMES):
        game = _with_gamma(_cross_game(2000 + k, *shape, masked), gamma)
        rep = ig.solve(game, tol=tol, caps=caps)
        size = len(rep.value)
        ref, ref_sweeps, _ = loop_vi(lambda v: ig.bellman(game, v, caps=caps),
                                     np.zeros(size), gamma, tol=tol)
        assert rep.converged
        assert np.abs(rep.value - ref).max() <= 2 * tol
        # the certificate: the reported value is one sweep past the iterate
        # whose residual is reported
        assert rep.residual <= tol * (1 - gamma) / gamma
        assert rep.error_bound == gamma * rep.residual / (1 - gamma)
        recomputed = np.abs(ig.bellman(game, rep.value, caps=caps) - rep.value).max()
        assert recomputed <= gamma * rep.residual + 1e-12
        if gamma == 0.99:
            assert rep.sweeps < ref_sweeps
        decided = _margins(game, ref, caps) > 1e-7
        expected = ig.extract_policy(game, ref, caps=caps)
        for field in ("p1_acts", "p1_action", "p2_acts", "p2_action"):
            np.testing.assert_array_equal(getattr(rep.policy, field)[decided],
                                          getattr(expected, field)[decided])


@pytest.mark.parametrize("caps", [None, (2, 3)])
def test_solve_above_the_state_limit_only_sweeps(monkeypatch, caps):
    for k, shape in enumerate(SOLVE_GAMES):
        game = _with_gamma(_cross_game(2100 + k, *shape, True), 0.9)
        monkeypatch.setattr(solver, "FINISH_MAX_STATES", game.num_states - 1)
        rep = ig.solve(game, tol=1e-9, caps=caps)
        ref, sweeps, residual = loop_vi(lambda v: ig.bellman(game, v, caps=caps),
                                        np.zeros(len(rep.value)), 0.9, tol=1e-9)
        assert rep.sweeps == sweeps
        assert rep.residual == residual
        np.testing.assert_array_equal(rep.value, ref)


def test_state_limit_counts_base_states_under_caps(monkeypatch):
    # each layered solve is S x S, however many counter layers the caps add
    for k, shape in enumerate(SOLVE_GAMES):
        game = _with_gamma(_cross_game(2100 + k, *shape, True), 0.99)
        monkeypatch.setattr(solver, "FINISH_MAX_STATES", game.num_states)
        rep = ig.solve(game, tol=1e-9, caps=(2, 3))
        assert len(rep.value) > solver.FINISH_MAX_STATES
        _, sweeps, _ = loop_vi(lambda v: ig.bellman(game, v, caps=(2, 3)),
                               np.zeros(len(rep.value)), 0.99, tol=1e-9)
        assert rep.converged and rep.sweeps < sweeps


def _deterministic_game(seed, ns, na, nb, gamma):
    """Every pair moves to one next state: greedy policy pairs of such games
    can be worth far less than the iterate they came from."""
    rng = np.random.default_rng(seed)
    kernel = np.zeros((ns, na, nb, ns))
    np.put_along_axis(kernel, rng.integers(ns, size=(ns, na, nb, 1)), 1.0, axis=3)
    cost1, cost2 = np.zeros((ns, na)), np.zeros((ns, nb))
    cost1[:, 1:] = rng.uniform(0.01, 0.02, (ns, na - 1))
    cost2[:, 1:] = rng.uniform(0.01, 0.02, (ns, nb - 1))
    return ig.ImpulseGame(kernel=kernel, reward=rng.uniform(-1, 1, (ns, na, nb)),
                          cost1=cost1, cost2=cost2, cost_floor=0.01, discount=gamma)


@pytest.mark.parametrize("kwargs,message", [
    ({"tol": float("nan")}, "tol must be positive"),
    ({"tol": 0.0}, "tol must be positive"),
    ({"max_sweeps": -1}, "max_sweeps must be non-negative"),
])
def test_solve_refuses_a_bad_tol_or_sweep_budget(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ig.solve(ig.random_game(3, 1, 1, 0), **kwargs)


@pytest.mark.parametrize("caps,entries,size", [(None, 5, 3), ((1, 1), 3, 12)])
def test_solve_refuses_a_v0_of_the_wrong_length(caps, entries, size):
    with pytest.raises(ValueError, match=f"v0 must hold {size} values"):
        ig.solve(ig.random_game(3, 1, 1, 0), v0=np.zeros(entries), caps=caps)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("caps,size", [(None, 3), ((1, 1), 12)])
def test_solve_refuses_a_v0_that_is_not_finite(caps, size, bad, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(solver, "bellman", no_sweep)
    v0 = np.zeros(size)
    v0[size // 2] = bad
    with pytest.raises(ValueError, match="v0 must be finite"):
        ig.solve(ig.random_game(3, 1, 1, 0), v0=v0, max_sweeps=50, caps=caps)


def test_finish_never_raises_the_residual(monkeypatch):
    # A finish whose residual is not below the iterate's is dropped, so the
    # sweeps inside `solve` keep contracting by gamma.
    residuals = []
    sweep = solver.bellman

    def recording(game, v, caps=None):
        nv = sweep(game, v, caps)
        residuals.append(float(np.abs(nv - v).max()))
        return nv

    monkeypatch.setattr(solver, "bellman", recording)
    for seed in range(12):
        gamma = (0.9, 0.99)[seed % 2]
        game = _deterministic_game(seed, 3 + seed % 3, 3, 3, gamma)
        residuals.clear()
        rep = ig.solve(game, tol=1e-9)
        for before, after in zip(residuals, residuals[1:]):
            assert after <= gamma * before + 1e-12
        ref, _, _ = loop_vi(lambda v: sweep(game, v), np.zeros(game.num_states), gamma)
        assert rep.converged and np.abs(rep.value - ref).max() <= 2e-9


@pytest.mark.parametrize("caps", [(0, 0), (2, 3), (3, 1), (0, 2)])
@pytest.mark.parametrize("k,shape", list(enumerate(CROSS_GAMES)))
def test_layered_policy_value_matches_dense_augmented_chain(monkeypatch, k, shape, caps):
    game = _cross_game(2200 + k, *shape)
    dense = ig.augment(game, *caps).game
    rng = np.random.default_rng(k)
    for _ in range(3):
        pol = ig.extract_policy(game, rng.uniform(-5, 5, dense.num_states), caps=caps)
        expected = ig.evaluate_policies(dense, pol.p1_action, pol.p2_action)
        for batch_bytes in (solver.CHAIN_BATCH_BYTES, 8 * game.num_states ** 2):
            # the default takes each diagonal at once, the second one layer at a time
            monkeypatch.setattr(solver, "CHAIN_BATCH_BYTES", batch_bytes)
            np.testing.assert_allclose(solver._policy_values(game, pol, caps), expected,
                                       rtol=0, atol=1e-10)
        monkeypatch.undo()


def _per_pair_oracle(game):
    """Upper and lower values from one ``evaluate_policies`` call per pair."""
    allowed = [[[x for x in range(mask.shape[1]) if x == 0 or mask[s, x]]
                for s in range(game.num_states)] for mask in (game.mask1, game.mask2)]
    values = np.array([[ig.evaluate_policies(game, p1, p2)
                        for p2 in itertools.product(*allowed[1])]
                       for p1 in itertools.product(*allowed[0])])
    return values.max(axis=0).min(axis=0), values.min(axis=1).max(axis=0)


@pytest.mark.parametrize("chunk_pairs", [None, 1, 7])
@pytest.mark.parametrize("seed,ns,masked", [(0, 3, False), (1, 4, False), (2, 3, True),
                                            (3, 4, True)])
def test_stacked_oracle_matches_per_pair_loop(monkeypatch, seed, ns, masked, chunk_pairs):
    game = _cross_game(2300 + seed, ns, 2, 2, masked)
    if chunk_pairs is not None:
        monkeypatch.setattr(solver, "CHAIN_BATCH_BYTES", chunk_pairs * 8 * ns * ns)
    rep = ig.minimax_oracle(game)
    upper, lower = _per_pair_oracle(game)
    np.testing.assert_array_equal(rep.upper, upper)
    np.testing.assert_array_equal(rep.lower, lower)
    assert rep.certified


@pytest.mark.parametrize("caps", [(-1, 0), (0, -2), (1.5, 0), (10**4, 10**4)])
@pytest.mark.parametrize("call", ["solve", "bellman", "extract_policy", "q_from_value",
                                  "simulate", "augment"])
def test_every_caps_path_refuses_bad_caps_before_any_allocation(call, caps):
    game = ig.random_game(20, 2, 2, seed=0)
    v = np.zeros(game.num_states)
    policy = ig.extract_policy(game, v)
    run = {
        "solve": lambda: ig.solve(game, caps=caps),
        "bellman": lambda: ig.bellman(game, v, caps=caps),
        "extract_policy": lambda: ig.extract_policy(game, v, caps=caps),
        "q_from_value": lambda: ig.q_from_value(game, v, caps=caps),
        "simulate": lambda: ig.simulate(game, policy, 5, caps=caps),
        "augment": lambda: ig.augment(game, *caps),
    }[call]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="nonnegative|above the limit"):
            run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
