import numpy as np
import pytest

import impulsegames as ig

from _oracles import loop_learn, mrp_value


def test_greedy_value_micro(g1):
    assert ig.greedy_value(np.zeros((1, 2, 2)), g1, 0) == 0.0
    assert ig.greedy_value(np.ones((1, 2, 2)), g1, 0) == 1.0


def test_greedy_value_at_solved_table_recovers_value(g1, g2, g3):
    for game in (g1, g2, g3):
        rep = ig.solve(game, tol=1e-12)
        assert ig.greedy_value(rep.q, game, 0) == pytest.approx(rep.value[0], abs=1e-9)


def test_step_update_zero_target_keeps_zero(g1):
    q = np.zeros((1, 2, 2))
    tr = ig.Transition(0, 0, 1, 0.0, 0)  # raw reward of the (0, b1) pair
    ig.step_update(q, g1, tr, 0.1)
    assert q[0, 0, 1] == 0.0


def test_step_update_hand_value(g1):
    q = np.ones((1, 2, 2))
    tr = ig.Transition(0, 1, 0, 2.0, 0)  # raw reward of the (a1, 0) pair
    res = ig.step_update(q, g1, tr, 0.1)
    assert res.target == pytest.approx(2.5)
    assert q[0, 1, 0] == pytest.approx(1.15)


def test_step_update_alpha_zero_is_identity(g1):
    q = np.full((1, 2, 2), 0.7)
    before = q.copy()
    ig.step_update(q, g1, ig.Transition(0, 1, 0, 1.5, 0), 0.0)
    assert np.array_equal(q, before)


def test_step_update_touches_one_cell(g1):
    q = np.zeros((1, 2, 2))
    ig.step_update(q, g1, ig.Transition(0, 1, 0, 1.5, 0), 0.5)
    changed = np.argwhere(q != 0.0)
    assert changed.tolist() == [[0, 1, 0]]


def test_act_greedy_on_solved_tables(g1, g2, g3):
    rng = np.random.default_rng(0)
    assert ig.act(ig.solve(g2, tol=1e-12).q, g2, 0, 0.0, rng) == (1, 0)
    assert ig.act(ig.solve(g3, tol=1e-12).q, g3, 0, 0.0, rng) == (0, 0)
    assert ig.act(ig.solve(g1, tol=1e-12).q, g1, 0, 0.0, rng) == (0, 1)


def test_act_exploration_is_reproducible(g1):
    q = np.zeros((1, 2, 2))
    seq1 = [ig.act(q, g1, 0, 1.0, np.random.default_rng(42)) for _ in range(5)]
    seq2 = [ig.act(q, g1, 0, 1.0, np.random.default_rng(42)) for _ in range(5)]
    assert seq1 == seq2


def test_act_never_returns_joint_nonnull(g1):
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = ig.act(np.zeros((1, 2, 2)), g1, 0, 1.0, rng)
        assert a == 0 or b == 0


def test_learn_zero_budget_returns_init(g1):
    q0 = np.full((1, 2, 2), 0.25)
    q, diag = ig.learn(g1, ig.LearnConfig(steps=0), q0=q0)
    assert np.array_equal(q, q0)
    assert diag.steps_run == 0


def test_learn_determinism(g1):
    cfg = ig.LearnConfig(steps=2000, seed=5)
    q1, _ = ig.learn(g1, cfg)
    q2, _ = ig.learn(g1, cfg)
    assert np.array_equal(q1, q2)


def test_learn_uncontrolled_chain_is_td0():
    game = ig.random_game(3, 0, 0, seed=2, gamma=0.5)
    q, diag = ig.learn(game, ig.LearnConfig(steps=60_000, seed=1))
    expected = mrp_value(game.kernel[:, 0, 0, :], game.reward[:, 0, 0], game.discount)
    assert np.abs(q[:, 0, 0] - expected).max() <= 0.01


def test_learn_visit_counts_equal_steps(g1):
    steps = 5000
    _, diag = ig.learn(g1, ig.LearnConfig(steps=steps, seed=0))
    assert diag.visits.sum() == steps


def test_learn_recovers_micro_table(g1):
    ref = ig.solve(g1, tol=1e-12).q
    q, diag = ig.learn(g1, ig.LearnConfig(steps=50_000, seed=3), reference_q=ref)
    seen = diag.visits > 0
    assert np.abs(q[seen] - ref[seen]).max() <= 0.05


def test_learn_target_boundedness():
    game = ig.random_game(4, 2, 2, seed=21)
    _, diag = ig.learn(game, ig.LearnConfig(steps=20_000, seed=4))
    costs = max(game.cost1.max(), game.cost2.max())
    bound = (np.abs(game.reward).max() + costs) / (1 - game.discount)
    assert diag.max_abs_target <= bound + 1e-9


def test_fixed_point_has_zero_mean_increment(g1):
    # at the solved table, sampled update increments average to zero
    ref = ig.solve(g1, tol=1e-12).q
    env = ig.sampling_env(g1, seed=8)
    increments = {pair: [] for pair in [(0, 0), (1, 0), (0, 1)]}
    for pair in increments:
        for _ in range(4000):
            s2, raw = env.step(0, pair)
            target = raw + g1.discount * ig.greedy_value(ref, g1, s2)
            increments[pair].append(target - ref[0, pair[0], pair[1]])
    for pair, vals in increments.items():
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(len(vals)) + 1e-12
        assert abs(vals.mean()) <= 3 * se + 1e-9


def test_learn_diagnostics_csv(tmp_path, g1):
    ref = ig.solve(g1, tol=1e-10).q
    _, diag = ig.learn(g1, ig.LearnConfig(steps=3000, seed=0, eval_every=1000),
                       reference_q=ref)
    path = tmp_path / "diag.csv"
    diag.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,sup_norm_delta,dist_to_qhat,epsilon,seed"
    assert len(lines) == 4


def test_learn_stop_delta_stops_early(g3):
    cfg = ig.LearnConfig(steps=200_000, seed=0, stop_delta=1e-4, eval_every=500)
    _, diag = ig.learn(g3, cfg)
    assert diag.stopped_early
    assert diag.steps_run < 200_000


def _masked_random_game():
    base = ig.random_game(8, 3, 2, seed=31)
    mask1 = np.ones((8, 4), dtype=bool)
    mask1[1, 1:] = False
    mask1[2, 2] = False
    mask2 = np.ones((8, 3), dtype=bool)
    mask2[3, 1:] = False
    return ig.ImpulseGame(kernel=base.kernel, reward=base.reward, cost1=base.cost1,
                          cost2=base.cost2, cost_floor=base.cost_floor,
                          discount=base.discount, mask1=mask1, mask2=mask2)


def test_greedy_read_off_matches_solver_nesting():
    game = _masked_random_game()
    v = np.random.default_rng(2).normal(size=game.num_states)
    q = ig.q_from_value(game, v)
    value = ig.bellman(game, v)
    policy = ig.extract_policy(game, v)
    rng = np.random.default_rng(0)
    for s in range(game.num_states):
        assert ig.greedy_value(q, game, s) == pytest.approx(value[s], abs=1e-12)
        assert ig.act(q, game, s, 0.0, rng) == policy.executed_pair(s)


def test_act_explores_through_explore():
    game = _masked_random_game()
    q = np.zeros((8, 4, 3))
    for s in range(game.num_states):
        rng1, rng2 = np.random.default_rng(s), np.random.default_rng(s)
        rng2.random()
        assert ig.act(q, game, s, 1.0, rng1) == ig.qlearn.explore(game, s, rng2)
        assert rng1.random() == rng2.random()


@pytest.mark.parametrize("field", ["episode_len", "eval_every"])
def test_learn_config_rejects_nonpositive_periods(field):
    with pytest.raises(ValueError, match=field):
        ig.LearnConfig(steps=10, **{field: 0})


def _learner_case(case):
    """(game, learn keyword arguments, stop_delta) of one loop-reference case."""
    if case in ("3x0x0", "5x1x1", "30x3x3"):
        spec = tuple(int(n) for n in case.split("x"))
        return ig.random_game(*spec, seed=spec[0]), {}, 0.0
    if case == "budget":
        return ig.augment(ig.random_game(4, 2, 1, seed=9), 2, 1).game, {}, 0.0
    if case == "stop_delta":
        return ig.random_game(2, 1, 1, seed=8), {}, 0.02
    game = _masked_random_game()
    if case == "reference_q":
        return game, {"reference_q": ig.solve(game, tol=1e-10).q}, 0.0
    if case == "q0":
        return game, {"q0": np.random.default_rng(1).normal(size=(8, 4, 3))}, 0.0
    return game, {}, 0.0


@pytest.mark.parametrize("case", ["3x0x0", "5x1x1", "30x3x3", "masked", "budget",
                                  "reference_q", "q0", "stop_delta"])
def test_learn_matches_loop_reference_bit_for_bit(case):
    game, kwargs, stop = _learner_case(case)
    cfg = ig.LearnConfig(steps=4000, seed=7, eval_every=500, episode_len=50, stop_delta=stop)
    q, diag = ig.learn(game, cfg, **kwargs)
    ref_q, ref_visits, ref_rows, ref_max = loop_learn(game, cfg, **kwargs)
    assert q.tobytes() == ref_q.tobytes()
    assert np.array_equal(diag.visits, ref_visits)
    assert diag.rows == ref_rows
    assert diag.max_abs_target == ref_max
    assert diag.stopped_early == (case == "stop_delta")
