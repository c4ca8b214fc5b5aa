import numpy as np
import pytest

import impulsegames as ig
from impulsegames import qlearn, solver
from impulsegames.game import to_cells

from _oracles import loop_learn, mrp_value, pair_cell
from conftest import randomly_masked


def test_greedy_value_micro(g1):
    assert ig.read_off(g1, np.zeros((1, 2, 2)))[0].tolist() == [0.0]
    assert ig.read_off(g1, np.ones((1, 2, 2)))[0].tolist() == [1.0]


def test_greedy_value_at_solved_table_recovers_value(g1, g2, g3):
    for game in (g1, g2, g3):
        rep = ig.solve(game, tol=1e-12)
        assert ig.read_off(game, rep.q)[0][0] == pytest.approx(rep.value[0], abs=1e-9)


def _one_run(game, steps, q0=None, epsilon=0.0, seed=0, omega=0.85):
    cfg = ig.LearnConfig(steps=steps, epsilon_start=epsilon, seed=seed, omega=omega)
    return ig.learn(game, cfg, q0=q0)


def test_step_update_zero_target_keeps_zero(g1):
    # an exploring step executes (0, b1): raw reward 0, and the zero table reads 0
    q, diag = _one_run(g1, 1, epsilon=1.0, seed=1)
    assert np.argwhere(diag.visits).tolist() == [[0, 0, 1]]
    assert not q.any()


def test_step_update_hand_value(g1):
    # cells (null, a1, b1) = (1, 2, 3) plus costs (0, -0.5, +0.3) read off as
    # (1, 1.5, 3.3): Player 1 acts, value 1.5.  Raw reward 2, gamma 0.5.
    q0 = np.array([[[1.0, 3.0], [2.0, 9.0]]])
    q, diag = _one_run(g1, 1, q0=q0, omega=1.0)
    assert q[0, 1, 0] == 2.75  # target 2 + 0.5 * 1.5, first step size 1
    # the row now reads off 2.25 and Player 1 still acts: step size 1/2
    q, diag = _one_run(g1, 2, q0=q0, omega=1.0)
    assert q[0, 1, 0] == 2.75 + 0.5 * (3.125 - 2.75)  # target 2 + 0.5 * 2.25
    assert diag.visits[0, 1, 0] == 2


def test_learn_step_at_its_own_target_keeps_the_table(g1):
    # the null cell 2 reads off as the value 2, and 1 + 0.5 * 2 = 2
    q0 = np.array([[[2.0, 5.0], [0.0, 7.0]]])
    q, diag = _one_run(g1, 1, q0=q0)
    assert diag.visits[0, 0, 0] == 1
    assert q.tobytes() == q0.tobytes()


def test_step_update_touches_one_cell(g1):
    q, _ = _one_run(g1, 1)
    changed = np.argwhere(q != 0.0)
    assert changed.tolist() == [[0, 0, 0]]


def test_act_greedy_on_solved_tables(g1, g2, g3):
    for game, pair in ((g2, (1, 0)), (g3, (0, 0)), (g1, (0, 1))):
        assert ig.read_off(game, ig.solve(game, tol=1e-12).q)[1].executed_pair(0) == pair


def _slots(game):
    return qlearn._slots(game.cell_costs.tolist(), game.num_actions1)


def test_act_exploration_is_reproducible(g1):
    slots = _slots(g1)[0]
    rng1, rng2 = np.random.default_rng(42), np.random.default_rng(42)
    seq1 = [qlearn._explore(slots, rng1) for _ in range(20)]
    seq2 = [qlearn._explore(slots, rng2) for _ in range(20)]
    assert seq1 == seq2
    assert set(seq1) == {pair_cell(g1, pair) for pair in [(0, 0), (1, 0), (0, 1)]}


def test_act_never_returns_joint_nonnull(g1):
    # a draw is a column of the cells table, which holds no pair where both act
    rng = np.random.default_rng(7)
    slots = _slots(g1)[0]
    for _ in range(200):
        assert qlearn._explore(slots, rng) in range(g1.cells[1].shape[1])


def test_learn_zero_budget_returns_init(g1):
    q0 = np.full((1, 2, 2), 0.25)
    q, diag = ig.learn(g1, ig.LearnConfig(steps=0), q0=q0)
    assert np.array_equal(q, q0)
    assert diag.steps_run == 0


def test_learn_keeps_an_exploration_start_below_the_end_value(monkeypatch):
    game = ig.random_game(5, 1, 1, seed=5)
    _, diag = ig.learn(game, ig.LearnConfig(steps=5000, epsilon_start=0.005, seed=1))
    assert {row["epsilon"] for row in diag.rows} == {0.005}

    def explore(slots, rng):
        raise AssertionError("explored at epsilon 0")

    monkeypatch.setattr(qlearn, "_explore", explore)
    _, diag = ig.learn(game, ig.LearnConfig(steps=5000, epsilon_start=0.0))
    assert {row["epsilon"] for row in diag.rows} == {0.0}


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
    # entries start at 0 and move to convex combinations of targets, so every
    # entry obeys the targets' bound
    game = ig.random_game(4, 2, 2, seed=21)
    q, _ = ig.learn(game, ig.LearnConfig(steps=20_000, seed=4))
    costs = max(game.cost1.max(), game.cost2.max())
    bound = (np.abs(game.reward).max() + costs) / (1 - game.discount)
    assert np.abs(q).max() <= bound + 1e-9


def test_fixed_point_has_zero_mean_increment(g1):
    # at the solved table, sampled update increments average to zero
    rep = ig.solve(g1, tol=1e-12)
    env = ig.SamplingEnv(g1, seed=8)
    increments = {pair: [] for pair in [(0, 0), (1, 0), (0, 1)]}
    for pair in increments:
        for _ in range(4000):
            s2, raw = env.step(0, pair_cell(g1, pair))
            target = raw + g1.discount * rep.value[s2]
            increments[pair].append(target - rep.q[0, pair[0], pair[1]])
    for pair, vals in increments.items():
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(len(vals)) + 1e-12
        assert abs(vals.mean()) <= 3 * se + 1e-9


def test_learn_diagnostics_csv(tmp_path, g1):
    ref = ig.solve(g1, tol=1e-10).q
    _, diag = ig.learn(g1, ig.LearnConfig(steps=3000, seed=0), reference_q=ref)
    path = tmp_path / "diag.csv"
    diag.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,sup_norm_delta,dist_to_qhat,epsilon,seed"
    assert len(lines) == 4


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
    value, policy = ig.read_off(game, ig.q_from_value(game, v))
    assert np.abs(value - ig.bellman(game, v)).max() <= 1e-12
    assert policy.executed_pairs() == ig.extract_policy(game, v).executed_pairs()


def _exact_game(seed):
    """A randomly masked game on which every sum is exact: integer rewards and
    costs, deterministic transitions and discount 1/2, so that integer value
    fields give exact ties between the nesting's terms."""
    rng = np.random.default_rng(seed)
    ns, na, nb = (int(n) for n in rng.integers([2, 1, 1], [7, 4, 4]))
    kernel = np.zeros((ns, na, nb, ns))
    np.put_along_axis(kernel, rng.integers(ns, size=(ns, na, nb, 1)), 1.0, axis=3)
    cost1, cost2 = rng.integers(1, 3, size=(ns, na)), rng.integers(1, 3, size=(ns, nb))
    cost1[:, 0] = cost2[:, 0] = 0
    game = ig.ImpulseGame(kernel=kernel, reward=rng.integers(-2, 3, size=(ns, na, nb)),
                          cost1=cost1, cost2=cost2, cost_floor=1.0, discount=0.5)
    return randomly_masked(game, seed), rng


def test_read_off_matches_operator_and_learner_bit_for_bit():
    ties = 0
    for seed in range(200):
        game, rng = _exact_game(seed)
        v = rng.integers(-3, 4, size=game.num_states).astype(float)
        q = ig.q_from_value(game, v)
        value, policy = ig.read_off(game, q)
        assert value.tobytes() == ig.bellman(game, v).tobytes()
        ref = ig.extract_policy(game, v)
        for name in ("p1_acts", "p1_action", "p2_acts", "p2_action"):
            assert np.array_equal(getattr(policy, name), getattr(ref, name))
        t = solver.operator_terms(game, v)
        ties += int(((t.m1 == t.noop) | (t.m2 == np.maximum(t.m1, t.noop))).sum())
        # the learner's per-state read-off, on this table and on a random one
        for table in (q, rng.normal(size=q.shape)):
            value, policy = ig.read_off(game, table)
            rows = (to_cells(table) + game.cell_costs).tolist()
            for s in range(game.num_states):
                got, cell = qlearn._greedy(rows[s], game.num_actions1)
                assert np.float64(got).tobytes() == value[s].tobytes()
                assert cell == pair_cell(game, policy.executed_pair(s))
    assert ties > 0  # 59 states with an exact tie


def test_act_explores_through_explore():
    game = _masked_random_game()
    slots = _slots(game)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(game.num_states))  # the learner's reset
        rng.random()  # its exploration coin
        cell = qlearn._explore(slots[s], rng)
        _, diag = _one_run(game, 1, epsilon=1.0, seed=seed)
        (s1, a, b), = np.argwhere(diag.visits).tolist()
        assert (s1, cell) == (s, pair_cell(game, (a, b)))


@pytest.mark.parametrize("field", ["episode_len"])
def test_learn_config_rejects_nonpositive_periods(field):
    with pytest.raises(ValueError, match=field):
        ig.LearnConfig(steps=10, **{field: 0})


def _learner_case(case):
    """(game, learn keyword arguments) of one loop-reference case."""
    if case in ("3x0x0", "5x1x1", "30x3x3"):
        spec = tuple(int(n) for n in case.split("x"))
        return ig.random_game(*spec, seed=spec[0]), {}
    if case == "budget":
        return ig.augment(ig.random_game(4, 2, 1, seed=9), 2, 1).game, {}
    game = _masked_random_game()
    if case == "reference_q":
        return game, {"reference_q": ig.solve(game, tol=1e-10).q}
    if case == "q0":
        return game, {"q0": np.random.default_rng(1).normal(size=(8, 4, 3))}
    return game, {}


@pytest.mark.parametrize("case", ["3x0x0", "5x1x1", "30x3x3", "masked", "budget",
                                  "reference_q", "q0", "explore", "greedy", "eps_low"])
def test_learn_matches_loop_reference_bit_for_bit(case, monkeypatch):
    game, kwargs = _learner_case(case)
    start = {"greedy": 0.0, "eps_low": 0.005}.get(case, 0.2)
    cfg = ig.LearnConfig(steps=4000, seed=7, episode_len=50, epsilon_start=start)
    if case == "explore":
        # Exploration held at 1: every step draws a slot and an action by `integers`,
        # so 32-bit halves interleave with doubles and resets across many draw blocks.
        monkeypatch.setattr(qlearn, "LEARN_EPSILON_END", 1.0)
        cfg = ig.LearnConfig(steps=10_000, seed=7, epsilon_start=1.0, episode_len=7)
    q, diag = ig.learn(game, cfg, **kwargs)
    ref_q, ref_visits, ref_rows = loop_learn(game, cfg, **kwargs)
    assert q.tobytes() == ref_q.tobytes()
    assert np.array_equal(diag.visits, ref_visits)
    assert diag.rows == ref_rows
