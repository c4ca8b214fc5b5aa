"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
"""

import time

import numpy as np

import impulsegames as ig

from _oracles import single_agent_impulse_vi
from conftest import micro_game


def _verdict(name, ok, detail=""):
    line = f"[{name}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_contraction_suite():
    start = time.time()
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    for k in range(100):
        gamma = (0.5, 0.9, 0.99)[k % 3]
        ns = int(rng.integers(1, 21))
        nn = int(rng.integers(1, 3))
        game = ig.random_game(ns, nn, nn, seed=5000 + k, gamma=gamma)
        for _ in range(10):
            v = rng.uniform(-10, 10, ns)
            w = rng.uniform(-10, 10, ns)
            lhs = float(np.abs(ig.bellman(game, v) - ig.bellman(game, w)).max())
            rhs = gamma * float(np.abs(v - w).max())
            worst = max(worst, lhs - rhs)
            assert lhs <= rhs + 1e-12
            checked += 1
    elapsed = time.time() - start
    _verdict("criterion 1: contraction suite",
             checked == 1000 and elapsed < 10.0,
             f"1000 pairs, worst slack {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_closed_form_micro_games():
    start = time.time()
    g1, g2, g3 = micro_game(0.5, 0.3), micro_game(0.5, 100.0), micro_game(2.0, 100.0)
    errs = []
    for game, expected in [(g1, 0.6), (g2, 3.0), (g3, 2.0)]:
        rep = ig.solve(game, tol=1e-9)
        errs.append(abs(rep.value[0] - expected))
        assert rep.converged and errs[-1] <= 1e-9
    rep = ig.solve(g2, tol=1e-9, caps=(2, 0))
    grid = ig.AugmentedGame(g2, 2, 0).value_grid(rep.value)
    for y, expected in [(0, 2.0), (1, 2.5), (2, 2.75)]:
        errs.append(abs(grid[0, y, 0] - expected))
        assert errs[-1] <= 1e-9
    elapsed = time.time() - start
    _verdict("criterion 2: closed-form micro-games",
             elapsed < 1.0, f"max err {max(errs):.2e}, {elapsed:.2f}s")


def test_criterion_3_saddle_point_certification():
    start = time.time()
    rng = np.random.default_rng(7)
    for k in range(25):
        ns = 1 + k % 4
        game = ig.random_game(ns, 1, 1, seed=6000 + k)
        oracle = ig.minimax_oracle(game)
        assert oracle.certified, f"game {k} not certified"
        assert np.abs(oracle.upper - oracle.lower).max() <= 1e-8
        vhat = oracle.value
        policy = ig.extract_policy(game, vhat)
        eq1 = np.where(policy.p1_acts, policy.p1_action, 0)
        eq2 = np.where(policy.p2_acts, policy.p2_action, 0)
        # unilateral deterministic deviations are non-improving
        from itertools import product
        for dev1 in product(range(game.num_actions1), repeat=ns):
            v = ig.evaluate_policies(game, dev1, eq2)
            assert (v <= vhat + 1e-8).all()
        for dev2 in product(range(game.num_actions2), repeat=ns):
            v = ig.evaluate_policies(game, eq1, dev2)
            assert (v >= vhat - 1e-8).all()
    elapsed = time.time() - start
    _verdict("criterion 3: saddle-point certification",
             elapsed < 60.0, f"25 games certified, {elapsed:.1f}s")


def test_criterion_4_two_init_agreement():
    start = time.time()
    rng = np.random.default_rng(2024)
    tol = 1e-8
    worst = 0.0
    for k in range(100):
        gamma = (0.5, 0.9, 0.99)[k % 3]
        ns = int(rng.integers(1, 21))
        nn = int(rng.integers(1, 3))
        game = ig.random_game(ns, nn, nn, seed=5000 + k, gamma=gamma)
        a = ig.solve(game, tol=tol).value
        b = ig.solve(game, tol=tol, v0=np.full(ns, 100.0)).value
        gap = float(np.abs(a - b).max())
        worst = max(worst, gap)
        assert gap <= 2 * tol
    elapsed = time.time() - start
    _verdict("criterion 4: two-init fixed-point agreement",
             True, f"worst gap {worst:.2e} <= {2 * tol:.0e}, {elapsed:.1f}s")


def test_criterion_5_qlearning_convergence():
    start = time.time()
    suite = [(2, 50, 0.9), (3, 72, 0.9), (3, 51, 0.8), (4, 63, 0.8), (5, 81, 0.8)]
    passed = 0
    total = 0
    details = []
    for ns, gseed, gamma in suite:
        game = ig.random_game(ns, 1, 1, seed=gseed, gamma=gamma)
        ref = ig.solve(game, tol=1e-10).q
        tol = 0.05 * (1 + np.abs(ref).max())
        for seed in range(4):
            config = ig.LearnConfig(steps=200_000, epsilon_start=0.2, omega=0.85,
                                    seed=seed, episode_len=20)
            q, diag = ig.learn(game, config, reference_q=ref)
            seen = diag.visits > 0
            err = float(np.abs(q - ref)[seen].max())
            total += 1
            if err <= tol:
                passed += 1
            details.append(round(err / tol, 2))
    elapsed = time.time() - start
    _verdict("criterion 5: Q-learning convergence",
             passed >= 0.9 * total and elapsed < 300.0,
             f"{passed}/{total} seeds, err/tol {details}, {elapsed:.0f}s")


def test_criterion_6_linear_fa():
    start = time.time()
    games = [micro_game(0.5, 0.3), micro_game(0.5, 100.0), micro_game(2.0, 100.0)]
    for game in games:
        basis = ig.identity_basis(1)
        r, _ = ig.fit(game, basis, ig.FitConfig(samples=100_000, seed=0))
        assert np.abs(basis.field(r) - ig.solve(game, tol=1e-9).value).max() <= 1e-3
    rng = np.random.default_rng(31)
    bound_margins = []
    for k in range(10):
        game = ig.random_game(4, 1, 1, seed=7000 + k)
        basis = ig.FeatureBasis(rng.normal(size=(4, 2)))
        vhat = ig.solve(game, tol=1e-11).value
        policy = ig.extract_policy(game, vhat)
        w, ergodic = ig.stationary_distribution(game, policy)
        if not ergodic:
            w = np.full(4, 0.25)
        r, _ = ig.projected_iteration(game, basis, w, "T")
        bound = ig.verify_bound(game, basis, r, value=vhat)
        assert bound.holds, f"bound failed on game {k}: {bound.lhs} > {bound.rhs}"
        bound_margins.append(round(bound.rhs - bound.lhs, 4))
    elapsed = time.time() - start
    _verdict("criterion 6: linear function approximation",
             True, f"identity fit <= 1e-3; bound slacks {bound_margins}, {elapsed:.0f}s")


def test_criterion_7_budget_feasibility():
    start = time.time()
    rng = np.random.default_rng(17)
    trajectories = 0
    for k in range(10):
        ns = 2 + k % 2
        base = ig.random_game(ns, 1, 1, seed=8000 + k)
        n1, n2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        aug = ig.AugmentedGame(base, n1, n2)
        rep = ig.solve(base, tol=1e-8, caps=aug.caps)
        grid = aug.value_grid(rep.value)
        assert (np.diff(grid, axis=1) >= -1e-8).all(), "value not monotone in own budget"
        assert (np.diff(grid, axis=2) <= 1e-8).all(), "value not antitone in rival budget"
        for seed in range(1000):
            traj = ig.simulate(base, rep.policy, 40, seed=seed,
                               start=aug.index(seed % ns, n1, n2), caps=aug.caps)
            assert np.count_nonzero(traj.actions1) <= n1
            assert np.count_nonzero(traj.actions2) <= n2
            trajectories += 1
    elapsed = time.time() - start
    _verdict("criterion 7: budget feasibility",
             trajectories == 10_000, f"10000 trajectories, zero violations, {elapsed:.0f}s")


def test_criterion_8_duopoly_end_to_end():
    start = time.time()
    game = ig.build_duopoly_game(ig.DuopolyParams())
    assert game.num_states == 121
    assert ig.validate(game) == []
    rep = ig.solve(game, tol=1e-8)
    assert rep.converged
    s0 = game.num_states // 2
    returns = np.empty(1000)
    for i in range(1000):
        traj = ig.simulate(game, rep.policy, 250, seed=i, start=s0)
        returns[i] = traj.discounted_return
        if i < 50:  # exact zero-sum accounting on sampled steps
            for t in range(0, 250, 10):
                pair = (int(traj.actions1[t]), int(traj.actions2[t]))
                s = int(traj.states[t])
                assert ig.player2_reward(game, s, pair) == -traj.rewards[t]
    se = returns.std(ddof=1) / np.sqrt(len(returns))
    gap = abs(returns.mean() - rep.value[s0])
    elapsed = time.time() - start
    _verdict("criterion 8: duopoly end-to-end",
             gap <= 3 * se and elapsed < 120.0,
             f"MC gap {gap:.3f} <= 3se {3 * se:.3f}, {elapsed:.0f}s")


def test_criterion_9_single_agent_reduction():
    start = time.time()
    worst = 0.0
    for k in range(10):
        ns = 2 + k % 3
        game = ig.random_game(ns, 2, 0, seed=9000 + k)
        rep = ig.solve(game, tol=1e-12)
        oracle = single_agent_impulse_vi(game)
        gap = float(np.abs(rep.value - oracle).max())
        worst = max(worst, gap)
        assert gap <= 1e-10
    elapsed = time.time() - start
    _verdict("criterion 9: single-agent degenerate reduction",
             True, f"worst gap {worst:.2e} <= 1e-10, {elapsed:.1f}s")
