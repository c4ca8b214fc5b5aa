#!/usr/bin/env python3
"""Learn the joint action table by simulated play and compare to the solver.

The learner never reads transition probabilities: it samples them through
an environment handle, executes one action slot per step (Player 2 first
when both trigger, otherwise Player 1, otherwise nothing), and updates only
the executed cell.
"""

import numpy as np

import impulsegames as ig

game = ig.random_game(3, 1, 1, seed=51, gamma=0.8)
reference = ig.solve(game, tol=1e-10)
print(f"target values: {np.round(reference.value, 4)}")

config = ig.LearnConfig(steps=200_000, epsilon_start=0.2, omega=0.85, seed=0,
                        episode_len=20)
q, diag = ig.learn(game, config, reference_q=reference.q)

print(f"\n{'step':>8}  {'epoch max |dQ|':>14}  {'dist to exact':>13}  {'eps':>5}")
for row in diag.rows[19::20]:  # a row per 1000 steps: print every 20th
    print(f"{row['step']:>8}  {row['sup_norm_delta']:>14.5f}  "
          f"{row['dist_to_qhat']:>13.5f}  {row['epsilon']:>5.3f}")

seen = diag.visits > 0
err = np.abs(q - reference.q)[seen].max()
tol = 0.05 * (1 + np.abs(reference.q).max())
print(f"\nfinal sup-distance on executed cells: {err:.5f} (tolerance {tol:.5f})")
print(f"visit counts sum to the step budget: {diag.visits.sum()} == {config.steps}")

print("\ngreedy play recovered from the learned table:")
_, learned = ig.read_off(game, q)
for s in range(game.num_states):
    pair = learned.executed_pair(s)
    exact = reference.policy.executed_pair(s)
    print(f"    state {s}: learned {pair}, exact {exact}")
