#!/usr/bin/env python3
"""Cap each player's number of interventions and watch the value respond.

The caps ride along in the state as countdown counters; once a player's
counter hits zero its costly actions disappear from the game, so simulated
play can never overdraw a budget.
"""

import numpy as np

import impulsegames as ig

kernel = np.ones((1, 2, 2, 1))
reward = np.zeros((1, 2, 2))
reward[0, 0, 0] = 1.0
reward[0, 1, 0] = 2.0
base = ig.ImpulseGame(kernel=kernel, reward=reward,
                      cost1=np.array([[0.0, 0.5]]), cost2=np.array([[0.0, 100.0]]),
                      cost_floor=0.1, discount=0.5)

print("unconstrained value:", ig.solve(base, tol=1e-10).value[0])

# The budgeted game runs on the base game's tables; AugmentedGame names its
# states (s, y, z), y and z the counters of remaining interventions.
aug = ig.AugmentedGame(base, n1=4, n2=0)
report = ig.solve(base, tol=1e-10, caps=aug.caps)
grid = aug.value_grid(report.value)
print("\nvalue as Player 1's remaining budget grows:")
for y in range(5):
    acts = report.policy.p1_acts[aug.index(0, y, 0)]
    print(f"    budget {y}: value {grid[0, y, 0]:.6f}  "
          f"{'acts now' if acts else 'idles'}")

traj = ig.simulate(base, report.policy, steps=30, seed=0,
                   start=aug.index(0, 4, 0), caps=aug.caps)
spent_at = np.flatnonzero(traj.actions1).tolist()
print(f"\nsimulated 30 steps: {len(spent_at)} interventions, "
      f"spent at t = {spent_at} (front-loaded under discounting)")

print("\nbudget monotonicity on a random two-sided game:")
rand = ig.random_game(3, 1, 1, seed=42)
rep2 = ig.solve(rand, tol=1e-9, caps=(2, 2))
g2 = ig.AugmentedGame(rand, 2, 2).value_grid(rep2.value)
print("    value grid at state 0 (rows: own budget, cols: rival budget):")
for y in range(3):
    print("     ", np.round(g2[0, y, :], 4))
print("    rows rise downward (own budget helps), columns fall rightward "
      "(rival budget hurts)")
