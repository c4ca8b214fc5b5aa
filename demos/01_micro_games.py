#!/usr/bin/env python3
"""Walk through the solver on three hand-checkable one-state games.

Both players share a single self-looping state.  Doing nothing pays 1 per
step; Player 1 can buy a reward of 2 for a fee, Player 2 can force the
reward to 0 by paying its own fee.  Depending on who can afford to act, the
game's value lands at three different closed forms.
"""

import numpy as np

import impulsegames as ig


def one_state_game(p1_fee, p2_fee, gamma=0.5):
    kernel = np.ones((1, 2, 2, 1))          # every action loops back
    reward = np.zeros((1, 2, 2))
    reward[0, 0, 0] = 1.0                   # idle income
    reward[0, 1, 0] = 2.0                   # Player 1's boosted income
    reward[0, 0, 1] = 0.0                   # Player 2 shuts income off
    return ig.ImpulseGame(
        kernel=kernel, reward=reward,
        cost1=np.array([[0.0, p1_fee]]), cost2=np.array([[0.0, p2_fee]]),
        cost_floor=0.1, discount=gamma)


def describe(name, game, expected):
    rep = ig.solve(game, tol=1e-10)
    pol = rep.policy
    who = ("Player 2 intervenes" if pol.p2_acts[0]
           else "Player 1 intervenes" if pol.p1_acts[0]
           else "nobody intervenes")
    print(f"{name}: value {rep.value[0]:.6f} (expected {expected}), "
          f"{who}, solved in {rep.sweeps} sweeps")
    oracle = ig.minimax_oracle(game)
    print(f"    best-response oracle: upper {oracle.upper[0]:.6f}, "
          f"lower {oracle.lower[0]:.6f}, certified={oracle.certified}")


print("operator arithmetic at the zero field of the cheap-fees game:")
g_cheap = one_state_game(0.5, 0.3)
v0 = np.zeros(1)
m1 = ig.max_intervention(g_cheap, v0, 0)
m2 = ig.min_intervention(g_cheap, v0, 0)
noop = ig.noop_continuation(g_cheap, v0)[0]
print(f"    best Player-1 action: {m1.value} (2 - 0.5 fee)")
print(f"    do nothing:           {noop}")
print(f"    best Player-2 action: {m2.value} (0 + 0.3 fee credited)")
print(f"    one operator sweep:   min(max({m1.value}, {noop}), {m2.value})"
      f" = {ig.bellman(g_cheap, v0)[0]}")
print()

describe("cheap fees   ", g_cheap, "0.6 = 0.3/(1-0.5)")
describe("pricey P2 fee", one_state_game(0.5, 100.0), "3.0 = 1.5/(1-0.5)")
describe("both priced  ", one_state_game(2.0, 100.0), "2.0 = 1.0/(1-0.5)")

print()
print("intervention times along a short trajectory of the pricey-P2 game:")
game = one_state_game(0.5, 100.0)
rep = ig.solve(game, tol=1e-10)
taus, rhos = ig.intervention_times(game, rep.policy, [0, 0, 0, 0])
print(f"    Player 1 acts at t = {taus}, Player 2 at t = {rhos}")
