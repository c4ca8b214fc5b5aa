#!/usr/bin/env python3
"""Approximate the value field in a low-dimensional feature span.

Shows the weighted projection, the two operator nestings on parameterised
fields, the deterministic projected fixed point, the sampled weight
iteration, and the approximation-error bound in the stationary-weighted
norm.
"""

import numpy as np

import impulsegames as ig

game = ig.random_game(6, 1, 1, seed=25, gamma=0.9)
exact = ig.solve(game, tol=1e-11)
print("exact values:", np.round(exact.value, 4))

# a deliberately coarse basis: constant + linear ramp over the state index
ramp = np.arange(6.0)
basis = ig.FeatureBasis(np.column_stack([np.ones(6), ramp / ramp.max()]))

w = ig.linfa.bound_weights(game, exact.value).weights
print("stationary weights of the equilibrium chain:", np.round(w, 4))

r, deltas = ig.projected_iteration(game, basis, w, combinator="T")
print(f"\nprojected fixed point after {len(deltas)} sweeps: r = {np.round(r, 4)}")
ratios = [deltas[i + 1] / deltas[i] for i in range(1, 8) if deltas[i] > 1e-14]
print(f"coefficient-delta contraction ratios: {np.round(ratios, 3)} "
      f"(discount is {game.discount})")

bound = ig.verify_bound(game, basis, r, value=exact.value)
print(f"\nerror bound: |field - value|_w = {bound.lhs:.5f} <= "
      f"{bound.rhs:.5f} = (1 - g^2)^-0.5 * projection error  -> holds={bound.holds}")

r_fit, report = ig.fit(game, basis, ig.FitConfig(samples=100_000, seed=3))
print(f"\nsampled iteration after {report.samples_run} samples: "
      f"r = {np.round(r_fit, 4)} (sup distance to exact values "
      f"{np.abs(basis.field(r_fit) - exact.value).max():.4f})")

print("\nthe flipped nesting is also a contraction but balances the players "
      "differently:")
for combinator in ("T", "F"):
    out = ig.apply_operator(game, basis, r, combinator=combinator)
    print(f"    combinator {combinator}: field -> {np.round(out, 4)}")
