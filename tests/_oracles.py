"""Independent reference implementations used only to cross-check the library.

Everything here is written with plain per-state loops, deliberately sharing
no code with the vectorised solver.
"""

import itertools

import numpy as np


def single_agent_impulse_vi(game, tol=1e-13, max_sweeps=1_000_000):
    """Value iteration for the one-player costly-action problem.

    Ignores Player 2 entirely: per state, the better of the best costly
    action (cost subtracted) and doing nothing.
    """
    ns = game.num_states
    v = [0.0] * ns
    for _ in range(max_sweeps):
        nv = []
        for s in range(ns):
            wait = game.reward[s, 0, 0]
            for t in range(ns):
                wait += game.discount * game.kernel[s, 0, 0, t] * v[t]
            best = wait
            for a in range(1, game.num_actions1):
                if not game.mask1[s, a]:
                    continue
                val = game.reward[s, a, 0] - game.cost1[s, a]
                for t in range(ns):
                    val += game.discount * game.kernel[s, a, 0, t] * v[t]
                if val > best:
                    best = val
            nv.append(best)
        delta = max(abs(a - b) for a, b in zip(nv, v))
        v = nv
        if delta <= tol:
            break
    return np.array(v)


def mrp_value(p, r, gamma):
    """Exact value of an uncontrolled discounted chain."""
    n = len(r)
    return np.linalg.solve(np.eye(n) - gamma * np.asarray(p), np.asarray(r))


def best_single_shot_value(game, n_budget=1):
    """Brute-force optimum of a one-player game whose action budget is 1.

    Enumerates every stationary rule "at y=1 play action pol(s)" and
    evaluates it exactly on the (state, budget-left) chain built right here.
    """
    assert game.num_actions2 == 1
    ns, na = game.num_states, game.num_actions1
    gamma = game.discount
    best = np.full(ns, -np.inf)
    for pol in itertools.product(range(na), repeat=ns):
        # chain over (s, y): index s for y=1, ns + s for y=0
        p = np.zeros((2 * ns, 2 * ns))
        r = np.zeros(2 * ns)
        for s in range(ns):
            a = pol[s]
            if a == 0:
                p[s, :ns] = game.kernel[s, 0, 0]
                r[s] = game.reward[s, 0, 0]
            else:
                p[s, ns:] = game.kernel[s, a, 0]
                r[s] = game.reward[s, a, 0] - game.cost1[s, a]
            p[ns + s, ns:] = game.kernel[s, 0, 0]
            r[ns + s] = game.reward[s, 0, 0]
        v = np.linalg.solve(np.eye(2 * ns) - gamma * p, r)
        best = np.maximum(best, v[:ns])
    return best


def loop_operator(game, v, caps=None, tie_eps=1e-10):
    """The one-step operator and its greedy policy, one state at a time.

    Per state: min( max( best costly Player-1 pair (a, 0), null pair ),
    best costly Player-2 pair (0, b) ), over available actions only.  A
    player's flag is raised on a strict improvement beyond ``tie_eps``; on
    equal values the lower action index wins.  With ``caps=(n1, n2)`` the
    states are flat ``(s, y, z)``, index ``(s * (n1+1) + y) * (n2+1) + z``,
    and a costly action needs its player's counter above zero and moves it
    down by one.  Returns ``(values, p1_acts, p1_action, p2_acts, p2_action)``.
    """
    ny, nz = (1, 1) if caps is None else (caps[0] + 1, caps[1] + 1)
    spend = 0 if caps is None else 1
    ns, g = game.num_states, game.discount
    out = ([], [], [], [], [])

    def cont(s, a, b, y, z):
        total = float(game.reward[s, a, b])
        for t in range(ns):
            total += g * game.kernel[s, a, b, t] * v[(t * ny + y) * nz + z]
        return total

    for s in range(ns):
        for y in range(ny):
            for z in range(nz):
                noop = cont(s, 0, 0, y, z)
                best1, act1 = None, 0
                if y >= spend:
                    for a in range(1, game.num_actions1):
                        if game.mask1[s, a]:
                            val = cont(s, a, 0, y - spend, z) - game.cost1[s, a]
                            if best1 is None or val > best1:
                                best1, act1 = val, a
                inner = noop if best1 is None else max(best1, noop)
                best2, act2 = None, 0
                if z >= spend:
                    for b in range(1, game.num_actions2):
                        if game.mask2[s, b]:
                            val = cont(s, 0, b, y, z - spend) + game.cost2[s, b]
                            if best2 is None or val < best2:
                                best2, act2 = val, b
                p1 = best1 is not None and best1 > noop + tie_eps
                p2 = best2 is not None and best2 < inner - tie_eps
                for col, x in zip(out, (inner if best2 is None else min(inner, best2),
                                        p1, act1 if p1 else 0, p2, act2 if p2 else 0)):
                    col.append(x)
    return tuple(np.array(col) for col in out)


def loop_chain(game, pol1, pol2):
    """Kernel rows and net rewards of the executed pairs, one state at a time
    (Player 2's non-null action suppresses Player 1's)."""
    ns = game.num_states
    p = np.zeros((ns, ns))
    r = np.zeros(ns)
    for s in range(ns):
        a, b = (0, pol2[s]) if pol2[s] else (pol1[s], 0)
        p[s] = game.kernel[s, a, b]
        r[s] = game.reward[s, a, b] - (game.cost1[s, a] if a else 0.0) + (
            game.cost2[s, b] if b else 0.0)
    return p, r
