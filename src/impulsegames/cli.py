"""Command-line front door: solve, learn, simulate, oracle, budget, fit, gen.

Exit codes: 0 success, 1 input error (bad file, bad flags), 2 the run
finished but did not reach its goal (no convergence / uncertified).  All
randomness in a run flows from one seeded generator, and every output file
is byte-reproducible given the same flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

import numpy as np

from . import linfa
from . import qlearn
from .budget import AugmentedGame
from .envs import build_duopoly_game, duopoly_params_from_dict
from .game import (_basis_from_dict, _read_spec, _write_csv, _write_json, game_from_dict,
                   load_game, random_game, save_game)
from .sim import simulate
from .solver import minimax_oracle, solve

log = logging.getLogger("impulsegames")

# Coefficient delta at which `fit`'s projected-iteration polish has converged.
FIT_POLISH_TOL = 1e-12


def _parse_gen(spec: str) -> tuple[int, int, int, int]:
    """``--gen "S,A,B,seed"``: four fields under :func:`_seed`'s rule, S at least 1."""
    parts = spec.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected \"S,A,B,seed\", got {spec!r}")
    fields = []
    for name, text in zip(("S", "A", "B", "seed"), parts):
        try:
            fields.append(_seed(text.strip()))
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentTypeError(f"field {name}: {exc}") from None
    if fields[0] < 1:
        raise argparse.ArgumentTypeError("field S: a game needs at least one state, got 0")
    return tuple(fields)


def _obtain_game(args):
    if args.game is not None:
        return load_game(args.game)
    if args.duopoly is not None:
        with open(args.duopoly, encoding="utf-8") as f:
            doc = json.load(f)
        return build_duopoly_game(duopoly_params_from_dict(doc))
    s, a, b, seed = args.gen
    return random_game(s, a, b, seed, gamma=args.gamma)


def _check_start(args, game) -> None:
    if not 0 <= args.start < game.num_states:
        raise ValueError(f"--start {args.start} is not a state of this "
                         f"{game.num_states}-state game")


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_solve(args) -> int:
    game = _obtain_game(args)
    report = solve(game, tol=args.tol, max_sweeps=args.max_sweeps)
    out = _outdir(args)
    doc = report._doc()
    _write_json(os.path.join(out, "solve_report.json"), doc)
    records = doc["policy"]
    columns = [np.array([rec[key] for rec in records]) for key in records[0]]
    _write_csv(os.path.join(out, "policy.csv"), [*records[0], "value"],
               [*columns, report.value])
    if not report.converged:
        log.warning("stopped after %d sweeps with residual %.3g", report.sweeps,
                    report.residual)
        return 2
    return 0


def cmd_learn(args) -> int:
    game = _obtain_game(args)
    reference = solve(game, tol=1e-9).q if game.num_states <= 200 else None
    config = qlearn.LearnConfig(steps=args.steps, epsilon_start=args.epsilon,
                                omega=args.omega, seed=args.seed)
    q, diag = qlearn.learn(game, config, reference_q=reference)
    out = _outdir(args)
    _write_json(os.path.join(out, "q.json"), {
        "q": q,
        "steps": diag.steps_run,
        "final_sup_delta": diag.final_sup_delta,
    })
    diag.to_csv(os.path.join(out, "learn_diagnostics.csv"))
    return 0


def cmd_simulate(args) -> int:
    game = _obtain_game(args)
    _check_start(args, game)
    report = solve(game, tol=args.tol, max_sweeps=args.max_sweeps)
    if not report.converged:
        log.error("solver did not converge; not simulating")
        return 2
    traj = simulate(game, report.policy, steps=args.steps, seed=args.seed,
                    start=args.start)
    out = _outdir(args)
    _write_csv(os.path.join(out, "trajectory.csv"),
               ["t", "s", "executed_a", "executed_b", "reward", "cumulative_return"],
               [np.arange(len(traj.rewards)), traj.states[:-1], traj.actions1, traj.actions2,
                traj.rewards, traj.cumulative])
    _write_json(os.path.join(out, "interventions.json"),
                {"taus": traj.actions1.nonzero()[0], "rhos": traj.actions2.nonzero()[0]})
    return 0


def cmd_oracle(args) -> int:
    game = _obtain_game(args)
    report = minimax_oracle(game, max_enumeration=args.max_enumeration)
    out = _outdir(args)
    _write_json(os.path.join(out, "oracle.json"), report._doc())
    return 0 if report.certified else 2


def cmd_budget(args) -> int:
    game = _obtain_game(args)
    _check_start(args, game)
    aug = AugmentedGame(game, args.n1, args.n2)
    report = solve(game, tol=args.tol, max_sweeps=args.max_sweeps, caps=aug.caps)
    # Roll out before any write, so that a refused flag leaves no file.
    traj = simulate(game, report.policy, steps=args.steps, seed=args.seed,
                    start=aug.index(args.start, args.n1, args.n2), caps=aug.caps)
    out = _outdir(args)
    labels = [f"({s},{y},{z})" for s, y, z in aug.labels]
    _write_json(os.path.join(out, "budget_report.json"), report._doc(labels))
    _write_csv(os.path.join(out, "budget_trajectory.csv"),
               ["t", "state", "executed_a", "executed_b", "reward", "cumulative_return"],
               [np.arange(len(traj.rewards)), np.array(labels)[traj.states[:-1]],
                traj.actions1, traj.actions2, traj.rewards, traj.cumulative])
    if not report.converged:
        return 2
    return 0


def cmd_fit(args) -> int:
    """Sampled weight fit, polished to the projected fixed point for the
    bound check (the bound is a statement about the limit coefficients),
    which compares it with the fixed point of the same nesting.
    A game file is parsed once, for both the game and its optional basis; a
    diverging weight iteration, or a polish that stops above
    ``FIT_POLISH_TOL``, ends the run with exit 2 and no file."""
    if args.game is not None:
        doc = _read_spec(args.game)
        game, basis_matrix = game_from_dict(doc), _basis_from_dict(doc)
    else:
        game, basis_matrix = _obtain_game(args), None
    basis = (linfa.FeatureBasis(basis_matrix) if basis_matrix is not None
             else linfa.identity_basis(game.num_states))
    config = linfa.FitConfig(samples=args.steps, seed=args.seed, combinator=args.combinator)
    try:
        r, report = linfa.fit(game, basis, config)
    except linfa.FitDivergenceError as exc:
        log.error("%s; no fit report written", exc)
        return 2
    value = linfa.exact_fixed_point(game, args.combinator)
    weights = linfa.bound_weights(game, value, args.combinator)
    polished, deltas = linfa.projected_iteration(game, basis, weights.weights,
                                                 combinator=args.combinator,
                                                 tol=FIT_POLISH_TOL)
    if not deltas[-1] <= FIT_POLISH_TOL:
        log.error("projected iteration stopped after %d iterations at delta %.3g, "
                  "above %g; no fit report written", len(deltas), deltas[-1], FIT_POLISH_TOL)
        return 2
    bound = linfa.verify_bound(game, basis, polished, value=value, weights=weights)
    out = _outdir(args)
    _write_json(os.path.join(out, "fit_report.json"), {
        "r": polished,
        "lhs": bound.lhs,
        "rhs": bound.rhs,
        "holds": bound.holds,
        "samples": report.samples_run,
    })
    return 0 if bound.holds else 2


def cmd_gen(args) -> int:
    if args.gen is None and args.duopoly is None:
        log.error("gen requires --gen \"S,A,B,seed\" or --duopoly PARAMS.json")
        return 1
    game = _obtain_game(args)
    save_game(game, os.path.join(_outdir(args), "game.json"))
    return 0


def _seed(text: str) -> int:
    """``--seed``: a non-negative integer in digits, the seeds numpy's generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A bad flag is an input error: exit 1 with one line, through ``main``."""
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every call:
    building it costs far more than a parse, and a parse leaves it unchanged.
    Callers must not change it."""
    parser = _Parser(
        prog="impulsegames",
        description="Solve, learn and simulate two-player zero-sum games "
                    "with costly actions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_game=True):
        src = p.add_mutually_exclusive_group(required=needs_game)
        src.add_argument("--game", help="path to a game-spec JSON file")
        src.add_argument("--gen", type=_parse_gen, help="random game spec \"S,A,B,seed\"")
        src.add_argument("--duopoly", help="path to a duopoly parameter JSON block")
        p.add_argument("--gamma", type=float, default=0.9,
                       help="discount for --gen games (default 0.9)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("solve", help="exact value, action table and policy")
    common(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-sweeps", type=int, default=100_000)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("learn", help="model-free learning of the action table")
    common(p)
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--omega", type=float, default=0.85)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("simulate", help="roll out the solved policy")
    common(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-sweeps", type=int, default=100_000)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--start", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="certify the value by policy enumeration")
    common(p)
    p.add_argument("--max-enumeration", type=int, default=1_000_000)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("fit", help="linear value approximation and bound check")
    common(p)
    p.add_argument("--steps", type=int, default=100_000,
                   help="number of sampled iteration steps")
    p.add_argument("--combinator", choices=["F", "T"], default="T",
                   help="operator nesting used for the fit target")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("budget", help="solve and simulate with intervention caps")
    common(p)
    p.add_argument("--n1", type=int, required=True, help="Player 1 intervention cap")
    p.add_argument("--n2", type=int, required=True, help="Player 2 intervention cap")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-sweeps", type=int, default=100_000)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--start", type=int, default=0)
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("gen", help="emit a random game-spec file")
    common(p, needs_game=False)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("IMPULSEGAMES_LOG_LEVEL", "WARNING"))
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
