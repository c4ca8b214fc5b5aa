"""Per-layer metrics of a traced run: the hooks that count work at layer
boundaries, and the table of metrics with their units.

Every value is per traced pass.  A layer a workload never calls reports 0.
"""

from __future__ import annotations

import numpy as np


def _bellman(tr, args, kwargs, result, parent):
    game = args[0]
    tr.count("bellman_bytes", game.kernel.nbytes)
    if parent is None or parent.name != "solver.solve":
        return
    v = np.asarray(args[1] if len(args) > 1 else kwargs["v"])
    res = float(np.abs(result - v).max())
    # below this a residual is rounding noise and the ratio says nothing about gamma
    floor = 1e6 * np.finfo(float).eps * (1.0 + float(np.abs(v).max()))
    last = tr.counters.get("_last_residual")
    if last is not None and last[0] == parent.index and last[1] > floor:
        ratio = res / last[1]
        tr.counters["contraction_max"] = max(tr.counters.get("contraction_max", 0.0), ratio)
    tr.counters["_last_residual"] = (parent.index, res)


def _solve(tr, args, kwargs, result, parent):
    tr.count("sweeps", result.sweeps)
    if tr.in_call("cli.cmd_fit"):
        tr.count("fit_job_solves")


def _operator_terms(tr, args, kwargs, result, parent):
    if parent is not None and parent.name == "linfa.fit":
        tr.count("fit_operator_rows", args[0].num_states)


def _fit(tr, args, kwargs, result, parent):
    tr.count("fit_samples", result[1].samples_run)


def _learn(tr, args, kwargs, result, parent):
    env, (_q, diag) = args[0], result
    visits = diag.visits
    tr.count("learn_steps", diag.steps_run)
    tr.count("slot_p1", int(visits[:, 1:, 0].sum()))
    tr.count("slot_p2", int(visits[:, 0, 1:].sum()))
    tr.count("slot_noop", int(visits[:, 0, 0].sum()))
    executable = np.zeros(visits.shape, dtype=bool)
    executable[:, 0, 0] = True
    executable[:, 1:, 0] = env.mask1[:, 1:]
    executable[:, 0, 1:] = env.mask2[:, 1:]
    tr.count("cells_executable", int(executable.sum()))
    tr.count("cells_visited", int((visits > 0)[executable].sum()))


def _augment(tr, args, kwargs, result, parent):
    kernel = result.game.kernel
    tr.count("augmented_states", result.num_states)
    tr.count("augment_bytes", kernel.nbytes)
    tr.count("augment_nonzero", int(np.count_nonzero(kernel)))
    tr.count("augment_cells", kernel.size)


def _simulate(tr, args, kwargs, result, parent):
    tr.count("sim_steps", len(result.rewards))


HOOKS = {"solver.bellman": _bellman, "solver.solve": _solve,
         "solver.operator_terms": _operator_terms, "linfa.fit": _fit,
         "qlearn.learn": _learn, "budget.augment": _augment, "sim.simulate": _simulate}

CALLS, SELF, TOTAL = "calls", "self_s", "total_s"

_FUNCTIONS = [
    ("solver.bellman", (CALLS, SELF, TOTAL)),
    ("solver.operator_terms", (CALLS, SELF)),
    ("solver.expected_next_values", (SELF,)),
    ("solver.solve", (CALLS, TOTAL)),
    ("solver.extract_policy", (CALLS, SELF, TOTAL)),
    ("solver.q_from_value", (CALLS, SELF, TOTAL)),
    ("solver.minimax_oracle", (CALLS, SELF, TOTAL)),
    ("solver.evaluate_policies", (CALLS, SELF, TOTAL)),
    ("game.random_game", (CALLS, SELF, TOTAL)),
    ("game.load_game", (CALLS, SELF, TOTAL)),
    ("linfa.fit", (SELF, TOTAL)),
    ("linfa.verify_bound", (CALLS, SELF, TOTAL)),
    ("linfa.projected_iteration", (CALLS, SELF, TOTAL)),
    ("linfa.stationary_distribution", (CALLS, SELF, TOTAL)),
    ("qlearn.learn", (SELF, TOTAL)),
    ("qlearn.act", (CALLS, SELF, TOTAL)),
    ("qlearn.step_update", (CALLS, SELF, TOTAL)),
    ("qlearn.greedy_value", (CALLS, SELF, TOTAL)),
    ("envs.SamplingEnv.step", (CALLS, SELF, TOTAL)),
    ("envs.build_duopoly_game", (CALLS, SELF, TOTAL)),
    ("budget.augment", (CALLS, SELF, TOTAL)),
    ("budget.simulate_budgeted", (TOTAL,)),
    ("sim.simulate", (CALLS, SELF, TOTAL)),
] + [(f"cli.cmd_{c}", (SELF,)) for c in ("solve", "oracle", "learn", "fit", "simulate", "budget")]

_UNITS = {CALLS: ("count", "lower"), SELF: ("s", "lower"), TOTAL: ("s", "lower")}


def _ratio(num, den):
    return num / den if den else 0.0


def _derived(tr, c, n):
    """Counts and rates built from hook counters; ``n`` is the traced-pass count."""
    calls, total, _ = tr.stat("solver.bellman")
    learn_total = tr.stat("qlearn.learn")[1]
    sim_total = tr.stat("sim.simulate")[1]
    fits = tr.stat("cli.cmd_fit")[0]
    slots = c("slot_p1") + c("slot_p2") + c("slot_noop")
    return [
        ("solver.bellman.us_per_call", "us", "lower", 1e6 * _ratio(total, calls)),
        ("solver.sweeps", "count", "lower", c("sweeps") / n),
        ("solver.bellman.bytes_computed", "B", "lower", c("bellman_bytes") / n),
        ("solver.bellman.gbps_computed", "GB/s", "higher", _ratio(c("bellman_bytes"), total) / 1e9),
        ("solver.contraction_ratio_max", "ratio", "lower", c("contraction_max")),
        ("linfa.fit.samples", "count", "higher", c("fit_samples") / n),
        ("linfa.fit.operator_rows", "count", "lower", c("fit_operator_rows") / n),
        ("linfa.fit.useful_row_frac", "ratio", "higher",
         _ratio(c("fit_samples"), c("fit_operator_rows"))),
        ("linfa.solves_per_fit_job", "count", "lower", _ratio(c("fit_job_solves"), fits)),
        ("qlearn.steps", "count", "higher", c("learn_steps") / n),
        ("qlearn.us_per_step", "us", "lower", 1e6 * _ratio(learn_total, c("learn_steps"))),
        ("qlearn.slot_p1_frac", "ratio", "lower", _ratio(c("slot_p1"), slots)),
        ("qlearn.slot_p2_frac", "ratio", "lower", _ratio(c("slot_p2"), slots)),
        ("qlearn.slot_noop_frac", "ratio", "lower", _ratio(c("slot_noop"), slots)),
        ("qlearn.visit_coverage", "ratio", "higher",
         _ratio(c("cells_visited"), c("cells_executable"))),
        ("budget.augmented_states", "count", "lower", c("augmented_states") / n),
        ("budget.kernel_bytes_computed", "B", "lower", c("augment_bytes") / n),
        ("budget.kernel_nonzero_frac", "ratio", "higher",
         _ratio(c("augment_nonzero"), c("augment_cells"))),
        ("sim.steps", "count", "higher", c("sim_steps") / n),
        ("sim.us_per_step", "us", "lower", 1e6 * _ratio(sim_total, c("sim_steps"))),
    ]


def metrics(tr, traced_passes: int, overhead_frac: float) -> list[tuple]:
    """``(name, unit, better, value)`` for every per-layer metric."""
    n = max(traced_passes, 1)
    c = lambda key: float(tr.counters.get(key, 0.0))
    rows = []
    for fname, fields in _FUNCTIONS:
        calls, total, self_s = tr.stat(fname)
        got = {CALLS: calls, SELF: self_s, TOTAL: total}
        rows += [(f"{fname}.{f}", *_UNITS[f], got[f] / n) for f in fields]
    rows += _derived(tr, c, n)
    rows += [(f"layer.{layer}.self_s", "s", "lower", s / n)
             for layer, s in tr.layer_self().items()]
    rows += [("trace.overhead_frac", "ratio", "lower", overhead_frac),
             ("trace.spans", "count", "lower", tr.span_count / n)]
    return rows

