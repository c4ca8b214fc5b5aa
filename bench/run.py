#!/usr/bin/env python3
"""Benchmark of the impulsegames toolkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
``src/``.  One process runs one workload as a closed loop with one client:
the workload's jobs (CLI subcommands, called in-process through
``impulsegames.cli.main``) run back to back as a pass, and passes repeat
until ``--seconds`` have gone by.  Every output file of every job is
checked; see checks.py.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  Untraced
passes sample a speed probe of the machine while the jobs run, and
``wall_ref_s`` scales each job's time by it (probe.py).  A summary
goes to standard output, followed by one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (machine facts,
per-pass timings, output digests, every metric) is written to
``bench/out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
WORKLOAD_NAMES = ("exact_dense", "learn_small", "duopoly_fit", "budget_caps")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="import the package, write the workload's inputs to DIR and exit")
    return p.parse_args(argv)


def import_package():
    """Import impulsegames from this checkout's src/, and nowhere else."""
    if not (SRC / "impulsegames" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'impulsegames'}")
    sys.path.insert(0, str(SRC))
    import impulsegames
    if Path(impulsegames.__file__).resolve().parent != SRC / "impulsegames":
        raise SystemExit(f"error: impulsegames imported from {impulsegames.__file__}")
    return impulsegames


# -- set-up ------------------------------------------------------------------

def measure_setup(args, workdir):
    """Wall time of fresh processes that start, import and write the inputs."""
    times, failures = [], []
    for k in range(SETUP_REPEATS):
        target = workdir / f"setup-{k}"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(target)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=120)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            failures.append("setup: timed out")
            continue
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            failures.append(f"setup: exit {proc.returncode}: {proc.stderr.decode()[-200:]}")
        shutil.rmtree(target, ignore_errors=True)
    return times, failures


# -- passes ------------------------------------------------------------------

def run_pass(cli, jobs, outdir, tracer=None, speed=None):
    """Run every job once, back to back; returns (wall_s, per-job results).

    With a ``speed`` sampler (probe.py), the probe runs during the jobs, its
    time is taken out of each job's time, and each result also carries the
    job's reference time.  The pass's wall time is the sum of its job times.
    """
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    results = []
    with speed if speed is not None else contextlib.nullcontext():
        first = speed.count() if speed is not None else 0
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            t0 = time.perf_counter()
            n0 = speed.count() if speed is not None else 0
            try:
                rc, error = cli.main(job.argv + ["--out", str(outdir / job.name)]), None
            except (Exception, SystemExit) as exc:  # a failing job must not stop the run
                rc, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            taken = speed.since(n0) if speed is not None else {}
            results.append({"job": job.name,
                            "seconds": elapsed - sum(sum(xs) for xs in taken.values()),
                            "probes": len(taken.get("interp", ())),
                            "probe_means_s": {k: statistics.fmean(xs)
                                              for k, xs in taken.items() if xs},
                            "rc": rc, "error": error})
        if speed is not None:
            # a job shorter than the sampling interval takes the pass's mean speeds
            whole = {k: statistics.fmean(xs) for k, xs in speed.since(first).items() if xs}
            for job, r in zip(jobs, results):
                r["ref_seconds"] = speed.reference_seconds(
                    r["seconds"], job.kind, r["probe_means_s"] or whole)
    return sum(r["seconds"] for r in results), results


def check_pass(checks, ctx, jobs, outdir, results, first_digests):
    """Check every job's outputs; fills in failures, quality figures, digests."""
    for job, res in zip(jobs, results):
        digest = checks.digests(outdir / job.name)
        res["digests"] = digest
        if res["error"] is None and res["rc"] != 0:
            res["error"] = f"exit code {res['rc']}"
        if res["error"] is None:
            try:
                res["quality"] = checks.CHECKS[job.kind](job, outdir / job.name, ctx)
            except checks.CheckFailed as exc:
                res["error"] = f"check: {exc}"
            except Exception as exc:  # an unreadable output is a failed job
                res["error"] = f"check raised {type(exc).__name__}: {exc}"
        first = first_digests.setdefault(job.name, digest)
        if res["error"] is None and digest != first:
            res["error"] = "outputs differ from the first pass (not byte-reproducible)"


# -- machine facts -------------------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _llc_bytes():
    """Size of the last-level cache of cpu0, from sysfs."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, None)
    for idx in base.glob("index*"):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if level >= best[0]:
            best = (level, value)
    return best[1]


def machine_facts(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # older numpy: the vendor stays unknown
        blas = None
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": _blas_threads(),
            "llc_bytes": _llc_bytes(), "machine": platform.machine(),
            "system": platform.system()}


# -- metrics -----------------------------------------------------------------

def _median(xs):
    return statistics.median(xs) if xs else None


def _kind_time(results, jobs, kinds):
    return sum(r["seconds"] for r, j in zip(results, jobs) if j.kind in kinds)


def end_to_end(jobs, passes, setup_times, peak_rss_mb, attempted, failed):
    """Every end-to-end figure, ``name -> (value, unit)``; None where it does not apply."""
    kinds = {j.kind for j in jobs}

    def per_pass(fn):
        return _median([fn(res) for _, res in passes])

    def work_rate(kind, key):
        if kind not in kinds:
            return None
        work = sum(j.params[key] for j in jobs if j.kind == kind)
        return per_pass(lambda res: work / _kind_time(res, jobs, {kind}))

    quality = [r.get("quality", {}) for _, res in passes for r in res]

    def worst(key):
        vals = [q[key] for q in quality if key in q]
        return max(vals) if vals else None

    solve_kinds = {"solve", "budget"} & kinds
    return {
        "setup_s": (_median(setup_times), "s"),
        "wall_ref_s": (per_pass(lambda res: sum(r["ref_seconds"] for r in res)), "s"),
        "wall_s": (_median([wall for wall, _ in passes]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "solve_s": (per_pass(lambda res: _kind_time(res, jobs, solve_kinds))
                    if solve_kinds else None, "s"),
        "oracle_s": (per_pass(lambda res: _kind_time(res, jobs, {"oracle"}))
                     if "oracle" in kinds else None, "s"),
        "learn_steps_per_s": (work_rate("learn", "steps"), "1/s"),
        "fit_samples_per_s": (work_rate("fit", "samples"), "1/s"),
        "failed_frac": (failed / attempted, "ratio"),
        "value_err_max": (worst("value_err"), "reward"),
        "q_err_rel_max": (worst("q_err_rel"), "ratio"),
        "bound_ratio_max": (worst("bound_ratio"), "ratio"),
    }


# -- main --------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread: on a shared machine a second thread's speed depends on
    # what else runs there, and a dense solve then varies by +-20% instead of
    # +-3%.  Set before numpy is first imported; set-up processes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_package()
    sys.path.insert(0, str(HERE))
    import workloads
    if args.setup_only:
        workloads.build(args.workload, args.seed, Path(args.setup_only))
        return 0

    import numpy as np
    import checks
    import layers
    import probe
    from impulsegames import cli
    from spans import Tracer

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, failures = measure_setup(args, workdir)
        jobs = workloads.build(args.workload, args.seed, workdir / "inputs")
        ctx = checks.Context()
        speed = probe.SpeedSampler(dense=any(j.kind in probe.DENSE_KINDS for j in jobs))
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.hooks.update(layers.HOOKS)
        passes, traced = [], []
        first_digests = {}
        peak_rss_mb = None
        start = time.perf_counter()
        # untraced and traced passes alternate, and a traced run ends on a traced one
        while not passes or time.perf_counter() - start < args.seconds \
                or (args.trace and len(traced) < len(passes)):
            use_trace = bool(args.trace) and len(passes) > len(traced)
            if use_trace:
                tracer.install()
            try:
                wall, results = run_pass(cli, jobs, workdir / "jobs",
                                         *((tracer, None) if use_trace else (None, speed)))
            finally:
                if use_trace:
                    tracer.uninstall()
            if peak_rss_mb is None:  # before the checks allocate reference data
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            check_pass(checks, ctx, jobs, workdir / "jobs", results, first_digests)
            (traced if use_trace else passes).append((wall, results))
        all_passes = passes + traced
        attempted = SETUP_REPEATS + sum(len(res) for _, res in all_passes)
        failures += [f"pass {k}: {r['job']}: {r['error']}"
                     for k, (_, res) in enumerate(all_passes) for r in res if r["error"]]
        failed = len(failures)
        e2e = end_to_end(jobs, passes, setup_times, peak_rss_mb, attempted, failed)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_facts(np),
            "jobs": [{"name": j.name, "argv": j.argv} for j in jobs],
            "setup_times_s": setup_times,
            "passes": [{"traced": k >= len(passes), "wall_s": wall,
                        "jobs": [{key: r[key] for key in ("job", "seconds", "ref_seconds",
                                                          "probes", "probe_means_s", "rc",
                                                          "error") if key in r}
                                 for r in res]}
                       for k, (wall, res) in enumerate(all_passes)],
            "digests": first_digests,
            "failures": failures,
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        }
        if args.trace:
            overhead = statistics.median(w for w, _ in traced) / \
                statistics.median(w for w, _ in passes) - 1.0
            rows = layers.metrics(tracer, len(traced), overhead)
            record["per_layer"] = {n: {"value": v, "unit": u} for n, u, _, v in rows}
            shares = tracer.layer_self()
            record["dominant_layer"] = max(shares, key=shares.get)
            tracer.save(OUT / f"spans-{args.workload}.npz")
            wanted = [m["name"] for m in contract["per_layer"]]
            values = {n: (v, u) for n, u, _, v in rows}
        else:
            wanted = [m["name"] for m in contract["end_to_end"]]
            values = e2e
        results_dir = OUT / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
                  "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in e2e.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<20} {shown:>14} {unit}")
    print(f"{'passes':<20} {len(passes):>14} untraced, {len(traced)} traced; "
          f"{attempted} attempted, {failed} failed")
    if args.trace:
        print(f"{'dominant layer':<20} {record['dominant_layer']:>14} "
              f"(self time {shares[record['dominant_layer']] / len(traced):.3f} s per pass)")
    for line in failures[:10]:
        print(f"FAILED {line}")
    metrics = {n: {"value": float(values[n][0] if values[n][0] is not None else 0.0),
                   "unit": values[n][1]} for n in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
