"""A speed probe of the machine, sampled while the jobs run.

The machine the benchmark is run on may be shared.  Its speed then moves by
30-80% over stretches of a fraction of a second to minutes as other tenants
come and go, and a run that lands in a slow stretch reads slower whatever
the program does.

``SpeedSampler`` measures that speed at the moments the program runs: a
timer signal interrupts the process every ``INTERVAL_S`` of wall time, and
the handler times fixed work that touches nothing of the package:

- ``interp``: ``LOOPS`` turns of a Python loop of small numpy reads and
  writes, about 0.7 ms: the speed of interpreter-bound code;
- ``gather``: a sum over ``GATHERS`` random elements of a 64 MB buffer,
  about 0.4 ms: the memory latency that sweeps over large kernels see.  The
  buffer is made only when the workload has dense jobs, so the other
  workloads' ``peak_rss_mb`` does not carry it.

The handler's time is taken out of the job's time.  A job's *reference
time* is its time scaled by ``REF_S`` / the mean probe time during the job,
with the ``gather`` probe for ``DENSE_KINDS`` and the ``interp`` probe for
the others.  It reads as the job's time on a machine where the probe takes
``REF_S`` (about what it took on the tuning machine): a program that gets
20% slower still reads 20% slower, while the machine's drift cancels out.

On the tuning machine, over 100-second runs of repeated jobs, the job time
tracked its probe with log-log correlations of 0.95 (learner jobs, interp),
0.81 (an 800-state solve, gather) and 0.92 (a budgeted solve, gather).
Scaling cut the job-to-job spread of the log time from 0.14 to 0.05, 0.10
to 0.06 and 0.08 to 0.04.  The signal waits for a running numpy call to
return, so dense jobs are sampled between their array operations.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
LOOPS = 200
GATHERS = 20_000
# Median probe times on the tuning machine.  They fix only the scale of the
# reference times, never their ratio between commits.
REF_S = {"interp": 0.00067, "gather": 0.00039}

DENSE_KINDS = frozenset({"solve", "budget"})


def kind_of(job_kind: str) -> str:
    return "gather" if job_kind in DENSE_KINDS else "interp"


class SpeedSampler:
    """Context manager that samples the probes until it exits."""

    def __init__(self, dense: bool):
        rng = np.random.default_rng(12345)
        self.samples: dict[str, list[float]] = {"interp": []}
        self._table = np.zeros((5, 3))
        self._draws = rng.random(LOOPS)
        self._buffer = None
        if dense:
            self.samples["gather"] = []
            self._buffer = rng.random(8_000_000)
            self._index = rng.integers(0, len(self._buffer), GATHERS)
        self._previous = None

    def _probe(self, signum, frame):
        q, draws = self._table, self._draws
        t0 = time.perf_counter()
        for i in range(LOOPS):
            row = q[i % 5]
            b = int(np.argmax(row))
            q[i % 5, b] += 0.01 * (float(draws[i]) - float(row[b]))
        t1 = time.perf_counter()
        if self._buffer is not None:
            self._buffer[self._index].sum()
            self.samples["gather"].append(time.perf_counter() - t1)
        self.samples["interp"].append(t1 - t0)  # last: count() moves once a sample is whole

    def count(self) -> int:
        return len(self.samples["interp"])

    def since(self, start: int) -> dict:
        """The samples of each kind from sample ``start`` on."""
        return {kind: xs[start:self.count()] for kind, xs in self.samples.items()}

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @staticmethod
    def reference_seconds(seconds: float, job_kind: str, probe_means: dict) -> float:
        """A job's time scaled to its probe's reference speed (as it is, without samples)."""
        kind = kind_of(job_kind)
        mean = probe_means.get(kind)
        return seconds if mean is None else seconds * REF_S[kind] / mean
