"""The host's speed, sampled with a fixed kernel while a workload runs.

The benchmark runs on a share of a shared machine, where one CPU second
buys a varying amount of work: other tenants on the same cores and caches
slow the same job by 15-40%, within seconds and for minutes at a time.
CPU time hides the time the host takes the CPU away, not this.

``SpeedProbe`` runs ``kernel`` every ``PERIOD_S`` of wall time from a
SIGALRM handler, between the bytecodes of whatever conserva is doing, and
keeps its CPU time.  A job's speed factor is the mean, over the samples
taken while the job ran, of ``REFERENCE_S`` over the sample.  The samples
fall at even steps of wall time, which are even steps of the job's CPU
time while the host lets it run, so the job's CPU time times its factor is
the CPU time it would have taken on the host at reference speed.  The
kernel is fixed benchmark code, so a change to conserva moves the job's
CPU time and not the factor.
"""

from __future__ import annotations

import signal
import statistics
from time import process_time

import numpy as np

PERIOD_S = 0.05
# the reference speed is the one at which kernel() takes this much CPU time;
# about its median on the 2-vCPU Intel Xeon (family 6, model 207) KVM guest
# of the README's numbers, with Python 3.11.7 and numpy 2.4.6
REFERENCE_S = 0.85e-3

# 1000 x 3 like rd-sod's states; it tracked rd-sod and af-shock better
# than 400 x 3 or 4000 x 3 arrays, scatters or plain-Python arithmetic
_STATE = np.stack([np.linspace(1.0, 2.0, 1000), np.linspace(-0.5, 0.5, 1000),
                   np.linspace(2.5, 3.5, 1000)], axis=-1)


def kernel(repeats=20):
    """Fixed work in conserva's mix: a flux and wave-speed evaluation on
    small numpy arrays, bound by numpy call overhead as conserva's steps are."""
    total = 0.0
    for _ in range(repeats):
        rho, mom, energy = _STATE[:, 0], _STATE[:, 1], _STATE[:, 2]
        vel = mom / rho
        p = 0.4 * (energy - 0.5 * mom * vel)
        flux = np.stack([mom, mom * vel + p, (energy + p) * vel], axis=-1)
        total += float((np.abs(vel) + np.sqrt(1.4 * p / rho)).max()) + float(flux.sum())
    return total


class SpeedProbe:
    """Samples ``kernel``'s CPU time every PERIOD_S while started."""

    def __init__(self):
        self.samples = []
        self.cpu_s = 0.0  # CPU time spent sampling

    def _sample(self, signum, frame):
        c0 = process_time()
        kernel()
        dt = process_time() - c0
        self.samples.append(dt)
        self.cpu_s += dt

    def start(self):
        for _ in range(5):  # warm the kernel's code and arrays
            kernel()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def cpu(self):
        """The process's CPU time less the time spent sampling."""
        return process_time() - self.cpu_s

    def factor(self, since):
        """Mean of REFERENCE_S / sample over the samples from index ``since``
        on; the latest sample alone when none was taken since."""
        window = self.samples[since:] or self.samples[-1:]
        return statistics.fmean(REFERENCE_S / s for s in window) if window else 1.0
