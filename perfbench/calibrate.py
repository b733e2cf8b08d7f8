"""Machine-speed probe: a fixed piece of work, timed alongside the program.

The benchmark runs on shared hosts, where two things move timings that the
program does not control. The hypervisor takes the CPU away to run other
tenants (steal time), and the speed of the CPU the process does get drifts
by 15% or more over tens of seconds. On a shared 2-vCPU Xeon VM, the
middle half of ten runs' wall times spread by 12-34% of their median.

The benchmark therefore times CPU (user + system) time of its own process,
which excludes steal time, and divides it by the host's slowdown: the mean
CPU time of ``kernel``, a fixed workload of the same kind as sirctl's
per-step loops (interpreted float arithmetic, small function calls, stores
into numpy arrays), over ``REFERENCE_S``. Times are reported in CPU seconds
at the reference speed.

``SpeedProbe`` runs the kernel from a SIGALRM handler every ``INTERVAL_S``
of wall time while a pass runs, in the pass's own process and thread, so
the samples cover the same stretch as the program. The probe's own CPU
time is kept in ``spent`` and taken out of the pass time. The timer is
ITIMER_REAL, not ITIMER_PROF: while a process-wide CPU timer is armed,
Linux updates the process CPU clock only at scheduler ticks, which reads
most 2 ms kernel runs as 0.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

clock = time.process_time

# the kernel's CPU time at the reference speed; fixed, it defines the unit of
# every scaled time. It is about the kernel's median on an idle 2-vCPU Intel
# Xeon VM (Python 3.11, numpy 2.4).
REFERENCE_S = 1.7e-3
INTERVAL_S = 0.05  # one probe per 50 ms of pass: about 4% of the pass time
KERNEL_STEPS = 1000
SETUP_PROBES = 10  # kernel runs just before a launch, and again right after set-up


def kernel(steps: int = KERNEL_STEPS) -> float:
    """RK4 steps of an SIR model in plain Python, stored into numpy arrays."""
    beta, gamma, h = 0.16, 1.0 / 30.0, 0.01
    s, i = 1.0 - 1e-5, 1e-5
    ss = np.empty(steps)
    ii = np.empty(steps)

    def rhs(s_: float, i_: float) -> tuple[float, float]:
        flow = beta * s_ * i_
        return -flow, flow - gamma * i_

    for k in range(steps):
        a_s, a_i = rhs(s, i)
        b_s, b_i = rhs(s + 0.5 * h * a_s, i + 0.5 * h * a_i)
        c_s, c_i = rhs(s + 0.5 * h * b_s, i + 0.5 * h * b_i)
        d_s, d_i = rhs(s + h * c_s, i + h * c_i)
        s += h / 6.0 * (a_s + 2.0 * b_s + 2.0 * c_s + d_s)
        i += h / 6.0 * (a_i + 2.0 * b_i + 2.0 * c_i + d_i)
        ss[k] = s
        ii[k] = i
    return float(ss[-1] + ii[-1])


def sample(count: int) -> list[float]:
    """CPU times of ``count`` back-to-back kernel runs."""
    out = []
    for _ in range(count):
        start = clock()
        kernel()
        out.append(clock() - start)
    return out


def slowdown(samples: list[float]) -> float:
    """The host's slowdown against the reference while ``samples`` were taken."""
    return statistics.fmean(samples) / REFERENCE_S


class SpeedProbe:
    """Runs ``kernel`` every ``interval`` seconds of wall time until stopped."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        (took,) = sample(1)
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """This process's CPU time less the probe's so far."""
        return clock() - self.spent
