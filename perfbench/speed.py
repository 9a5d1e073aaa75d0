"""The host's speed, sampled while a benchmark pass runs.

On a shared host, neighbours slow a process by up to 2x in phases that last
from seconds to minutes, and CPU time follows wall time, so a plain timing
measures the neighbours as much as the program.  A fixed calibration kernel
of ``mpmath.libmp`` arithmetic, the same kind of work as a pass, is run
every ``INTERVAL_S`` from a timer signal.  Its time, set against
``REFERENCE_S``, says how fast the host ran at that moment; the mean of
those speeds over a pass scales the pass's time to a host of reference
speed:

    scaled time = measured time * mean(REFERENCE_S / kernel time)

The kernel's own time is taken out of the measured time first.  The kernel
touches no state of ``mpmath`` or ``thetal``, so it cannot change a result.
"""

import signal
from statistics import fmean
from time import perf_counter, process_time

from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_mul, round_nearest

KERNEL_TERMS = 400
KERNEL_PREC = 128
# about the kernel's median time on a 2-vCPU Xeon KVM guest; the
# constant only sets the scale, so scaled times read as seconds
REFERENCE_S = 0.0025
INTERVAL_S = 0.1


def kernel():
    """Fixed binary floating-point work: a partial sum of 1/(k^2+1)^2."""
    one, total = from_int(1), from_int(0)
    for k in range(1, KERNEL_TERMS):
        term = mpf_div(one, from_int(k * k + 1), KERNEL_PREC, round_nearest)
        total = mpf_add(total, mpf_mul(term, term, KERNEL_PREC, round_nearest),
                        KERNEL_PREC, round_nearest)
    return total


class Sampler:
    """Runs ``kernel`` on a timer while started, and keeps its times.

    ``wall_s`` and ``cpu_s`` total the kernel runs between ``start`` and
    ``stop``, which the caller takes out of its own timing; the runs that
    ``start`` and ``stop`` make themselves only add speed samples.
    """

    def __init__(self):
        self.samples = []  # kernel wall seconds
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _measure(self):
        wall, cpu = perf_counter(), process_time()
        kernel()
        wall, cpu = perf_counter() - wall, process_time() - cpu
        self.samples.append(wall)
        return wall, cpu

    def _on_timer(self, *_):
        wall, cpu = self._measure()
        self.wall_s += wall
        self.cpu_s += cpu

    def start(self):
        self._measure()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._measure()

    def speed(self) -> float:
        """Mean host speed over the samples; 1 is reference speed."""
        return fmean(REFERENCE_S / s for s in self.samples)

