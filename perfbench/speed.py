"""Machine-speed reference: a fixed kernel timed beside the program, on its core.

On a shared host (measured on a 2-vCPU Intel Xeon guest) the core this
benchmark gets runs at two speeds: when neighbours load the host, every
instruction takes up to ~1.8x longer, in phases that last from seconds to
minutes.  CPU time inflates as much as
wall time (nothing is stolen; each instruction is slower), so raw times of
the same unit swing by 30-50% between runs, hiding any change smaller than
that.

While a run measures, :class:`SpeedSampler` keeps a child process on the
program's core (the run confines itself and its children to one core)
timing a small fixed kernel - NumPy work on small arrays plus
interpreter-bound arithmetic, the same mix as the program's - in CPU
seconds, every ``PERIOD_S``.  The scheduler interleaves the child with the
program, so the kernel samples the core's speed throughout each unit, never
while the program runs beside it.  Over a 200-second run of 1,000-link
fleets, the kernel's mean during a fleet correlates at 0.98 with the fleet's
wall time, and the fleets' wall times, once scaled, spread by 5% where raw
they spread by 23%.

Every time a run reports is therefore in reference seconds: the measured
wall time scaled by ``REFERENCE_S`` over the kernel's mean time during that
interval, i.e. the seconds it would take on a machine where the kernel
takes ``REFERENCE_S``.  The kernel is benchmark code only; no change to the
program can speed it up or slow it down.  The child sleeps between passes,
taking ~4% of the core, alike for every program.

Run as a script, this file is that child: it times the kernel until its
standard input closes, then prints one ``start seconds`` line per pass.
"""

from __future__ import annotations

import bisect
import select
import statistics
import subprocess
import sys
import time

import numpy as np

#: Kernel CPU seconds that define one reference second: about the kernel's
#: time on a 2-vCPU Intel Xeon guest between its fast and slow phases.
REFERENCE_S = 0.0025

#: Pause between two kernel passes of the sampler.
PERIOD_S = 0.05

#: Seconds the sampler may take to start, or to report once told to stop.
SAMPLER_TIMEOUT_S = 30


def kernel_seconds(block: np.ndarray) -> float:
    """CPU seconds of one pass of the reference kernel over *block*."""
    started = time.process_time()
    total = 0.0
    for step in range(40):
        rotated = block * np.exp(1j * (step * 0.01))
        total += float(np.abs(np.fft.ifft(rotated, axis=1)).sum())
        total += sum(k * 0.5 for k in range(300))
    elapsed = time.process_time() - started
    if not np.isfinite(total):
        raise RuntimeError("reference kernel produced a non-finite result")
    return elapsed


class SpeedSampler:
    """Runs the sampler child while open and turns wall seconds into reference ones.

    Use as a context manager around the timed part of a run; :meth:`scale` is
    available once the block has exited.  ``time.perf_counter`` is the
    system-wide monotonic clock, so the child's timestamps and the parent's
    share one time line.
    """

    def __init__(self) -> None:
        self._child: subprocess.Popen[str] | None = None
        self._starts: list[float] = []
        self._seconds: list[float] = []

    def __enter__(self) -> "SpeedSampler":
        self._child = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready, _, _ = select.select([self._child.stdout], [], [], SAMPLER_TIMEOUT_S)
        if not ready or self._child.stdout.readline().strip() != "ready":
            self._stop()
            raise RuntimeError("the speed sampler did not start")
        return self

    def __exit__(self, *exc_info: object) -> None:
        lines = self._stop()
        for line in lines:
            start, seconds = map(float, line.split())
            self._starts.append(start)
            self._seconds.append(seconds)
        if not self._starts and exc_info[0] is None:
            raise RuntimeError("the speed sampler recorded no kernel pass")

    def _stop(self) -> list[str]:
        """Close the child's input, collect its output and wait for it to end."""
        child, self._child = self._child, None
        try:
            output, _ = child.communicate(input="", timeout=SAMPLER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise
        return output.splitlines()

    def scale(self, start: float, end: float) -> float:
        """Factor turning wall seconds spent in [start, end] into reference seconds.

        The kernel passes that began in the interval give the machine's speed
        there; an interval too short to hold one uses the nearest pass.
        """
        low = bisect.bisect_left(self._starts, start)
        high = bisect.bisect_right(self._starts, end)
        if high > low:
            kernel = statistics.fmean(self._seconds[low:high])
        else:
            nearest = min(
                range(max(low - 1, 0), min(low + 1, len(self._starts))),
                key=lambda index: abs(self._starts[index] - start),
            )
            kernel = self._seconds[nearest]
        return REFERENCE_S / kernel


def sample() -> None:
    """The sampler child: time the kernel every ``PERIOD_S`` until stdin closes."""
    block = np.random.default_rng(0).standard_normal((64, 30)) * (1.0 + 0.5j)
    kernel_seconds(block)  # the first pass pays one-off costs
    print("ready", flush=True)
    passes = []
    while True:
        started = time.perf_counter()
        passes.append((started, kernel_seconds(block)))
        readable, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if readable and not sys.stdin.readline():
            break
    print("\n".join(f"{start!r} {seconds!r}" for start, seconds in passes))


if __name__ == "__main__":
    sample()
