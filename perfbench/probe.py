"""Host-speed probe: a fixed pure-Python kernel timed beside the
program's work, so the host's speed at that moment can be divided out.

A shared host's speed wanders: on the 2-vCPU KVM guest the bounds were
set on, the same emulated AES block took anywhere from 26 to 60 ms
within one run, in phases lasting seconds to minutes, while the CPU the
process was given barely changed.  A Python kernel timed right beside an
op slows down with it, so op time over probe time is steady where op
time alone is not.  The benchmark therefore reports host times at the
*reference speed*, the speed at which one probe takes ``REFERENCE_S``:
a measured time ``t`` next to a probe of ``p`` seconds counts as
``t * REFERENCE_S / p``.

Where the program's work is one long call -- a simulated redirector
round -- a :class:`Sampler` times the probe from a timer signal every
``INTERVAL_S`` of wall time while the call runs, and each op is scaled
by the probes timed during it.

The kernel lives here, apart from the program, so no change to the
program moves it: a faster emulator or crypto layer shows in full.  It
mixes the two kinds of work the program's host time goes to -- table
lookups over small integer lists, as in the crypto layers, and dispatch
through a table of small functions over a register dict, as in the
emulator -- in about ``REFERENCE_S`` on that host.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: The probe's duration at the reference speed, seconds.
REFERENCE_S = 1e-3

#: Wall seconds between a :class:`Sampler`'s probes.
INTERVAL_S = 0.05

_SBOX = [((i * 0x1F) ^ (i >> 3) ^ 0x63) & 0xFF for i in range(256)]


def _mix(state: list, rounds: int) -> list:
    sbox = _SBOX
    for _ in range(rounds):
        state = [sbox[byte] for byte in state]
        state = [state[(i * 5) & 15] for i in range(16)]
        mixed = []
        for column in range(0, 16, 4):
            a, b, c, d = state[column:column + 4]
            x = a ^ b ^ c ^ d
            mixed += [a ^ x ^ ((a << 1) & 0xFF), b ^ x, c ^ x ^ (c >> 1),
                      d ^ x]
        state = mixed
    return state


def _add(regs):
    regs["a"] = (regs["a"] + regs["b"]) & 0xFFFF


def _xor(regs):
    regs["b"] = (regs["b"] ^ regs["a"]) & 0xFFFF


def _step(regs):
    regs["pc"] += 1


_OPS = (_add, _xor, _step)


def _dispatch(steps: int) -> int:
    regs = {"a": 1, "b": 2, "pc": 0}
    ops = _OPS
    for i in range(steps):
        ops[i % 3](regs)
    return regs["a"]


def kernel() -> int:
    """The fixed work one probe times."""
    return _mix(list(range(16)), 40)[0] ^ _dispatch(3600)


def probe() -> float:
    """Host seconds one run of :func:`kernel` takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def probes(count: int) -> list[float]:
    return [probe() for _ in range(count)]


def scale(samples) -> float:
    """Factor from host seconds measured beside ``samples`` to seconds
    at the reference speed."""
    return REFERENCE_S / statistics.median(samples)


class Sampler:
    """Times the probe every ``INTERVAL_S`` of wall time while active,
    from a ``SIGALRM`` handler, so probes land inside long calls.

    :meth:`clock` is ``perf_counter`` less the time spent in probes, so
    intervals read on it exclude them; :meth:`factor` scales such an
    interval to the reference speed by the probes timed during it.
    """

    def __init__(self):
        #: Probe start times on :meth:`clock`, and their durations.
        self.when: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _tick(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.when.append(start - self.spent)
        self.seconds.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "Sampler":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def factor(self, start: float, end: float) -> float:
        """Scale for the :meth:`clock` interval ``start``..``end``: the
        probes timed during it and the ones just before and after it,
        or the nearest ones when none fall that close."""
        low = bisect.bisect_left(self.when, start - INTERVAL_S)
        high = bisect.bisect_right(self.when, end + INTERVAL_S)
        chosen = (self.seconds[low:high]
                  or self.seconds[max(low - 1, 0):low + 1])
        return scale(chosen)


class Unsampled:
    """A :class:`Sampler` stand-in that probes nothing and scales by 1,
    for runs whose host time is attributed to layers instead."""

    seconds: tuple = ()

    def __enter__(self) -> "Unsampled":
        return self

    def __exit__(self, *_exc) -> None:
        pass

    @staticmethod
    def clock() -> float:
        return time.perf_counter()

    @staticmethod
    def factor(_start: float, _end: float) -> float:
        return 1.0
