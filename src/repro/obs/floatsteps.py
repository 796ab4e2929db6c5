"""Repeated float addition in closed form, byte-identical to the loop.

Two replays must reproduce ``for _ in range(n): x += c`` bit for bit
without looping: a histogram's running ``total`` fed one value ``n``
times (:meth:`repro.obs.metrics.Histogram.observe` with a weight), and
the costatement scheduler's clock advanced one pass overhead per idle
big-loop pass (:mod:`repro.dync.runtime.costate`).

Why a closed form is exact: below the next power of two, every float
``x >= 0`` is a multiple of one ulp ``u``, so ``fl(x + c) - x`` is ``c``
rounded to a multiple of ``u`` -- the same step ``d`` for every ``x`` in
the binade.  The one exception is a rounding tie, which round-half-even
breaks by the parity of ``x/u``; from an even start the step is
constant again, so an odd start costs one single step.  The points
``x + j*d`` of such a run are floats, so they are computed exactly.
Crossing into the next binade, leaving zero or a subnormal, and any
negative or non-finite operand are single steps, taken with the very
float add the loop performs.
"""

from __future__ import annotations

from math import inf, ulp

#: ``x/u`` stays below this inside ``x``'s binade (``u = ulp(x)``).
_GRID = 1 << 53


def step_runs(x: float, c: float):
    """Yield the runs ``(x, d, n)`` of ``x = x + c``, forever.

    From ``x``, each of the next ``n`` steps adds exactly ``d``, the gap
    ``fl(x_next - x)`` the loop would see; the points ``x + j*d`` for
    ``j < n`` are exact, and the next run starts where this one ends
    (``x + c`` for a single step, else ``x + n*d``).  Once ``x`` stops
    moving the run is ``(x, d, inf)`` and the generator ends.
    """
    while True:
        s = x + c
        d = s - x
        if (s == x or s != s) and s.hex() == x.hex():
            # Bitwise fixed point (NaN, inf, or c below half an ulp);
            # hex() keeps -0.0 + 0.0 == 0.0 a real step.
            yield x, d, inf
            return
        if x >= 0.0 and 0.0 < c < inf:
            u = ulp(x)
            k = d / u
            if k < _GRID:
                m = int(x / u)
                n = (_GRID - 1 - m) // int(k)
                # Two equal steps rule out an odd start on a tie; n >= 2
                # keeps both inside the binade, where they are exact.
                if n >= 2 and (s + c) - s == d:
                    yield x, d, n
                    x += n * d
                    continue
        yield x, d, 1
        x = s


def repeat_add(x: float, c: float, count: int) -> float:
    """``for _ in range(count): x += c``, in O(binades) instead of
    O(``count``)."""
    for start, d, n in step_runs(x, c):
        if count < n:
            return start + count * d if count and n != inf else start
        count -= n
    raise AssertionError("unreachable: step_runs ends on an infinite run")


def run_to(x: float, c: float, bound: float) -> tuple[list, float]:
    """The steps of ``x = x + c`` from ``x`` through the first one that
    lands at or past ``bound``, as ``(runs, point)``: the runs
    ``(x, d, n)`` of :func:`step_runs`, the last one cut after that
    step, and the point it landed on.

    The cut is searched with the float quotient, then settled by exact
    comparisons of run points.  Raises :class:`ValueError` if ``x``
    stops moving short of ``bound``.
    """
    runs = []
    for start, d, n in step_runs(x, c):
        if n == 1 or n == inf:
            point = start + c
            if n == inf and point < bound:
                raise ValueError(
                    f"{x!r} + {c!r} stops moving at {start!r} < {bound!r}")
            runs.append((start, d, 1))
            if point >= bound:
                return runs, point
            continue
        if start + n * d < bound:
            runs.append((start, d, n))
            continue
        j = min(n, max(1, int((bound - start) / d)))
        while j > 1 and start + (j - 1) * d >= bound:
            j -= 1
        while start + j * d < bound:
            j += 1
        runs.append((start, d, j))
        return runs, start + j * d
    raise AssertionError("unreachable: step_runs ends on an infinite run")
