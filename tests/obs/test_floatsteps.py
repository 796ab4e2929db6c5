"""Closed-form repeated float addition against the naive loop."""

import math
import random

import pytest

from repro.obs.floatsteps import repeat_add, run_to, step_runs
from repro.obs.metrics import Histogram

#: The scheduler's default pass overhead.  It is an odd multiple of
#: 2**-69, so in [2**-16, 2**-15), where the ulp is 2**-68, every add
#: of it is a rounding tie.
PASS_OVERHEAD = 10e-6


def _naive(x, c, n):
    for _ in range(n):
        x += c
    return x


def _points(x, c, n):
    points = [x]
    for _ in range(n):
        x += c
        points.append(x)
    return points


def _same(a, b):
    return a.hex() == b.hex()


def _cases(seed, count):
    """Seeded ``(x, c, n)`` across the regimes the closed form splits."""
    rng = random.Random(seed)
    for index in range(count):
        kind = index % 7
        if kind == 0:    # the tie binade, odd and even starts
            x = rng.uniform(2.0 ** -16, 2.0 ** -15)
            c = PASS_OVERHEAD
        elif kind == 1:  # binade crossings on the way up
            e = rng.randint(-40, 40)
            x = 2.0 ** e * (1.0 - rng.random() * 2.0 ** -rng.randint(8, 40))
            c = 2.0 ** (e - rng.randint(2, 40)) * (1.0 + rng.random())
        elif kind == 2:  # from zero
            x = 0.0
            c = rng.random() * 10.0 ** rng.randint(-320, 3)
        elif kind == 3:  # subnormal x
            x = rng.random() * 2.0 ** -1022
            c = rng.choice([rng.random() * 2.0 ** -1030, PASS_OVERHEAD])
        elif kind == 4:  # stagnation: c below half an ulp of x
            x = rng.uniform(1.0, 1e9)
            c = math.ulp(x) * rng.choice([0.5, 0.25, rng.random() * 0.5])
        elif kind == 5:  # a clock of simulated seconds
            x = rng.uniform(0.0, 3600.0)
            c = rng.choice([PASS_OVERHEAD, 1e-6, 50e-6, rng.random()])
        else:            # a histogram total fed one gap
            x = rng.uniform(0.0, 1e3)
            c = rng.choice([PASS_OVERHEAD, 2.0 ** -rng.randint(1, 60)])
        yield x, c, rng.choice([0, 1, 2, 3, 15, 16, 17, 1000,
                                rng.randint(1, 50_000)])


def test_pass_overhead_tie_binade():
    """Every add of 10e-6 in [2**-16, 2**-15) is a tie; it fits there
    once or twice, so the odd and even starts are single steps."""
    u = math.ulp(2.0 ** -16)
    assert PASS_OVERHEAD % u == u / 2
    for m in range(8):
        x = 2.0 ** -16 + m * u
        assert _same(repeat_add(x, PASS_OVERHEAD, 3),
                     _naive(x, PASS_OVERHEAD, 3))
        _runs, point = run_to(x, PASS_OVERHEAD, 2.0 ** -15)
        assert _same(point, _naive(x, PASS_OVERHEAD, 2))


@pytest.mark.parametrize("q", [1, 2, 2 ** 20, 2 ** 20 + 1])
def test_tie_parity(q):
    """With ``c = (q + 1/2) ulp`` every add is a tie: an odd start takes
    one single step to an even point, from which the step is constant."""
    u = math.ulp(1.0)
    c = (q + 0.5) * u
    even, odd = 1.0 + 2 * u, 1.0 + 3 * u
    assert next(step_runs(even, c))[2] > 1
    assert next(step_runs(odd, c))[2] == 1
    for x in (even, odd):
        assert _same(repeat_add(x, c, 5000), _naive(x, c, 5000))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_repeat_add_matches_the_loop(seed):
    for x, c, n in _cases(seed, 700):
        assert _same(repeat_add(x, c, n), _naive(x, c, n)), (x.hex(), c, n)


@pytest.mark.parametrize("x,c", [
    (0.0, PASS_OVERHEAD),
    (2.0 ** -16 + math.ulp(2.0 ** -16), PASS_OVERHEAD),
    (0.999, PASS_OVERHEAD),          # crosses 1.0
    (5e-324, 5e-324),                # subnormal steps
    (1e300, 1e-300),                 # stagnation
    (1.0, 2.0 ** -53),               # a tie on 1.0's ulp: stays put
])
def test_repeat_add_million_steps(x, c):
    assert _same(repeat_add(x, c, 10 ** 6), _naive(x, c, 10 ** 6))


def test_special_operands():
    for x, c in [(-0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (math.inf, 1.0),
                 (1.0, math.inf), (math.inf, -math.inf), (math.nan, 1.0),
                 (1.0, math.nan), (-3.5, 0.25), (2.0, -1e-3)]:
        for n in (0, 1, 2, 7):
            assert _same(repeat_add(x, c, n), _naive(x, c, n)), (x, c, n)


def test_runs_step_like_the_loop():
    """Every step inside a run adds exactly its ``d``, which is also the
    gap ``fl(next - x)`` the scheduler's histogram observes."""
    for x, c, n in _cases(4, 350):
        n = min(n, 3000)
        points = _points(x, c, n)
        index = 0
        for start, d, count in step_runs(x, c):
            if index >= n:
                break
            assert _same(start, points[index])
            for j in range(min(count, n - index)):
                assert _same(start + j * d if j else start, points[index + j])
                assert _same(points[index + j + 1] - points[index + j], d)
            index += count


def test_run_to_finds_the_first_step_at_or_past_the_bound():
    rng = random.Random(5)
    for x, c, n in _cases(5, 700):
        if c <= math.ulp(x) / 2:
            continue  # x never moves: no later step reaches a bound
        points = _points(x, c, max(2, min(n, 3000)))
        k = rng.randint(1, len(points) - 1)
        bound = points[k]
        if rng.random() < 0.5:  # a bound between two points
            bound = (points[k - 1] + points[k]) / 2
        runs, point = run_to(x, c, bound)
        first = next(i for i in range(1, len(points)) if points[i] >= bound)
        assert sum(count for _, _, count in runs) == first
        assert _same(point, points[first])
        assert _same(runs[-1][0] + (runs[-1][2] - 1) * runs[-1][1]
                     if runs[-1][2] > 1 else runs[-1][0], points[first - 1])


def test_run_to_refuses_a_bound_it_never_reaches():
    with pytest.raises(ValueError):
        run_to(1e300, 1e-300, 2e300)


class TestWeightedObserve:
    BOUNDS = (20e-6, 50e-6, 1e-3)

    def _state(self, histogram):
        return (histogram.count, histogram.total.hex(), histogram.counts,
                histogram.overflow, repr(histogram._memo_value),
                histogram._memo_index)

    @pytest.mark.parametrize("value", [
        10e-6, 20e-6, 3.3e-5, 1e-3, 0.5, math.nan, -1.0, 0.0])
    @pytest.mark.parametrize("weight", [1, 2, 3, 17, 4096])
    def test_equals_weight_single_observes(self, value, weight):
        weighted = Histogram("h", self.BOUNDS)
        single = Histogram("h", self.BOUNDS)
        for histogram in (weighted, single):
            histogram.observe(0.123)  # a non-zero total to add onto
            histogram.observe(20e-6)  # and a memo to hit or replace
        weighted.observe(value, weight)
        for _ in range(weight):
            single.observe(value)
        assert self._state(weighted) == self._state(single)

    def test_sequence_of_runs(self):
        rng = random.Random(6)
        weighted = Histogram("h", self.BOUNDS)
        single = Histogram("h", self.BOUNDS)
        for _ in range(200):
            value = rng.choice([10e-6, 10.000000000000001e-6, 4e-5, 2.0])
            weight = rng.randint(1, 300)
            weighted.observe(value, weight)
            for _ in range(weight):
                single.observe(value)
        assert self._state(weighted) == self._state(single)
