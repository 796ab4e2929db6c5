"""Differential regression: the dynamic pool at ``slots=3`` against the
static Figure 3 redirector, plus exactly-once buffer release across
every handler exit path.

The listen-mode pool runs the very same handler bodies the static
build does, one per slot, inside one pooled costatement -- so on the
canned fault-scenario corpus its whole verdict (``redirector.*``
counters, client outcomes, even simulated time) must be identical to
the static build's, byte for byte."""

import functools

import pytest

from repro.dync.runtime.xalloc import XmemBufferPool
from repro.faults import scenarios as fscen

#: The canned corpus: one scenario per handler exit path.
_DIFFERENTIAL_SCENARIOS = [
    "baseline",            # clean close
    "stalled-peer",        # progress deadline expired
    "corrupt-app-record",  # MAC failure teardown
    "silent-peer",         # handshake timeout + retry
    "backend-outage",      # backend unreachable
    "slot-exhaustion",     # session-limit refusal
    "xalloc-exhaustion",   # memory refusal
]


def _run(name: str, monkeypatch, **world_kwargs) -> dict:
    runner = fscen.SCENARIOS[name][0]
    if world_kwargs:
        monkeypatch.setattr(
            fscen, "build_world",
            functools.partial(fscen.build_world, **world_kwargs),
        )
    try:
        verdict = runner(9911)
    finally:
        monkeypatch.undo()
    verdict.pop("_registry", None)
    verdict.pop("events", None)
    return verdict


class TestListenModeParity:
    @pytest.mark.parametrize("name", _DIFFERENTIAL_SCENARIOS)
    def test_pooled_slots3_reproduces_static_verdict(self, name,
                                                     monkeypatch):
        static = _run(name, monkeypatch)
        pooled = _run(name, monkeypatch,
                      pooled=True, pool_admission=False)
        assert pooled == static


class StrictBufferPool(XmemBufferPool):
    """A buffer pool that refuses a double release -- the detector the
    exactly-once tests wire through ``build_world``."""

    instances: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.releases = 0
        StrictBufferPool.instances.append(self)

    def release(self, pointer):
        for idle in self._idle:
            assert idle is not pointer, (
                "buffer released twice without an acquire in between"
            )
        self.releases += 1
        super().release(pointer)


#: Exit paths under the admission-mode pool: every scenario must end
#: with each acquired buffer released exactly once.
_RELEASE_SCENARIOS = [
    "baseline",
    "stalled-peer",
    "corrupt-app-record",
    "silent-peer",
    "backend-outage",
    "pool-burst-3",        # slot refusal (refused before acquire)
    "slot-exhaustion",     # session-limit refusal (released after acquire)
    "xalloc-exhaustion",   # memory refusal (the acquire itself fails)
]


class TestExactlyOnceRelease:
    @pytest.mark.parametrize("name", _RELEASE_SCENARIOS)
    def test_every_exit_path_releases_exactly_once(self, name,
                                                   monkeypatch):
        StrictBufferPool.instances = []
        monkeypatch.setattr(fscen, "XmemBufferPool", StrictBufferPool)
        monkeypatch.setattr(
            fscen, "build_world",
            functools.partial(fscen.build_world,
                              pooled=True, pool_admission=True,
                              buffer_pool_slots=3),
        )
        runner = fscen.SCENARIOS[name][0]
        verdict = runner(9911)
        assert StrictBufferPool.instances, "strict pool was not wired in"
        for pool in StrictBufferPool.instances:
            # Exactly once: all acquired buffers came back, none twice
            # (a double release raises inside StrictBufferPool.release).
            assert pool.in_use == 0
            assert pool.releases == pool.acquired_total
        # The scenario itself must still hold under the strict pool.
        assert verdict["ok"], [
            check for check in verdict["checks"] if not check["ok"]
        ]

    def test_strict_pool_detects_double_release(self):
        from repro.dync.runtime.xalloc import XmemAllocator

        StrictBufferPool.instances = []
        pool = StrictBufferPool(XmemAllocator(capacity=8192), 1, 1024)
        pointer = pool.acquire()
        pool.release(pointer)
        with pytest.raises(AssertionError):
            pool.release(pointer)


#: The connection server's instruments, which an idle snapshot lists.
_SERVER_COUNTERS = (
    "redirector.refused.sessions",
    "redirector.refused.memory",
    "redirector.errors.handshake",
    "redirector.errors.backend",
    "redirector.recovered",
)


class TestInstrumentsBeforeFirstConnection:
    @pytest.mark.parametrize("build", [
        {},
        {"pooled": True, "pool_admission": False},
        {"pooled": True, "pool_admission": True},
    ], ids=["static", "pool-listen", "pool-admission"])
    def test_idle_snapshot_lists_server_instruments(self, build):
        world = fscen.build_world(9911, **build)
        world.sim.run(until=1.0)
        snapshot = world.obs.metrics.snapshot()
        for name in _SERVER_COUNTERS:
            assert snapshot["counters"].get(name) == 0, name
        assert snapshot["gauges"].get(
            "redirector.active_connections"
        ) == {"value": 0, "high_water": 0}
