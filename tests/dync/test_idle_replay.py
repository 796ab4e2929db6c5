"""The big loop's idle fast-forward against resuming every pass.

A costatement that yields an idle token promises that resuming it again
is a no-op until a simulator event runs or its deadline arrives, and the
scheduler then replays the idle passes in closed form.  Here each world
runs twice: once as built, and once with every costatement wrapped so
that each idle token comes out as a bare ``yield`` -- the promise is
forfeited and every pass resumes every generator.  Both runs must leave
the same metrics, telemetry, clock, pass counts and per-costatement
bookkeeping, float for float.
"""

import pytest

from repro.crypto.demokeys import DEMO_PSK
from repro.crypto.prng import CipherRng
from repro.dync.runtime.costate import (
    IDLE,
    CostateScheduler,
    _IdleToken,
    idle_until,
    wait_delay,
)
from repro.issl import UNIX_FULL, IsslContext
from repro.issl.api import issl_bind
from repro.net.bsd import socket
from repro.net.dynctcp import DyncTcpStack
from repro.net.host import build_lan
from repro.net.sim import Simulator
from repro.obs import NULL_OBS, Obs
from repro.services.redirector import (
    TLS_PORT,
    backend_line_server,
    build_pooled_redirector,
)

#: One-request sessions: (due time in simulated seconds, payload).
SESSIONS = ((0.004, b"alpha"), (0.09, b"bravo"), (0.093, b"charlie"),
            (0.31, b"delta"))


def _wrap(gen, forfeit, resumes):
    """Count each resumption; with ``forfeit``, re-yield every idle
    token as a bare ``yield``."""
    try:
        for value in gen:
            resumes[0] += 1
            yield None if forfeit and type(value) is _IdleToken else value
    finally:
        gen.close()


def _wrap_all(scheduler, forfeit):
    resumes = [0]
    for costate in scheduler._costates:
        costate.gen = _wrap(costate.gen, forfeit, resumes)
    return resumes


def _client(sim, host, server_ip, due, payload, replies):
    yield due - sim.now
    sock = socket(host)
    yield from sock.connect((server_ip, TLS_PORT))
    context = IsslContext(UNIX_FULL, CipherRng(b"client:" + payload),
                          psk=DEMO_PSK)
    session = issl_bind(context, sock, role="client")
    yield from session.handshake()
    yield from session.write(payload + b"\n")
    reply = b""
    while b"\n" not in reply:
        chunk = yield from session.read()
        if not chunk:
            break
        reply += chunk
    replies.append(reply)
    yield from session.close()


def _redirector_world(obs, forfeit, chunk_s=None):
    """A pooled redirector serving a few one-request clients."""
    sim = Simulator(obs=obs)
    names = ["rmc", "backend"] + [f"c{i}" for i in range(len(SESSIONS))]
    _lan, hosts = build_lan(sim, names)
    backend = hosts["backend"]
    backend.spawn(backend_line_server(backend, backlog=4))
    context = IsslContext(UNIX_FULL, CipherRng(b"server"), psk=DEMO_PSK,
                          obs=obs)
    scheduler = build_pooled_redirector(
        DyncTcpStack(hosts["rmc"]), context, str(backend.ip_address),
        slots=3, obs=obs, handshake_timeout_s=5.0, conn_deadline_s=10.0,
        backend_timeout_s=5.0,
    )
    resumes = _wrap_all(scheduler, forfeit)
    scheduler.start()
    replies = []
    server_ip = str(hosts["rmc"].ip_address)
    clients = [
        hosts[f"c{i}"].spawn(_client(sim, hosts[f"c{i}"], server_ip, due,
                                     payload, replies))
        for i, (due, payload) in enumerate(SESSIONS)
    ]
    if chunk_s is None:
        for process in clients:
            sim.run_until_complete(process, timeout=60)
    else:
        while any(process.alive for process in clients):
            sim.run(until=sim.now + chunk_s)
    assert sorted(replies) == sorted(p.upper() + b"\n" for _, p in SESSIONS)
    return sim, scheduler, obs, resumes


def _timer_world(obs, forfeit, chunk_s=None):
    """Costatements parked on ``wait_delay``, ``idle_until`` deadlines
    and a plain event wait, beside a timer process that sets a flag."""
    sim = Simulator(obs=obs)
    scheduler = CostateScheduler(sim, obs=obs)
    flag = []
    log = []

    def delays():
        for seconds in (0.0123, 0.0005, 0.031):
            yield from wait_delay(scheduler, seconds)
            log.append(("delay", sim.now))

    def deadlines():
        for deadline in (0.002, 0.0071, 0.05):
            while sim.now < deadline:
                yield idle_until(deadline)
            log.append(("deadline", sim.now))

    def waiter():
        while not flag:
            yield IDLE
        log.append(("flag", sim.now))
        yield 0.0004

    def setter():
        yield 0.0219
        flag.append(True)

    for body in (delays, deadlines, waiter):
        scheduler.add(body(), body.__name__)
    resumes = _wrap_all(scheduler, forfeit)
    scheduler.start()
    process = sim.spawn(setter())
    # A far-off event keeps the queue non-empty: on an empty queue the
    # big loop yields every pass (deadlock detection), replaying none.
    sim.call_at(1.0, log.append, ("horizon", 1.0))
    if chunk_s is None:
        scheduler.run_until_all_done(timeout=1.0)
    else:
        while not scheduler.all_done:
            sim.run(until=sim.now + chunk_s)
        scheduler.stop()
    assert process.result is None and not process.alive
    assert [kind for kind, _ in log].count("delay") == 3
    return sim, scheduler, obs, resumes


def _state(sim, scheduler, obs, resumes):
    telemetry = obs.telemetry
    series = {name: (telemetry.series(name).times,
                     telemetry.series(name).values)
              for name in telemetry.names()} if telemetry.enabled else {}
    return {
        "metrics": obs.metrics.to_state() if obs.metrics.enabled else None,
        "telemetry": series,
        "now": sim.now,
        "passes": scheduler.passes,
        "costates": [(c.name, c.passes, c.last_ran_at, c.total_busy_s)
                     for c in scheduler._costates],
    }


def _assert_same(world, obs_factory, **kwargs):
    replayed = world(obs_factory(), forfeit=False, **kwargs)
    forfeited = world(obs_factory(), forfeit=True, **kwargs)
    assert _state(*replayed) == _state(*forfeited)
    # The worlds idle most of the time: forfeiting the promise resumes
    # a generator on every pass, keeping it skips nearly all of them.
    passes = replayed[1].passes
    assert passes > 1000
    assert replayed[3][0] * 10 < passes <= forfeited[3][0]
    return _state(*replayed)


@pytest.mark.parametrize("chunk_s", [None, 0.0137],
                         ids=["to-completion", "chunked"])
@pytest.mark.parametrize("obs_factory", [Obs, lambda: NULL_OBS],
                         ids=["obs-on", "obs-off"])
def test_redirector_replay_matches_resuming_every_pass(obs_factory, chunk_s):
    state = _assert_same(_redirector_world, obs_factory, chunk_s=chunk_s)
    if state["metrics"] is not None:
        gaps = state["metrics"]["histograms"]["costate.gap_s"]
        assert gaps["count"] > state["passes"] // 2
        times, _values = state["telemetry"]["costate.rmc-redirector.passes"]
        assert len(times) == state["passes"] // 16


@pytest.mark.parametrize("chunk_s", [None, 0.0011, 0.0137],
                         ids=["to-completion", "chunked-fine",
                              "chunked-coarse"])
@pytest.mark.parametrize("obs_factory", [Obs, lambda: NULL_OBS],
                         ids=["obs-on", "obs-off"])
def test_deadlines_replay_matches_resuming_every_pass(obs_factory, chunk_s):
    _assert_same(_timer_world, obs_factory, chunk_s=chunk_s)
