"""The three seeded workloads the host-cost benchmark drives.

Each workload is built from ``(seed, size)`` alone: the seed picks the
inputs (AES keys and blocks, request payloads and sizes, arrival
times), the program receives only those inputs, and every output is
checked before it counts.

* ``aes-emu`` -- the E1 testbench scaled up: the Dynamic C AES port
  compiled once, then seeded keys x blocks pumped through it on the
  Rabbit emulator.  Every ciphertext is checked against the FIPS-197
  reference.  The emulator tiers do almost all the work.
* ``redirector-bulk`` -- a closed loop of a few long-lived secure
  sessions through the pooled redirector, each making many sequential
  1-3 KiB requests.  The handshake is amortised, so record-layer
  AES/HMAC and busy scheduler passes dominate.
* ``redirector-churn`` -- an open loop of one-request sessions at a
  fixed simulated rate below pool saturation.  Every op pays connect,
  handshake key derivation and teardown; the idle gaps between
  arrivals exercise the costatement idle replay.

Host times are reported at the reference speed of
:mod:`perfbench.probe`: each emulated block is scaled by the probes
timed just before and after it, each redirector request by the probes a
:class:`~perfbench.probe.Sampler` timed during it.

A workload runs in *rounds*.  Round ``r`` draws its inputs from
``(seed, r)``, so the first rounds -- the ones the simulated metrics
are taken from -- are identical however many rounds the host has time
for.  Redirector rounds each run in a fresh simulated world, which
keeps memory flat over a long run.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace

from perfbench.probe import Sampler, Unsampled, probe, scale
from repro.crypto.demokeys import DEMO_PSK
from repro.crypto.prng import CipherRng
from repro.crypto.rijndael import Rijndael
from repro.dync.compiler import CompilerOptions
from repro.dync.runtime.xalloc import XmemAllocator
from repro.issl import (
    CircularLogger,
    IsslContext,
    IsslError,
    RMC2000_ASM,
    RMC2000_PORT,
    UNIX_FULL,
)
from repro.issl.api import issl_bind
from repro.net.bsd import SocketError, socket
from repro.net.dynctcp import DyncTcpStack
from repro.net.host import build_lan
from repro.net.sim import Simulator
from repro.obs import Obs
from repro.rabbit.board import Board, CLOCK_HZ
from repro.rabbit.programs.aes_c import AesC
from repro.services.redirector import (
    TLS_PORT,
    backend_line_server,
    build_pooled_redirector,
)

#: Payload alphabet: mostly lower case, so the backend's ``bytes.upper``
#: reply differs from the request, and never a newline.  Random bytes map
#: onto it through a 256-entry table.
_ALPHABET = b"abcdefghijklmnopqrstuvwxyz0123456789"
_TO_ALPHABET = bytes(_ALPHABET[i % len(_ALPHABET)] for i in range(256))


@dataclass(frozen=True)
class Size:
    """How much work one round is, and how many rounds the simulated
    metrics are taken from."""

    #: aes-emu: one key per round, this many blocks under it.
    aes_blocks: int = 16
    #: redirector-bulk: sessions per round and requests per session.
    bulk_sessions: int = 4
    bulk_requests: int = 16
    #: redirector-churn: one-request sessions per round.
    churn_sessions: int = 42
    #: Every run completes the rounds holding the first ``sim_ops``
    #: attempted ops; the simulated metrics and the traced run's counts
    #: come from exactly these rounds.
    sim_ops: int = 210


#: The committed sizes.
DEFAULT_SIZE = Size()

#: A few-second size for the benchmark's own tests.
TINY_SIZE = Size(aes_blocks=2, bulk_sessions=2, bulk_requests=2,
                 churn_sessions=4, sim_ops=8)


@dataclass
class Round:
    """What one round measured.  Every attempted op ends up counted in
    exactly one of ``completed`` or ``failed``; ``wrong`` counts the
    failures that were wrong outputs (a bad ciphertext or reply).
    ``host_s`` and ``op_host_s`` are at the reference speed, probes
    excluded; ``wall_s`` and ``cpu_s`` are as measured over the whole
    round, probes included."""

    attempted: int = 0
    completed: int = 0
    failed: int = 0
    wrong: int = 0
    host_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    probe_s: list = field(default_factory=list)
    op_host_s: list = field(default_factory=list)
    op_sim_s: list = field(default_factory=list)
    sim_s: float = 0.0
    #: Workload-specific deterministic results (cycles, counters).
    detail: dict = field(default_factory=dict)


def _rng(seed: int, *labels) -> random.Random:
    return random.Random(":".join(str(part) for part in (seed,) + labels))


def _stratified(rng: random.Random, count: int) -> list[float]:
    """``count`` uniform draws on [0, 1), one per equal-width stratum, in
    random order: the seed still picks every value and their order, but
    each round's sample matches the distribution's shape closely, so the
    simulated percentiles vary far less from seed to seed."""
    draws = [(index + rng.random()) / count for index in range(count)]
    rng.shuffle(draws)
    return draws


def _payload(rng: random.Random, size: int) -> bytes:
    return rng.randbytes(size).translate(_TO_ALPHABET)


# ---------------------------------------------------------------------------
# aes-emu
# ---------------------------------------------------------------------------

class AesEmu:
    """The compiled-C AES port on the emulated Rabbit."""

    name = "aes-emu"

    def __init__(self, seed: int, size: Size = DEFAULT_SIZE):
        self.seed = seed
        self.size = size
        self.impl = None

    def build(self) -> None:
        """Compile and burn the port onto a fresh board."""
        self.impl = AesC(Board(), CompilerOptions(), include_decrypt=False)

    def warm_up(self) -> None:
        """One block under a throwaway key, checked like any other."""
        rng = _rng(self.seed, "aes", "warm-up")
        key = rng.randbytes(16)
        block = rng.randbytes(16)
        self.impl.set_key(key)
        ciphertext, _cycles = self.impl.encrypt_block(block)
        if ciphertext != Rijndael(key).encrypt_block(block):
            raise AssertionError("aes-emu: wrong ciphertext in warm-up")

    def round(self, index: int) -> Round:
        rng = _rng(self.seed, "aes", index)
        key = rng.randbytes(16)
        blocks = [rng.randbytes(16) for _ in range(self.size.aes_blocks)]
        # The reference answers are computed outside the timed region:
        # host crypto only checks the emulator here.
        reference = Rijndael(key)
        expected = [reference.encrypt_block(block) for block in blocks]
        impl = self.impl
        result = Round()
        perf, proc = time.perf_counter, time.process_time
        c0, t0 = proc(), perf()
        # Each call is scaled by the probes just before and just after
        # it; the one after a call is the one before the next.
        result.probe_s.append(probe())
        start = perf()
        key_cycles = impl.set_key(key)
        elapsed = perf() - start
        result.probe_s.append(probe())
        host_s = elapsed * scale(result.probe_s[-2:])
        block_cycles = 0
        for block, want in zip(blocks, expected):
            start = perf()
            ciphertext, cycles = impl.encrypt_block(block)
            elapsed = perf() - start
            result.probe_s.append(probe())
            elapsed *= scale(result.probe_s[-2:])
            result.op_host_s.append(elapsed)
            host_s += elapsed
            result.attempted += 1
            if ciphertext == want:
                result.completed += 1
                result.op_sim_s.append(cycles / CLOCK_HZ)
                result.sim_s += cycles / CLOCK_HZ
                block_cycles += cycles
            else:
                result.failed += 1
                result.wrong += 1
        result.host_s = host_s
        result.wall_s = perf() - t0
        result.cpu_s = proc() - c0
        result.detail = {"key_cycles": key_cycles,
                         "block_cycles": block_cycles}
        return result

    @property
    def code_bytes(self) -> int:
        return self.impl.code_size

    @property
    def ops_per_round(self) -> int:
        return self.size.aes_blocks


# ---------------------------------------------------------------------------
# The redirector world shared by both redirector workloads
# ---------------------------------------------------------------------------

#: Pool capacity and one device's xmem budget (one record buffer each).
SLOTS = 8
XMEM_CAPACITY = 64 * 1024

#: redirector-bulk request sizes, bytes (under the 4096-byte line cap).
BULK_MIN_BYTES = 1024
BULK_MAX_BYTES = 3072

#: redirector-churn: sessions offered per simulated second, the client
#: hosts they come from in turn, and the request sizes, mixed evenly.
CHURN_RATE = 2.0
CHURN_CLIENTS = 16
CHURN_SIZES = (32, 128, 512)


class _World:
    """One simulated LAN: the pooled redirector on the RMC2000 host, the
    line backend, and ``clients`` client hosts."""

    def __init__(self, seed: int, label: str, clients: int):
        self.obs = Obs()
        self.sim = Simulator(obs=self.obs)
        names = ["rmc", "backend"] + [f"c{i}" for i in range(clients)]
        _lan, self.hosts = build_lan(self.sim, names)
        self.clients = [self.hosts[f"c{i}"] for i in range(clients)]
        stack = DyncTcpStack(self.hosts["rmc"])
        profile = replace(RMC2000_PORT.with_cost_model(RMC2000_ASM),
                          max_sessions=SLOTS)
        context = IsslContext(
            profile, CipherRng(f"perfbench:{seed}:{label}:server".encode()),
            logger=CircularLogger(capacity=64, obs=self.obs),
            psk=DEMO_PSK, obs=self.obs,
        )
        self.xmem = XmemAllocator(capacity=XMEM_CAPACITY, obs=self.obs)
        backend = self.hosts["backend"]
        backend.spawn(backend_line_server(backend, backlog=SLOTS))
        self.stats: dict = {}
        self.scheduler = build_pooled_redirector(
            stack, context, str(backend.ip_address), slots=SLOTS,
            xmem=self.xmem, stats=self.stats, obs=self.obs,
            handshake_timeout_s=5.0, handshake_retries=1,
            conn_deadline_s=10.0, backend_timeout_s=5.0,
        )
        self.scheduler.start()
        self.server_ip = str(self.hosts["rmc"].ip_address)
        #: Host clock the clients time their requests on.
        self.clock = time.perf_counter
        self.seed = seed
        self.label = label

    def client_context(self, name: str) -> IsslContext:
        return IsslContext(
            UNIX_FULL,
            CipherRng(f"perfbench:{self.seed}:{self.label}:{name}".encode()),
            psk=DEMO_PSK, obs=self.obs,
        )

    def drive(self, processes) -> None:
        """Run the simulation until every given process has finished."""
        for process in processes:
            self.sim.run_until_complete(process, timeout=3600)

    def close(self) -> None:
        self.scheduler.stop()


class _Session:
    """Bookkeeping of one client session, filled by :func:`_client`."""

    __slots__ = ("payloads", "replies", "op_span", "op_sim_s", "error",
                 "due")

    def __init__(self, payloads, due=None):
        self.payloads = payloads
        self.replies: list[bytes] = []
        #: (start, end) of each request on the world's host clock.
        self.op_span: list[tuple[float, float]] = []
        self.op_sim_s: list[float] = []
        self.error: str | None = None
        self.due = due


def _read_line(session):
    buffer = b""
    while b"\n" not in buffer:
        chunk = yield from session.read()
        if not chunk:
            return None
        buffer += chunk
    return buffer.split(b"\n", 1)[0]


def _client(world: _World, host, record: _Session, name: str):
    """Generator: one secure session making ``record.payloads`` requests
    in sequence.  An op starts when its request is written -- or, for an
    open-loop session, at its due time, so connect and handshake count
    -- and ends at its verified reply."""
    sim = world.sim
    clock = world.clock
    host_start = clock() if record.due is not None else None
    try:
        sock = socket(host)
        yield from sock.connect((world.server_ip, TLS_PORT))
        session = issl_bind(world.client_context(name), sock, role="client")
        yield from session.handshake()
        for payload in record.payloads:
            sim_start = sim.now if record.due is None else record.due
            start = clock() if host_start is None else host_start
            yield from session.write(payload + b"\n")
            reply = yield from _read_line(session)
            if reply is None:
                record.error = "connection closed before the reply"
                break
            record.replies.append(reply)
            record.op_span.append((start, clock()))
            record.op_sim_s.append(sim.now - sim_start)
        yield from session.close()
    except (SocketError, IsslError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"


def _account(result: Round, record: _Session, factor) -> None:
    """Check every reply against ``payload.upper()`` byte for byte and
    count each attempted request exactly once.  ``factor(start, end)``
    scales a request's host time to the reference speed."""
    for index, payload in enumerate(record.payloads):
        result.attempted += 1
        if index >= len(record.replies):
            result.failed += 1  # refused, reset or cut short
        elif record.replies[index] != payload.upper():
            result.failed += 1
            result.wrong += 1
        else:
            result.completed += 1
            start, end = record.op_span[index]
            result.op_host_s.append((end - start) * factor(start, end))
            result.op_sim_s.append(record.op_sim_s[index])


class _RedirectorWorkload:
    name = ""
    #: Time probes during rounds (off where host time goes to layers).
    sampled = True

    def __init__(self, seed: int, size: Size = DEFAULT_SIZE):
        self.seed = seed
        self.size = size

    def build(self) -> None:
        """The redirector needs no compile step: set-up is the world
        build plus the warm-up session."""
        self.warm_world = _World(self.seed, "warm-up", 1)

    def warm_up(self) -> None:
        world = self.warm_world
        payload = _payload(_rng(self.seed, self.name, "warm-up"), 64)
        record = _Session([payload])
        process = world.clients[0].spawn(
            _client(world, world.clients[0], record, "warm-up"))
        world.drive([process])
        world.close()
        result = Round()
        _account(result, record, Unsampled.factor)
        if result.completed != 1:
            raise AssertionError(f"{self.name}: warm-up request failed: "
                                 f"{record.error}")
        self.warm_world = None

    def _run(self, world: _World, processes, records) -> Round:
        result = Round()
        perf, proc = time.perf_counter, time.process_time
        c0, t0 = proc(), perf()
        with Sampler() if self.sampled else Unsampled() as sampler:
            world.clock = sampler.clock
            start = sampler.clock()
            world.drive(processes)
            end = sampler.clock()
        result.wall_s = perf() - t0
        result.cpu_s = proc() - c0
        result.probe_s = sampler.seconds
        result.host_s = (end - start) * sampler.factor(start, end)
        world.close()
        for record in records:
            _account(result, record, sampler.factor)
        sim = world.sim
        result.sim_s = sim.now
        snapshot = world.obs.metrics.snapshot()
        counters = dict(snapshot["counters"])
        result.detail = {
            "passes": world.scheduler.passes,
            # Events the simulator dispatched: scheduled minus pending.
            "events": sim._seq - sim.pending_events,
            "frames": sum(host.interface.frames_sent
                          for host in world.hosts.values()),
            "redirected": world.stats.get("redirected", 0),
            "refused": sum(value for name, value in counters.items()
                           if name.startswith("redirector.refused.")),
            "handoffs": counters.get("redirector.slots.handoffs", 0),
            "peak_occupied": snapshot["gauges"].get(
                "redirector.slots.occupied", {}).get("high_water", 0.0),
            "counters": counters,
        }
        return result


class RedirectorBulk(_RedirectorWorkload):
    """Few long-lived sessions, many sequential 1-3 KiB requests each."""

    name = "redirector-bulk"

    @property
    def ops_per_round(self) -> int:
        return self.size.bulk_sessions * self.size.bulk_requests

    def round(self, index: int) -> Round:
        size = self.size
        rng = _rng(self.seed, self.name, index)
        world = _World(self.seed, f"bulk{index}", size.bulk_sessions)
        span = BULK_MAX_BYTES - BULK_MIN_BYTES + 1
        sizes = [BULK_MIN_BYTES + int(u * span) for u in _stratified(
            rng, size.bulk_sessions * size.bulk_requests)]
        records, processes = [], []
        for number, host in enumerate(world.clients):
            payloads = [_payload(rng, sizes.pop())
                        for _ in range(size.bulk_requests)]
            record = _Session(payloads)
            records.append(record)
            processes.append(host.spawn(
                _client(world, host, record, f"s{number}")))
        return self._run(world, processes, records)


class RedirectorChurn(_RedirectorWorkload):
    """An open loop of fresh one-request sessions at a fixed rate."""

    name = "redirector-churn"

    @property
    def ops_per_round(self) -> int:
        return self.size.churn_sessions

    def round(self, index: int) -> Round:
        size = self.size
        rng = _rng(self.seed, self.name, index)
        world = _World(self.seed, f"churn{index}", CHURN_CLIENTS)
        # Exponential gaps (inverse CDF of stratified draws) and an even
        # mix of request sizes, both in seeded order.
        gaps = [-math.log(1.0 - u) / CHURN_RATE
                for u in _stratified(rng, size.churn_sessions)]
        sizes = [CHURN_SIZES[int(u * len(CHURN_SIZES))]
                 for u in _stratified(rng, size.churn_sessions)]
        due, arrivals = 0.0, []
        for number, (gap, nbytes) in enumerate(zip(gaps, sizes)):
            due += gap
            payload = _payload(rng, nbytes)
            arrivals.append((due, _Session([payload], due=due),
                             world.clients[number % len(world.clients)]))
        records = [record for _due, record, _host in arrivals]

        def generator():
            # Exact in simulated time: each session starts at its due
            # time, so the generator is never late.
            spawned = []
            for number, (when, record, host) in enumerate(arrivals):
                if when > world.sim.now:
                    yield when - world.sim.now
                spawned.append(host.spawn(
                    _client(world, host, record, f"s{number}")))
            for process in spawned:
                if process.alive:
                    yield process.done_event

        process = world.sim.spawn(generator(), name="perfbench:arrivals")
        return self._run(world, [process], records)


WORKLOADS = {cls.name: cls for cls in (AesEmu, RedirectorBulk,
                                       RedirectorChurn)}
