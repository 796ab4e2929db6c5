"""Per-layer host-time ledger: self time and call counts at layer
boundaries, recorded from outside the program.

:meth:`Ledger.install` replaces selected class attributes (and the
module-level functions listed beside them, in every module that imported
them by name) with timing wrappers, so every importer sees the wrapper
and no program file changes.  Generators get the same treatment: a
generator returned by a wrapped method, started as a simulator process
or bound to a costatement or pool slot is wrapped in a proxy that
charges each resumption to the layer whose module defined it.

Time is charged to the innermost active layer, so a layer's self time
is its spans' duration minus the spans of the layers it called into;
time outside every layer (the benchmark's own code) is
``unattributed``.  The self times therefore add up to the ledger's wall
time exactly.  Boundaries are crossed up to ~10^6 times per run, so
spans are aggregated in memory per layer and per boundary rather than
kept one by one.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

#: Layers, named after the ``src/repro`` modules they cover.  Index 0 of
#: every per-layer array is the unattributed remainder.
LAYERS = ("rabbit", "dync.compiler", "dync.runtime", "net", "issl",
          "crypto", "services", "obs")

#: Module prefix -> layer, for generators whose defining module decides
#: where their resumptions are charged.  Longest prefix first.
_MODULE_LAYERS = (
    ("repro.dync.compiler", "dync.compiler"),
    ("repro.dync.runtime", "dync.runtime"),
    ("repro.rabbit", "rabbit"),
    ("repro.net", "net"),
    ("repro.issl", "issl"),
    ("repro.crypto", "crypto"),
    ("repro.services", "services"),
    ("repro.obs", "obs"),
)

#: The public entry points of each layer: (module, class or None for
#: module-level functions, attribute names).  Only calls that cross
#: *into* a layer need a wrapper; a layer's internal hot paths (the
#: emulator's memory accessors, SHA-1's compression function) are
#: charged to it without one.
BOUNDARIES = {
    "rabbit": [
        ("repro.rabbit.board", "Board", ("program", "run", "run_cycles",
                                         "call")),
        ("repro.rabbit.cpu", "Cpu", ("run", "call_subroutine",
                                     "run_cycles")),
        ("repro.rabbit.memory", "RabbitMemory", ("poke", "dump",
                                                 "load_flash", "load_sram")),
        ("repro.rabbit.programs.aes_c", "AesC", ("__init__", "set_key",
                                                 "encrypt_block",
                                                 "decrypt_block")),
    ],
    "dync.compiler": [
        ("repro.dync.compiler.program", "CompiledProgram",
         ("__init__", "call", "poke_bytes", "peek_bytes", "poke_int",
          "peek_int")),
        ("repro.dync.compiler.codegen", None, ("compile_source",)),
    ],
    "dync.runtime": [
        ("repro.dync.runtime.costate", "CostateScheduler",
         ("start", "stop", "add", "add_pool")),
        ("repro.dync.runtime.costate", "IndexedCofunctionPool",
         ("add_slot", "step_all", "sweep_yield")),
        ("repro.dync.runtime.xalloc", "XmemAllocator", ("xalloc",)),
        ("repro.dync.runtime.xalloc", "XmemBufferPool",
         ("__init__", "acquire", "release")),
    ],
    "net": [
        ("repro.net.sim", "Simulator", ("run", "run_until_complete")),
        ("repro.net.host", None, ("build_lan",)),
        ("repro.net.dynctcp", "DyncTcpStack",
         ("sock_init", "tcp_listen", "tcp_open", "tcp_tick",
          "sock_established", "sock_bytesready", "sock_gets", "sock_puts",
          "sock_read", "sock_write", "sock_close", "sock_abort",
          "sock_wait_established", "sock_wait_input")),
        ("repro.net.bsd", "BsdSocket",
         ("bind", "listen", "accept", "connect", "send", "sendall", "recv",
          "recv_exactly", "close")),
        ("repro.net.bsd", None, ("socket",)),
    ],
    "issl": [
        ("repro.issl.session", "IsslContext",
         ("__init__", "acquire_session_slot", "release_session_slot")),
        ("repro.issl.session", "IsslSession",
         ("__init__", "handshake", "write", "read", "read_exactly",
          "close")),
        ("repro.issl.log", "CircularLogger", ("log",)),
    ],
    "crypto": [
        ("repro.crypto.sha1", "Sha1", ("__init__", "update", "digest",
                                       "copy")),
        ("repro.crypto.md5", "Md5", ("__init__", "update", "digest",
                                     "copy")),
        ("repro.crypto.hmac", "Hmac", ("__init__", "update", "digest")),
        ("repro.crypto.rijndael", "Rijndael", ("__init__", "encrypt_block",
                                               "decrypt_block")),
        ("repro.crypto.aes_ttable", "AesTTable", ("__init__",
                                                  "encrypt_block",
                                                  "decrypt_block")),
        ("repro.crypto.prng", "CipherRng", ("__init__", "next_bytes",
                                            "next_u16")),
        ("repro.crypto.modes", None, ("cbc_encrypt", "cbc_decrypt",
                                      "pkcs7_pad", "pkcs7_unpad")),
        ("repro.crypto.hmac", None, ("hmac_sha1", "hmac_md5",
                                     "constant_time_equal")),
        ("repro.crypto.kdf", None, ("ssl3_prf", "derive_master_secret",
                                    "derive_key_block")),
        ("repro.crypto.sha1", None, ("sha1",)),
        ("repro.crypto.md5", None, ("md5",)),
    ],
    "services": [
        ("repro.services.redirector", None, ("build_pooled_redirector",
                                             "backend_line_server")),
    ],
    "obs": [
        ("repro.obs.metrics", "Counter", ("inc",)),
        ("repro.obs.metrics", "Gauge", ("set",)),
        ("repro.obs.metrics", "Histogram", ("observe",)),
        ("repro.obs.metrics", "QuantileSketch", ("observe",)),
        ("repro.obs.metrics", "MetricsRegistry",
         ("counter", "gauge", "histogram", "sketch", "snapshot")),
        ("repro.obs.trace", "Tracer", ("begin", "end", "add_complete",
                                       "instant")),
        ("repro.obs.recorder", "FlightRecorder",
         ("record", "debug", "info", "warn", "error")),
        ("repro.obs.timeseries", "TimeSeries", ("record", "record_at")),
        ("repro.obs.timeseries", "TelemetryStore", ("series",)),
    ],
}

#: Boundaries whose spans also keep inclusive time (the layer's own
#: time plus everything it called), for per-unit rates.
INCLUSIVE = ("IsslSession.handshake", "IsslSession.write",
             "IsslSession.read")

#: Where a generator handed to the simulator or the costatement runtime
#: is adopted (argument position after ``self``, keyword name).
_GENERATOR_SEAMS = (
    ("repro.net.sim", "Simulator", "spawn", 0, "gen"),
    ("repro.dync.runtime.costate", "Costate", "__init__", 0, "gen"),
    ("repro.dync.runtime.costate", "CofunctionSlot", "__init__", 1, "gen"),
    ("repro.dync.runtime.costate", "CofunctionSlot", "bind", 0, "gen"),
)


def layer_of_module(module_name: str) -> int:
    """Ledger index (0 = unattributed) of the layer a module belongs to."""
    for prefix, layer in _MODULE_LAYERS:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return LAYERS.index(layer) + 1
    return 0


class Ledger:
    """Self time per layer, call counts per boundary."""

    def __init__(self):
        self.names = ("unattributed",) + LAYERS
        self.self_ns = [0] * len(self.names)
        self.current = 0
        self.last = 0
        self.stack: list[int] = []
        #: boundary name -> [calls, inclusive ns]
        self.boundaries: dict[str, list] = {}
        #: Costatement and pool-slot generator resumptions.
        self.resumes = [0]
        #: Message bytes given to the SHA-1 and MD5 classes (padding
        #: added inside ``digest`` excluded).
        self.hashed = {"Sha1": [0], "Md5": [0]}
        self._restore: list = []
        self.start_ns = 0
        self.stop_ns = 0
        self.open_spans = 0

    # -- accounting --------------------------------------------------------
    def _cell(self, name: str) -> list:
        cell = self.boundaries.get(name)
        if cell is None:
            cell = self.boundaries[name] = [0, 0]
        return cell

    def wall_ns(self) -> int:
        end = self.stop_ns or time.perf_counter_ns()
        return end - self.start_ns

    def charge_now(self) -> None:
        """Close the open interval (so totals read consistent)."""
        now = time.perf_counter_ns()
        self.self_ns[self.current] += now - self.last
        self.last = now

    def calls(self, name: str) -> int:
        cell = self.boundaries.get(name)
        return 0 if cell is None else cell[0]

    # -- wrappers ----------------------------------------------------------
    def _wrap_function(self, fn, layer: int, name: str):
        cell = self._cell(name)
        clock = time.perf_counter_ns
        stack = self.stack
        self_ns = self.self_ns
        ledger = self
        if inspect.isgeneratorfunction(fn):
            inclusive = name in INCLUSIVE

            def start_generator(*args, **kwargs):
                cell[0] += 1
                return _TracedGenerator(ledger, fn(*args, **kwargs), layer,
                                        cell if inclusive else None)
            return start_generator

        def wrapper(*args, **kwargs):
            cell[0] += 1
            if ledger.current == layer:
                return fn(*args, **kwargs)
            now = clock()
            self_ns[ledger.current] += now - ledger.last
            stack.append(ledger.current)
            ledger.current = layer
            ledger.last = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_ns[layer] += now - ledger.last
                ledger.current = stack.pop()
                ledger.last = now
        return wrapper

    def adopt(self, gen, resumes: list | None = None):
        """Wrap a generator so each resumption is charged to the layer of
        the module that defined it (already-adopted ones pass through)."""
        if not inspect.isgenerator(gen):
            return gen
        module = gen.gi_frame.f_globals.get("__name__", "") \
            if gen.gi_frame is not None else ""
        return _TracedGenerator(self, gen, layer_of_module(module), None,
                                resumes)

    def _wrap_seam(self, fn, position: int, keyword: str, resumes):
        ledger = self

        def adopting(obj, *args, **kwargs):
            if keyword in kwargs:
                kwargs[keyword] = ledger.adopt(kwargs[keyword], resumes)
            elif len(args) > position:
                args = list(args)
                args[position] = ledger.adopt(args[position], resumes)
            return fn(obj, *args, **kwargs)
        return adopting

    def _meter_hash(self, cls, counter: list) -> None:
        """Count message bytes into ``counter``: data given to ``update``
        (which the constructor forwards its data to), outside the
        class's own ``digest``."""
        depth = [0]
        update, digest = cls.update, cls.digest

        def metered_update(obj, data):
            if not depth[0]:
                counter[0] += len(data)
            return update(obj, data)

        def metered_digest(obj):
            depth[0] += 1
            try:
                return digest(obj)
            finally:
                depth[0] -= 1

        self._replace(cls, "update", metered_update)
        self._replace(cls, "digest", metered_digest)

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_function(self, original, wrapper) -> None:
        """Point every loaded module's reference to ``original`` (by any
        name) at ``wrapper``: ``from m import f`` copies the binding."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    self._replace(module, attr, wrapper)

    # -- lifecycle ---------------------------------------------------------
    def install(self) -> "Ledger":
        """Wrap every boundary; the ledger's clock starts now."""
        for module_name, owner_name, method, position, keyword in \
                _GENERATOR_SEAMS:
            owner = getattr(importlib.import_module(module_name), owner_name)
            resumes = (self.resumes if owner_name != "Simulator" else None)
            self._replace(owner, method, self._wrap_seam(
                owner.__dict__[method], position, keyword, resumes))
        for cls_name, counter in self.hashed.items():
            module = importlib.import_module(
                f"repro.crypto.{cls_name.lower()}")
            self._meter_hash(getattr(module, cls_name), counter)
        for layer_name, targets in BOUNDARIES.items():
            layer = LAYERS.index(layer_name) + 1
            for module_name, owner_name, attrs in targets:
                module = importlib.import_module(module_name)
                if owner_name is None:
                    for attr in attrs:
                        original = getattr(module, attr)
                        self._rebind_function(original, self._wrap_function(
                            original, layer, attr))
                    continue
                owner = getattr(module, owner_name)
                for attr in attrs:
                    self._replace(owner, attr, self._wrap_function(
                        owner.__dict__[attr], layer,
                        f"{owner_name}.{attr}"))
        self.start_ns = self.last = time.perf_counter_ns()
        return self

    def uninstall(self) -> None:
        """Restore every replaced attribute; the ledger's clock stops.
        Spans still open then (a layer entered and never left) are
        counted in ``open_spans``."""
        self.charge_now()
        self.stop_ns = self.last
        self.open_spans = len(self.stack) + (self.current != 0)
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def report(self) -> dict:
        """Self seconds per layer plus the unattributed remainder, and
        the wall time they add up to."""
        wall = self.wall_ns()
        layers = {name: self.self_ns[index] / 1e9
                  for index, name in enumerate(self.names) if index}
        return {
            "wall_s": wall / 1e9,
            "self_s": layers,
            "unattributed_s": self.self_ns[0] / 1e9,
            "open_spans": self.open_spans,
            "boundaries": {name: {"calls": cell[0],
                                  "inclusive_s": cell[1] / 1e9}
                           for name, cell in sorted(self.boundaries.items())},
        }


class _TracedGenerator:
    """Generator proxy: each ``send``/``throw`` is a span of ``layer``.

    Supports everything the simulator, the costatement runtime and
    ``yield from`` use: iteration, ``send``, ``throw``, ``close`` and the
    ``StopIteration`` return value.
    """

    __slots__ = ("_ledger", "_gen", "_layer", "_cell", "_resumes")

    def __init__(self, ledger: Ledger, gen, layer: int, cell=None,
                 resumes=None):
        self._ledger = ledger
        self._gen = gen
        self._layer = layer
        self._cell = cell
        self._resumes = resumes

    @property
    def __name__(self):
        return self._gen.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._gen.send, None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def close(self):
        return self._resume(lambda _value: self._gen.close(), None)

    def _resume(self, resume, *args):
        ledger = self._ledger
        if self._resumes is not None:
            self._resumes[0] += 1
        layer = self._layer
        clock = time.perf_counter_ns
        start = now = clock()
        ledger.self_ns[ledger.current] += now - ledger.last
        ledger.stack.append(ledger.current)
        ledger.current = layer
        ledger.last = now
        try:
            return resume(*args)
        finally:
            now = clock()
            ledger.self_ns[layer] += now - ledger.last
            ledger.current = ledger.stack.pop()
            ledger.last = now
            if self._cell is not None:
                self._cell[1] += now - start
