"""Every metric the benchmark reports, with its unit, its direction, and
-- for per-layer metrics -- which end-to-end metric it should move on
which workload.  ``BENCHMARK.json`` lists the same names, units and
directions; ``test_perfbench.py`` keeps the two in step.

Where each open ROADMAP performance item should show:

* emulator tier audit -> ``rabbit.*`` on ``aes-emu``
  (``ops_per_s``, ``op_host_ms.*``; nothing on ``redirector-*``);
* host-crypto backend seam -> ``crypto.*`` on ``redirector-bulk`` and
  ``redirector-churn`` (``ops_per_s``; nothing on ``aes-emu``, where host
  crypto only checks answers);
* O(1) costatement scheduler -> ``dync.runtime.*`` on
  ``redirector-churn`` (``ops_per_s``, through the idle replay).
"""

from __future__ import annotations

from collections import namedtuple

Metric = namedtuple("Metric", "name unit better moves")

#: Reported with ``--trace 0``: what a user of the system sees.  An op is
#: one block on ``aes-emu`` and one redirected request on
#: ``redirector-*``.  ``op_host_ms`` times each block call on
#: ``aes-emu``; on ``redirector-*`` it is the host time from an op's
#: start (request written, or session due on the open loop) to its
#: verified reply, other sessions' work included.  ``sim_latency_ms``
#: is the simulated Rabbit time per block on ``aes-emu`` and the
#: client-observed latency on ``redirector-*``.  Host times are at the
#: reference speed of :mod:`perfbench.probe`.
END_TO_END = (
    Metric("setup_s", "s", "lower",
           "imports + median of repeated build and warm-up op"),
    Metric("ops_per_s", "1/s", "higher",
           "verified ops per host second, median over rounds"),
    Metric("op_host_ms.p50", "ms", "lower", "host ms per op, median"),
    Metric("op_host_ms.p90", "ms", "lower", "host ms per op, 90th pct"),
    Metric("peak_rss_mb", "MB", "lower", "host memory high-water"),
    Metric("sim_latency_ms.p50", "ms", "lower",
           "simulated latency per op, median"),
    Metric("sim_latency_ms.p95", "ms", "lower",
           "simulated latency per op, 95th pct"),
    Metric("sim_goodput_rps", "1/s", "higher",
           "verified ops per simulated second"),
)

#: Printed in the report but not in the final line: the final line's
#: metrics must exist, and never read 0, on every workload.
#: ``failed_ratio`` is 0 in a healthy run (the final line's ``failed``
#: carries it), cycles per block exist only on ``aes-emu``, and the
#: open-loop generator is exact in simulated time, so never late.
REPORT_ONLY = (
    Metric("failed_ratio", "ratio", "lower", "failed / attempted ops"),
    Metric("sim_cycles_per_block", "cycles", "lower",
           "aes-emu: Rabbit cycles per block at 30 MHz"),
    Metric("generator_lateness_ms", "ms", "lower",
           "redirector-churn: how late the open loop sent"),
)

_BULK = "redirector-bulk"
_CHURN = "redirector-churn"
_BOTH = "redirector-*"


def _layer(name, moves):
    return (
        Metric(f"{name}.self_s", "s", "lower", moves),
        Metric(f"{name}.self_share", "ratio", "lower", moves),
    )


#: Reported with ``--trace 1``: one layer each, from the traced run.
PER_LAYER = (
    *_layer("rabbit", "ops_per_s, op_host_ms.* on aes-emu; "
            f"no change on {_BOTH}"),
    Metric("rabbit.instructions", "count", "lower",
           "sim_cycles_per_block and ops_per_s on aes-emu"),
    Metric("rabbit.cycles", "count", "lower",
           "sim_latency_ms.*, sim_goodput_rps on aes-emu"),
    Metric("rabbit.host_ns_per_instr", "ns", "lower",
           "ops_per_s, op_host_ms.* on aes-emu"),
    Metric("rabbit.blocks.decoded", "count", "lower",
           "setup_s, op_host_ms.p90 on aes-emu"),
    Metric("rabbit.blocks.translated", "count", "lower",
           "setup_s, op_host_ms.p90 on aes-emu"),
    Metric("rabbit.blocks.translated_execs", "count", "higher",
           "ops_per_s on aes-emu"),
    Metric("rabbit.invalidations", "count", "lower",
           "ops_per_s on aes-emu"),
    *_layer("dync.compiler", "setup_s on aes-emu"),
    Metric("dync.compiler.code_bytes", "bytes", "lower",
           "sim_cycles_per_block, sim_latency_ms.* on aes-emu"),
    *_layer("dync.runtime", f"ops_per_s, mostly on {_CHURN} (idle "
            f"replay), less on {_BULK} (busy passes)"),
    Metric("dync.runtime.passes", "count", "lower",
           f"ops_per_s on {_CHURN}"),
    Metric("dync.runtime.resumes", "count", "lower",
           f"ops_per_s on {_CHURN}"),
    Metric("dync.runtime.host_ns_per_pass", "ns", "lower",
           f"ops_per_s on {_CHURN}"),
    Metric("dync.runtime.xalloc.allocations", "count", "lower",
           f"setup_s, peak_rss_mb on {_BOTH}"),
    *_layer("net", f"ops_per_s on {_CHURN}; little on {_BULK}"),
    Metric("net.sim.events", "count", "lower", f"ops_per_s on {_CHURN}"),
    Metric("net.link.frames", "count", "lower",
           f"sim_latency_ms.* on {_BOTH}"),
    Metric("net.tcp.connections.opened", "count", "lower",
           f"ops_per_s on {_CHURN}"),
    Metric("net.tcp.segments.retransmitted", "count", "lower",
           f"sim_latency_ms.p95 on {_BOTH}"),
    Metric("net.host_us_per_event", "us", "lower",
           f"ops_per_s on {_CHURN}"),
    *_layer("issl", f"ops_per_s on {_CHURN} (handshakes) and "
            f"{_BULK} (records)"),
    Metric("issl.handshakes.completed", "count", "higher",
           f"ops_per_s, sim_goodput_rps on {_CHURN}"),
    Metric("issl.handshakes.failed", "count", "lower",
           f"sim_goodput_rps on {_CHURN}"),
    Metric("issl.records.sent", "count", "lower", f"ops_per_s on {_BULK}"),
    Metric("issl.bytes.encrypted", "bytes", "lower",
           f"ops_per_s on {_BULK}"),
    Metric("issl.host_us_per_handshake", "us", "lower",
           f"ops_per_s, op_host_ms.* on {_CHURN}"),
    Metric("issl.host_ns_per_record_byte", "ns", "lower",
           f"ops_per_s, op_host_ms.* on {_BULK}"),
    *_layer("crypto", f"ops_per_s on {_BOTH}; no change on aes-emu"),
    Metric("crypto.sha1.bytes", "bytes", "lower", f"ops_per_s on {_BOTH}"),
    Metric("crypto.md5.bytes", "bytes", "lower", f"ops_per_s on {_CHURN}"),
    Metric("crypto.aes.blocks", "count", "lower", f"ops_per_s on {_BULK}"),
    Metric("crypto.host_ns_per_byte", "ns", "lower",
           f"ops_per_s on {_BOTH}"),
    *_layer("services", f"sim_latency_ms.p95 on {_CHURN}"),
    Metric("services.redirected", "count", "higher",
           f"sim_goodput_rps on {_BOTH}"),
    Metric("services.refused", "count", "lower",
           f"sim_latency_ms.p95, sim_goodput_rps on {_CHURN}"),
    Metric("services.slots.handoffs", "count", "higher",
           f"sim_goodput_rps on {_CHURN}"),
    Metric("services.slots.peak_occupied", "count", "lower",
           f"sim_latency_ms.p95 on {_CHURN}"),
    *_layer("obs", f"ops_per_s on {_BOTH}"),
    Metric("bench.unattributed_s", "s", "lower",
           "none: the benchmark's own code"),
    Metric("bench.traced_wall_s", "s", "lower",
           "none: the traced phase's wall time"),
    Metric("bench.trace_overhead", "ratio", "lower",
           "none: untraced over traced ops_per_s"),
)
