"""Host-cost benchmark of the reproduced RMC2000 stack.

    python3 perfbench/run.py --workload aes-emu --seed 1 --seconds 30 \
        --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there.  Workloads: ``aes-emu``, ``redirector-bulk``,
``redirector-churn`` (see :mod:`perfbench.workloads`).  The benchmark's
own tests: ``python3 -m pytest perfbench``.

``--trace 0`` measures: it sets up several times (median reported as
``setup_s``), then runs rounds until ``--seconds`` have passed and at
least the rounds the simulated metrics come from are done, and reports
every end-to-end metric.  Host times are reported at the reference
speed of :mod:`perfbench.probe`, which divides out the shared host's
wandering speed; the unscaled rate and the host's speed during the run
are in the report's noise diagnostics.  ``--trace 1`` runs those rounds
twice in one process, untraced and then under the per-layer ledger
(:mod:`perfbench.ledger`), and reports every per-layer metric; the
ledger's spans are written to ``.perfbench/`` in the checkout.

Every op's output is checked.  Earlier lines of standard output carry
the full report (all metrics, noise diagnostics, host info); the last
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A wrong output exits with status 1, a
checkout without the program with status 2.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.probe import probes, scale  # noqa: E402

#: Set-ups per measuring run (imports and builds each); ``setup_s`` is
#: the sum of the two medians.
SETUP_REPEATS = 5

#: Probes timed before and after each set-up step; the step's time is
#: scaled by their median.
SETUP_PROBES = 4


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def beyond(values, q: float) -> int:
    """How many samples lie strictly above the ``q`` percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_info() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def run_rounds(workload, seconds: float, sim_ops: int):
    """Run rounds until ``seconds`` of host time have passed and the
    rounds holding the first ``sim_ops`` attempted ops -- the window the
    simulated metrics come from -- are done.  Op counts per round are
    fixed by the seed, so the window is too.  Returns the rounds and the
    window's length and the memory high-water at its end."""
    rounds, attempted = [], 0
    start = time.perf_counter()
    while attempted < sim_ops or time.perf_counter() - start < seconds:
        result = workload.round(len(rounds))
        rounds.append(result)
        if attempted < sim_ops:
            attempted += result.attempted
            window = len(rounds)
            # The high-water after fixed work: later, time-boxed rounds
            # would make it depend on host speed.
            window_rss_mb = peak_rss_mb()
    return rounds, window, window_rss_mb


def summarize(workload, rounds, window) -> dict:
    """End-to-end metrics and their sample counts from measured rounds."""
    sim_rounds = rounds[:window]
    host_ms = [s * 1e3 for r in rounds for s in r.op_host_s]
    sim_ms = [s * 1e3 for r in sim_rounds for s in r.op_sim_s]
    completed_sim = sum(r.completed for r in sim_rounds)
    sim_seconds = sum(r.sim_s for r in sim_rounds)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    wall = sum(r.wall_s for r in rounds)
    cpu = sum(r.cpu_s for r in rounds)
    speeds = [sample for r in rounds for sample in r.probe_s]
    report = {
        "ops_per_s": statistics.median(
            r.completed / r.host_s for r in rounds),
        "op_host_ms.p50": percentile(host_ms, 50),
        "op_host_ms.p90": percentile(host_ms, 90),
        "sim_latency_ms.p50": percentile(sim_ms, 50),
        "sim_latency_ms.p95": percentile(sim_ms, 95),
        "sim_goodput_rps": (completed_sim / sim_seconds
                            if sim_seconds else 0.0),
        "failed_ratio": failed / attempted if attempted else 0.0,
        "samples": {
            "rounds": len(rounds),
            "sim_window_rounds": window,
            "op_host_ms": len(host_ms),
            "op_host_ms_beyond_p90": beyond(host_ms, 90),
            "sim_latency_ms": len(sim_ms),
            "sim_latency_ms_beyond_p95": beyond(sim_ms, 95),
        },
        "noise": {
            "measured_wall_s": wall,
            "measured_cpu_s": cpu,
            "cpu_over_wall": cpu / wall if wall else 0.0,
            "warm_up_excluded": True,
            "round_ops_per_s": [r.completed / r.host_s for r in rounds],
            # As measured, probes included: what the scaling corrects.
            "unscaled_ops_per_s": statistics.median(
                r.completed / r.wall_s for r in rounds),
            "ops_per_cpu_s": statistics.median(
                r.completed / r.cpu_s for r in rounds),
            # Below 1 while the host ran slower than the reference speed.
            "host_speed": 1.0 / scale(speeds) if speeds else None,
            "probes": len(speeds),
        },
    }
    if workload.name == "aes-emu":
        report["sim_cycles_per_block"] = (
            sum(r.detail["block_cycles"] for r in sim_rounds) / completed_sim
            if completed_sim else 0.0)
    if workload.name == "redirector-churn":
        # Sessions start at their due time inside the simulation.
        report["generator_lateness_ms"] = 0.0
    return report


def account(workload, rounds) -> tuple[bool, int, int]:
    """(every output right and every planned op accounted, attempted,
    failed).  The plan is the op count the size gives a round, so an op
    the workload lost track of shows as a shortfall."""
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    planned = workload.ops_per_round
    correct = all(r.wrong == 0
                  and r.completed + r.failed == r.attempted == planned
                  for r in rounds)
    return correct, attempted, failed


def at_reference_speed(step) -> float:
    """Host seconds ``step()`` takes, scaled to the reference speed by
    probes timed just before and after it."""
    before = probes(SETUP_PROBES)
    start = time.perf_counter()
    step()
    elapsed = time.perf_counter() - start
    return elapsed * scale(before + probes(SETUP_PROBES))


def import_seconds() -> float:
    """Median time of a fresh interpreter importing the program through
    the workloads module, from process start: the import part of
    set-up, repeated because one process imports only once."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, ROOT)))
    return statistics.median(at_reference_speed(lambda: subprocess.run(
        [sys.executable, "-c", "import perfbench.workloads"],
        cwd=ROOT, env=env, check=True, timeout=120))
        for _ in range(SETUP_REPEATS))


def measure(workload_cls, seed: int, seconds: float, size,
            import_s: float) -> tuple[dict, list]:
    builds = []
    for _ in range(SETUP_REPEATS):
        workload = workload_cls(seed, size)

        def build():
            workload.build()
            workload.warm_up()
        builds.append(at_reference_speed(build))
    rounds, window, rss_mb = run_rounds(workload, seconds, size.sim_ops)
    report = summarize(workload, rounds, window)
    imports = import_seconds()
    report["setup_s"] = imports + statistics.median(builds)
    report["setup"] = {"import_s": imports, "this_process_import_s": import_s,
                       "builds_s": builds}
    report["peak_rss_mb"] = rss_mb
    return report, rounds


def traced(workload_cls, seed: int, size) -> tuple[dict, list, list, dict]:
    """The traced run: the window's rounds untraced, then the same
    rounds again (fresh set-up included) under the ledger.  Returns the
    per-layer metrics, both phases' rounds and the ledger's report, to
    which it adds the traced phase's wall time as timed outside the
    ledger (``timed_wall_s``)."""
    from perfbench.ledger import Ledger

    workload = workload_cls(seed, size)
    # A probe timer firing inside a layer's span would be charged to it.
    workload.sampled = False
    workload.build()
    workload.warm_up()
    plain, _, _ = run_rounds(workload, 0.0, size.sim_ops)
    ledger = Ledger().install()
    start = time.perf_counter()
    try:
        workload = workload_cls(seed, size)
        workload.sampled = False
        workload.build()
        workload.warm_up()
        rounds, _, _ = run_rounds(workload, 0.0, size.sim_ops)
    finally:
        timed_wall_s = time.perf_counter() - start
        ledger.uninstall()
    plain_rate = statistics.median(r.completed / r.host_s for r in plain)
    traced_rate = statistics.median(r.completed / r.host_s for r in rounds)
    metrics = layer_metrics(workload, rounds, ledger)
    metrics["bench.trace_overhead"] = plain_rate / traced_rate
    report = ledger.report()
    report["timed_wall_s"] = timed_wall_s
    return metrics, plain, rounds, report


def ledger_balanced(ledger_report: dict) -> bool:
    """Every span closed, and the layers' self times plus the
    unattributed remainder equal to the traced phase's wall time as
    timed outside the ledger (to within the few clock reads between
    the two timings)."""
    total = (sum(ledger_report["self_s"].values())
             + ledger_report["unattributed_s"])
    return (ledger_report["open_spans"] == 0
            and abs(total - ledger_report["timed_wall_s"]) <= 1e-3)


def layer_metrics(workload, rounds, ledger) -> dict:
    """Every per-layer metric from the traced rounds and the ledger.
    Counts cover the traced rounds; self times also cover the traced
    set-up, where compile time lives."""
    report = ledger.report()
    wall = report["wall_s"]
    self_s = report["self_s"]
    metrics = {}
    for layer, seconds in self_s.items():
        metrics[f"{layer}.self_s"] = seconds
        metrics[f"{layer}.self_share"] = seconds / wall if wall else 0.0
    metrics["bench.unattributed_s"] = report["unattributed_s"]
    metrics["bench.traced_wall_s"] = wall

    def total(key):
        return sum(r.detail.get(key, 0) for r in rounds)

    def counter(name):
        return sum(r.detail.get("counters", {}).get(name, 0) for r in rounds)

    def rate(seconds, units, per):
        return seconds * per / units if units else 0.0

    rabbit = dict.fromkeys(("instructions", "cycles", "blocks.decoded",
                            "blocks.translated", "blocks.translated_execs",
                            "invalidations"), 0)
    if workload.name == "aes-emu":
        cpu = workload.impl.board.cpu
        # The block-cache counters repro.obs.scenarios publishes.
        cache = cpu._cache
        rabbit.update({
            "instructions": cpu.instructions,
            "cycles": cpu.cycles,
            "blocks.decoded": cache.decoded_blocks,
            "blocks.translated": cache.translated_blocks,
            "blocks.translated_execs": cache.translated_execs,
            "invalidations": (cache.invalidated_smc + cache.invalidated_flush
                              + cache.invalidated_restore),
        })
    metrics.update({f"rabbit.{key}": value for key, value in rabbit.items()})
    metrics["rabbit.host_ns_per_instr"] = rate(
        self_s["rabbit"], rabbit["instructions"], 1e9)
    metrics["dync.compiler.code_bytes"] = getattr(workload, "code_bytes", 0)
    passes = total("passes")
    events = total("events")
    metrics.update({
        "dync.runtime.passes": passes,
        "dync.runtime.resumes": ledger.resumes[0],
        "dync.runtime.host_ns_per_pass": rate(self_s["dync.runtime"],
                                              passes, 1e9),
        "dync.runtime.xalloc.allocations": counter("xalloc.allocations"),
        "net.sim.events": events,
        "net.link.frames": total("frames"),
        "net.tcp.connections.opened": counter("tcp.connections.opened"),
        "net.tcp.segments.retransmitted":
            counter("tcp.segments.retransmitted"),
        "net.host_us_per_event": rate(self_s["net"], events, 1e6),
    })
    boundaries = report["boundaries"]

    def inclusive(name):
        return boundaries.get(name, {}).get("inclusive_s", 0.0)

    handshakes = counter("issl.handshakes.completed")
    record_bytes = (counter("issl.bytes.encrypted")
                    + counter("issl.bytes.decrypted"))
    metrics.update({
        "issl.handshakes.completed": handshakes,
        "issl.handshakes.failed": counter("issl.handshakes.failed"),
        "issl.records.sent": counter("issl.records.sent"),
        "issl.bytes.encrypted": counter("issl.bytes.encrypted"),
        "issl.host_us_per_handshake": rate(
            inclusive("IsslSession.handshake"), handshakes, 1e6),
        "issl.host_ns_per_record_byte": rate(
            inclusive("IsslSession.write") + inclusive("IsslSession.read"),
            record_bytes, 1e9),
    })
    aes_blocks = sum(ledger.calls(f"{cls}.{method}")
                     for cls in ("Rijndael", "AesTTable")
                     for method in ("encrypt_block", "decrypt_block"))
    sha1_bytes = ledger.hashed["Sha1"][0]
    md5_bytes = ledger.hashed["Md5"][0]
    metrics.update({
        "crypto.sha1.bytes": sha1_bytes,
        "crypto.md5.bytes": md5_bytes,
        "crypto.aes.blocks": aes_blocks,
        "crypto.host_ns_per_byte": rate(
            self_s["crypto"], sha1_bytes + md5_bytes + 16 * aes_blocks, 1e9),
        "services.redirected": total("redirected"),
        "services.refused": total("refused"),
        "services.slots.handoffs": total("handoffs"),
        "services.slots.peak_occupied": max(
            (r.detail.get("peak_occupied", 0) for r in rounds), default=0),
    })
    return metrics


def write_spans(workload_name: str, seed: int, ledger_report: dict,
                rounds) -> str:
    """Write the traced phase's spans under ``.perfbench/``: self time
    per layer, calls (and inclusive time) per boundary, host time per
    round and per op."""
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload_name}-seed{seed}.json")
    document = dict(ledger_report)
    document["rounds"] = [
        {"host_s": r.host_s, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
         "attempted": r.attempted,
         "completed": r.completed, "op_host_s": r.op_host_s}
        for r in rounds
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    return os.path.relpath(path, ROOT)


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(f"== {title}")
    for name, value in metrics.items():
        unit = units.get(name, "")
        print(f"  {name:<36} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    from perfbench.metrics import END_TO_END, PER_LAYER, REPORT_ONLY
    from perfbench.workloads import DEFAULT_SIZE, WORKLOADS

    import_s = time.perf_counter() - START
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    size = DEFAULT_SIZE
    wall0, cpu0 = time.perf_counter(), time.process_time()
    info = host_info()
    if args.trace:
        metrics, plain, rounds, ledger_report = traced(workload_cls,
                                                       args.seed, size)
        spans_path = write_spans(args.workload, args.seed, ledger_report,
                                 rounds)
        rounds = plain + rounds
        specs = PER_LAYER
        balanced = ledger_balanced(ledger_report)
        report = {"per_layer": metrics, "spans": spans_path,
                  "self_s_plus_unattributed_s": (
                      sum(ledger_report["self_s"].values())
                      + ledger_report["unattributed_s"]),
                  "timed_wall_s": ledger_report["timed_wall_s"],
                  "open_spans": ledger_report["open_spans"]}
    else:
        full, rounds = measure(workload_cls, args.seed, args.seconds, size,
                               import_s)
        metrics = {spec.name: full[spec.name] for spec in END_TO_END}
        specs = END_TO_END
        balanced = True
        report = full
    correct, attempted, failed = account(workload_cls(args.seed, size),
                                         rounds)
    correct = correct and balanced
    # Noise diagnostics: a run that lost CPU to a neighbour shows a
    # cpu/wall ratio below 1.
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    report["run"] = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "wall_s": wall_s, "cpu_s": cpu_s, "cpu_over_wall": cpu_s / wall_s,
        "host": info,
    }
    units = {spec.name: spec.unit for spec in specs + REPORT_ONLY}
    units.update(self_s_plus_unattributed_s="s", timed_wall_s="s",
                 open_spans="count")
    print(json.dumps({"report": report}, sort_keys=True))
    shown = {key: value for key, value in report.items()
             if isinstance(value, (int, float))}
    shown.update(metrics)
    print_table(f"{args.workload} seed={args.seed} trace={args.trace}",
                shown, units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {spec.name: {"value": metrics[spec.name],
                                "unit": spec.unit} for spec in specs},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
