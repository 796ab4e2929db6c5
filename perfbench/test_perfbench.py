"""The benchmark's own checks, at a size that runs in seconds:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import time
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import run  # noqa: E402
from perfbench.ledger import Ledger  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.probe import INTERVAL_S, REFERENCE_S, Sampler  # noqa: E402
from perfbench.workloads import TINY_SIZE, WORKLOADS  # noqa: E402

_SIM = ("sim_latency_ms.p50", "sim_latency_ms.p95", "sim_goodput_rps")
_COUNT_UNITS = ("count", "bytes")


def _sim_metrics(name: str, seed: int) -> dict:
    workload = WORKLOADS[name](seed, TINY_SIZE)
    workload.build()
    workload.warm_up()
    rounds, window, _ = run.run_rounds(workload, 0.0, TINY_SIZE.sim_ops)
    summary = run.summarize(workload, rounds, window)
    assert run.account(workload, rounds) == (
        True, sum(r.attempted for r in rounds), 0)
    return {key: summary[key] for key in _SIM}


def _traced_counts(name: str, seed: int) -> dict:
    metrics, plain, rounds, ledger_report = run.traced(WORKLOADS[name], seed,
                                                       TINY_SIZE)
    correct, _attempted, failed = run.account(WORKLOADS[name](seed,
                                                             TINY_SIZE),
                                              plain + rounds)
    assert correct and failed == 0
    assert run.ledger_balanced(ledger_report)
    units = {spec.name: spec.unit for spec in PER_LAYER}
    assert set(metrics) == set(units)
    return {key: value for key, value in metrics.items()
            if units[key] in _COUNT_UNITS}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert listed == [(m.name, m.unit, m.better) for m in table]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_repeats_sim_metrics_and_layer_counts(name):
    assert _sim_metrics(name, 11) == _sim_metrics(name, 11)
    assert _traced_counts(name, 11) == _traced_counts(name, 11)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_other_seed_changes_inputs_not_metric_names(name):
    first, second = _sim_metrics(name, 11), _sim_metrics(name, 12)
    assert set(first) == set(second)
    assert first != second
    one, two = WORKLOADS[name](11, TINY_SIZE), WORKLOADS[name](12, TINY_SIZE)
    one.build()
    two.build()
    one.warm_up()
    two.warm_up()
    assert one.round(0).op_sim_s != two.round(0).op_sim_s


def test_wrong_ciphertext_is_counted_as_wrong(monkeypatch):
    workload = WORKLOADS["aes-emu"](3, TINY_SIZE)
    workload.build()
    encrypt = type(workload.impl).encrypt_block

    def flipped(impl, block):
        ciphertext, cycles = encrypt(impl, block)
        return bytes([ciphertext[0] ^ 1]) + ciphertext[1:], cycles

    monkeypatch.setattr(type(workload.impl), "encrypt_block", flipped)
    result = workload.round(0)
    assert result.wrong == result.failed == result.attempted > 0
    assert run.account(workload, [result])[0] is False


def test_wrong_reply_is_counted_as_wrong(monkeypatch):
    from perfbench import workloads

    line_server = workloads.backend_line_server
    monkeypatch.setattr(
        workloads, "backend_line_server",
        lambda host, **kwargs: line_server(host, transform=bytes.lower,
                                           **kwargs))
    workload = WORKLOADS["redirector-churn"](3, TINY_SIZE)
    result = workload.round(0)
    assert result.wrong == result.failed == result.attempted > 0


def test_ledger_uninstall_restores_every_attribute():
    from repro.crypto.sha1 import Sha1
    from repro.net.sim import Simulator
    from repro.services import redirector

    before = (Sha1.update, Simulator.spawn,
              redirector.build_pooled_redirector)
    ledger = Ledger().install()
    assert Sha1.update is not before[0]
    ledger.uninstall()
    assert (Sha1.update, Simulator.spawn,
            redirector.build_pooled_redirector) == before


def test_lost_op_fails_the_account():
    workload = WORKLOADS["aes-emu"](3, TINY_SIZE)
    workload.build()
    result = workload.round(0)
    assert run.account(workload, [result])[0] is True
    result.attempted -= 1
    result.completed -= 1
    assert run.account(workload, [result])[0] is False


def test_hash_bytes_are_counted_once():
    from repro.crypto.md5 import md5
    from repro.crypto.sha1 import Sha1, sha1

    ledger = Ledger().install()
    try:
        sha1(b"x" * 100)
        Sha1(b"y" * 10).update(b"z" * 5)
        md5(b"x" * 64)
    finally:
        ledger.uninstall()
    assert ledger.hashed["Sha1"][0] == 115
    assert ledger.hashed["Md5"][0] == 64


def test_open_span_unbalances_the_ledger():
    ledger = Ledger().install()
    start = time.perf_counter()
    ledger.stack.append(ledger.current)  # a layer entered, never left
    ledger.current = 1
    timed = time.perf_counter() - start
    ledger.uninstall()
    report = ledger.report()
    assert report["open_spans"] == 2
    assert not run.ledger_balanced(dict(report, timed_wall_s=timed))


def test_sampler_scales_by_the_probes_during_an_interval():
    sampler = Sampler()
    sampler.when = [0.0, 0.05, 0.10, 0.30]
    sampler.seconds = [1e-3, 2e-3, 2e-3, 4e-3]
    # Probes from one interval before the start to one after the end.
    assert sampler.factor(0.06, 0.08) == pytest.approx(REFERENCE_S / 2e-3)
    # None in that span: the nearest probes on either side.
    assert sampler.factor(0.20, 0.21) == pytest.approx(REFERENCE_S / 3e-3)


def test_sampler_probes_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with Sampler() as sampler:
        start = sampler.clock()
        time.sleep(4 * INTERVAL_S)
        end = sampler.clock()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.seconds) >= 4
    assert end - start < 4 * INTERVAL_S + sum(sampler.seconds)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "aes-emu",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_end_to_end_metrics_are_never_zero():
    workload_metrics = {spec.name for spec in END_TO_END}
    for name in WORKLOADS:
        workload = WORKLOADS[name](5, TINY_SIZE)
        workload.build()
        workload.warm_up()
        rounds, window, _ = run.run_rounds(workload, 0.0, TINY_SIZE.sim_ops)
        summary = run.summarize(workload, rounds, window)
        for metric in workload_metrics - {"setup_s", "peak_rss_mb"}:
            assert summary[metric] > 0, (name, metric)
