"""Self-test of the benchmark: tiny runs of every workload, and the checks.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_the_end_to_end_metrics(workload):
    proc = _run(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    # ok_share misses exactly the known defects that the workload contains
    ops = workloads.build(workload, 1, tiny=True)
    defects = sum(op.name in workloads.KNOWN_DEFECTS for op in ops)
    assert result["metrics"]["ok_share"]["value"] == pytest.approx(
        1 - defects / len(ops))
    assert (defects > 0) == (workload == "exact")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_prints_every_layer_metric(workload):
    proc = _run(ROOT, workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert "self times" in proc.stdout and "tracing overhead" in proc.stdout


def test_fails_without_the_library_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "sequence", 0)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_probe_samples_during_a_run_and_stops():
    sampler = probe.Probe()
    sampler.start()
    t = time.perf_counter()
    while time.perf_counter() - t < 4 * probe.PERIOD:
        pass
    sampler.stop()
    assert len(sampler.times) >= 2
    assert sampler.total == pytest.approx(sum(sampler.times))
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _op(kind, **kw):
    return workloads.Op("probe", kind, lambda: {}, **kw)


def test_judge_separates_refusals_from_false_results():
    cert = _op("cert", status="Certified", zeros=("n=1",))
    ok = check.judge(cert, {"status": "Certified", "zeros": ["n=1"]})
    assert ok.ok and not ok.wrong
    undecided = check.judge(cert, {"status": "Undecided", "zeros": []})
    assert not undecided.ok and not undecided.wrong
    assert check.judge(cert, {"status": "Refuted", "zeros": []}).wrong
    assert check.judge(cert, {"status": "Certified", "zeros": []}).wrong
    assert check.judge(cert, {"error": "ValueError: boom"}).wrong


def test_judge_catches_an_enclosure_that_misses_the_reference():
    op = _op("enclosure", ref=("hyp", "hh1", Fraction(1, 2)), bits=64)
    # F(1/2,1/2;1;1/2) = 1.18034059901609622604...
    prec = 80
    mid = int(Fraction(118034059901609622604, 10 ** 20) * (1 << prec))
    good = check.judge(op, {"lo": mid - (1 << 20), "hi": mid + (1 << 20),
                            "prec": prec})
    assert good.ok and 55 < good.bits_achieved < 62
    bad = check.judge(op, {"lo": mid + (1 << 20), "hi": mid + (1 << 21),
                           "prec": prec})
    assert bad.wrong


def test_render_value_reads_rendered_expressions():
    for text, expect in (("1 * exp(pi/2)", "4.810477380965351655473"),
                         ("pi/8 * exp(pi/2)", "1.889070050035734"),
                         ("(pi^2 - 3*pi)/64", "0.0069504131")):
        got = check.render_value(text)
        assert abs(got - check.mpmath.mpf(expect)) < 1e-9, text
