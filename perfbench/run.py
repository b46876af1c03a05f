"""Benchmark of the ellipmono certification library.

Usage (from the repository root):

    python3 perfbench/run.py --workload sequence --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Each repetition runs the workload's fixed list of operations in a fresh
interpreter (``child.py``), cold, one after another, until ``--seconds``
are used up.  ``--trace 0`` runs one plain repetition (for memory), then
repetitions with the speed probe of ``probe.py``, and reports the
end-to-end metrics; ``--trace 1`` alternates plain and traced
repetitions and reports the per-layer metrics and the tracing overhead.
Every outcome is checked against the paper's status or an mpmath
reference (``check.py``) after the timed children have ended.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"

import probe  # noqa: E402
import workloads  # noqa: E402

LIMIT_S = 170        # a run must end within 180 s
SETUP_PER_RUN = 3    # setup-only spawns after each run, for setup_s

END_TO_END = (
    ("wall_ref_s", "s"),      # operations' time at the probe's reference
    ("setup_s", "s"),         # spawn until the library has imported
    ("peak_rss_mb", "MB"),    # peak resident memory, unprobed run
    ("ok_share", "share"),    # operations with the paper's result
    ("bits_kept_min", "share"),  # worst achieved/requested bits
)

PER_LAYER = (
    ("coefficients.ensure_values.ms", "ms"),
    ("coefficients.values_terms_built", "count"),
    ("coefficients.ensure_exact.ms", "ms"),
    ("coefficients.exact_terms_built", "count"),
    ("coefficients.ensure_uv.ms", "ms"),
    ("coefficients.c_coeff.calls", "count"),
    ("coefficients.c_coeff.ms", "ms"),
    ("coefficients.c_is_exactly_zero.calls", "count"),
    ("pi_expr.evaluate.calls", "count"),
    ("pi_expr.evaluate.ms", "ms"),
    ("certify.j_quotient_coefficients.ms", "ms"),
    ("elliptic.exp_K.ms", "ms"),
    ("elliptic.exp_K.terms", "count"),
    ("elliptic.exp_K.cap_share", "share"),
    ("elliptic.hyp_series.calls", "count"),
    ("elliptic.hyp_series.ms", "ms"),
    ("elliptic.hyp_series.terms", "count"),
    ("elliptic.hyp_series.cap_share", "share"),
    ("elliptic.agm_K_m.calls", "count"),
    ("elliptic.agm_K_m.ms", "ms"),
    ("intervals.exp.calls", "count"),
    ("intervals.exp.ms", "ms"),
    ("intervals.ln.calls", "count"),
    ("intervals.ln.ms", "ms"),
    ("intervals.sqrt.calls", "count"),
    ("intervals.sqrt.ms", "ms"),
    ("constants.enclose.calls", "count"),
    ("constants.enclose.miss", "count"),
    ("constants.enclose.ms", "ms"),
    ("certify.self_ms", "ms"),
    ("certify.points", "count"),
    ("certify.escalated_share", "share"),
    ("certify.precision_used_max", "bits"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_share", "share"),
)


def _spawn(workload: str, seed: int, mode: str, tiny: bool,
           deadline: float) -> dict:
    """Run child.py once; returns its JSON with ``setup_s`` added."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ELLIPMONO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # same set and dict layouts in every run
    spans_file = SPANS_DIR / f"spans-{workload}-{seed}.tsv"
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed),
            mode, "1" if tiny else "0", str(spans_file)]
    started = time.monotonic()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} {mode} run exited with "
                         f"{proc.returncode}\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["imported_at"] - started
    return out


def _layer_metrics(t: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (``.ms`` is self time)."""
    calls, self_s, counts = t["calls"], t["self_s"], t["counts"]
    out: dict[str, float] = {}
    for name, unit in PER_LAYER:
        base, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = calls.get(base, 0)
        elif what == "ms":
            out[name] = self_s.get(base, 0.0) * 1e3
        elif what == "cap_share":
            n = calls.get(base, 0)
            out[name] = counts.get(base + ".cap_hits", 0) / n if n else 0.0
        elif name in counts:
            out[name] = counts[name]
    out["certify.self_ms"] = 1e3 * sum(
        s for k, s in self_s.items() if k.startswith("certify."))
    out["cli.main.self_ms"] = self_s.get("cli.main", 0.0) * 1e3
    out["certify.escalated_share"] = t["escalated_share"]
    for name, _ in PER_LAYER:
        out.setdefault(name, 0)
    return out


def _self_time_table(t: dict) -> list[str]:
    wall = t["wall_s"]
    rows = sorted(t["self_s"].items(), key=lambda kv: -kv[1])
    lines = [f"  {'span':34s} {'calls':>9s} {'self ms':>11s} {'% wall':>7s}"]
    for name, s in rows:
        lines.append(f"  {name:34s} {t['calls'][name]:9d} {s * 1e3:11.1f}"
                     f" {100 * s / wall:6.1f}%")
    layers: dict[str, float] = {}
    for name, s in rows:
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + s
    lines.append("  self time by layer: " + ", ".join(
        f"{k} {v * 1e3:.1f} ms" for k, v in sorted(layers.items(),
                                                    key=lambda kv: -kv[1])))
    total = sum(t["self_s"].values())
    lines.append(f"  self times {total:.4f} s + outside any span "
                 f"{t['uncovered_s']:.4f} s = {total + t['uncovered_s']:.4f} s"
                 f"; traced wall {wall:.4f} s; {t['spans']} spans")
    return lines


def _fastest_sum(runs: list[dict]) -> float:
    """Each operation's fastest time over ``runs``, summed.

    Outside load on a shared machine slows repetitions by up to 70%; the
    fastest time of each operation is its least disturbed measurement.
    """
    return sum(min(r["outcomes"][i]["s"] for r in runs)
               for i in range(len(runs[0]["outcomes"])))


def _wall_ref(run: dict) -> float:
    """The operations' time of a probed run at the reference speed."""
    return run["wall_s"] * probe.REF_S / statistics.mean(run["probe_s"])


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 tiny: bool) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and report lines."""
    deadline = time.monotonic() + LIMIT_S
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
    _spawn(workload, seed, "setup", tiny, deadline)  # byte-compiles
    t_start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []   # traced or probed, after the first plain run
    setups: list[float] = []
    while True:
        # Traced runs alternate with plain ones, and setup-only spawns
        # follow each run, so that all of them sample the same spells of
        # load from outside.  Untraced, only the first run is plain.
        if not plain or (trace and len(traced) >= len(plain)):
            mode = "plain"
        else:
            mode = "trace" if trace else "probe"
        t = time.monotonic()
        run = _spawn(workload, seed, mode, tiny, deadline)
        (plain if mode == "plain" else traced).append(run)
        setups.append(run["setup_s"])
        for _ in range(SETUP_PER_RUN):
            setups.append(
                _spawn(workload, seed, "setup", tiny, deadline)["setup_s"])
        took = time.monotonic() - t
        done = time.monotonic() - t_start + took > seconds
        if (done and traced) or time.monotonic() + took > deadline:
            break
    runs = plain + traced

    import check  # mpmath references, outside the timed region
    ops = workloads.build(workload, seed, tiny=tiny)
    verdicts = [[check.judge(op, out) for op, out in zip(ops, r["outcomes"])]
                for r in runs]
    first = verdicts[0]
    failed = sum(v.wrong for vs in verdicts for v in vs)
    ok_share = sum(v.ok for v in first) / len(first)
    bits = [(v.bits_requested, min(v.bits_achieved, v.bits_requested))
            for v in first if v.bits_achieved is not None]

    lines = [f"workload {workload}  seed {seed}  {len(ops)} operations  "
             f"{len(plain)} plain + {len(traced)} "
             f"{'traced' if trace else 'probed'} runs  "
             f"setup samples {len(setups)}"]
    for op, v in zip(ops, first):
        if not v.ok:
            lines.append(f"  not the paper's result: {op.name}"
                         f"{'  (WRONG)' if v.wrong else ''}")
    lines.append(f"  failed_share {1 - ok_share:.4f} share  bits_short_max "
                 f"{max(req - got for req, got in bits):.1f} bits")
    walls = [r["wall_s"] for r in runs]
    lines.append(f"  wall time of the operations, each run: "
                 + " ".join(f"{w:.3f}" for w in walls) + " s")
    if trace:
        wall_s = _fastest_sum(plain)
        summaries = [r["trace"] for r in traced]
        per_rep = [_layer_metrics(t) for t in summaries]
        metrics = {}
        for name, unit in PER_LAYER:
            values = [m[name] for m in per_rep]
            value = statistics.median(values) if unit == "ms" else values[0]
            metrics[name] = {"value": value, "unit": unit}
        overhead = _fastest_sum(traced) / wall_s - 1
        metrics["trace.overhead_share"]["value"] = overhead
        lines.append(f"  tracing overhead {100 * overhead:.1f}% of the "
                     f"untraced wall_s {wall_s:.4f} s")
        lines += _self_time_table(summaries[0])
    else:
        probe_means = [statistics.mean(r["probe_s"]) for r in traced]
        lines.append(f"  probe mean time, each probed run: "
                     + " ".join(f"{1e3 * p:.2f}" for p in probe_means)
                     + f" ms ({sum(len(r['probe_s']) for r in traced)}"
                     f" samples; {1e3 * probe.REF_S:.1f} ms is the"
                     f" reference)")
        refs = [_wall_ref(r) for r in traced]
        lines.append(f"  at the reference speed, each probed run: "
                     + " ".join(f"{w:.3f}" for w in refs) + " s")
        values = {
            "wall_ref_s": statistics.median(refs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ok_share": ok_share,
            "bits_kept_min": min(got / req for req, got in bits),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, m in metrics.items():
        lines.append(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0,
              "attempted": len(ops) * len(runs),
              "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload (self-test)")
    args = ap.parse_args(argv)
    if not (SRC / "ellipmono" / "__init__.py").is_file():
        print(f"error: no ellipmono sources under {SRC}", file=sys.stderr)
        return 2
    try:
        import mpmath  # noqa: F401  (references need it)
    except ImportError:
        print("error: the reference checks need mpmath", file=sys.stderr)
        return 2
    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), args.tiny)
        print("\n".join(lines), flush=True)
        results[name] = result
    if args.workload == "all":
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(results[args.workload]))
    return 0 if results[args.workload]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
