"""Steadiness command: run workloads N times and report each metric's spread.

    python3 perfbench/steady.py --workload serve_live [--runs 10] [--trace both]

Each run is a fresh ``run.py`` process of ``run_seconds`` (from
BENCHMARK.json) with its own seed, 1, 2, ..., ``--runs``.  The untraced
runs are made as two back-to-back sets on the same seeds.  Per set and
metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the relative spread
``(q3 - q1) / median``, then how far the second set's median moved
from the first's, against the metric's bound in BENCHMARK.json.  With
``--trace both`` it also makes one traced set on the same seeds and
prints the tracing overhead, the traced solve time minus the untraced
one.  Records go to ``.perfbench/steady/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT, WORK


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["wall_s"] = wall
    return doc


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "values": values}
    return out


def run_set(workload: str, runs: int, seconds: float, trace: int, label: str) -> dict:
    docs = []
    for seed in range(1, runs + 1):
        docs.append(one_run(workload, seed, seconds, trace))
        print(f"  {workload} {label} seed={seed} wall {docs[-1]['wall_s']:.1f}s "
              f"correct={docs[-1]['correct']} failed={docs[-1]['failed']}/{docs[-1]['attempted']}",
              flush=True)
    stats = summarize(docs)
    print(f"{workload} ({label}, {runs} runs, seeds 1..{runs}, {seconds:g} s each)")
    print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, s in stats.items():
        print(f"  {name:28s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{100 * s['spread']:7.2f}%  {s['unit']}")
    shares = {r["failed"] / r["attempted"] for r in docs}
    print(f"  failed share per run: {sorted(shares)}; "
          f"all correct: {all(r['correct'] for r in docs)}; "
          f"max wall {max(r['wall_s'] for r in docs):.1f}s", flush=True)
    return {"stats": stats, "runs": docs}


def compare_sets(first: dict, second: dict, bounds: dict) -> None:
    """Second set's median against the first's; worse beyond the bound is flagged."""
    print(f"  {'metric':28s} {'set 1':>12s} {'set 2':>12s} {'change':>8s} {'bound':>6s}")
    for name, b in bounds.items():
        m1, m2 = first[name]["median"], second[name]["median"]
        change = (m2 - m1) / m1 if m1 else 0.0
        worse = change if b["better"] == "lower" else -change
        spread = max(first[name]["spread"], second[name]["spread"])
        flags = [f for f, bad in (("WORSE", worse > b["bound"]),
                                  ("SPREAD", name != "setup_s" and spread > b["bound"])) if bad]
        print(f"  {name:28s} {m1:12.6g} {m2:12.6g} {100 * change:+7.2f}% {b['bound']:6.2f} "
              f"{' '.join(flags)}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", choices=("0", "1", "both"), default="0")
    a = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    out_dir = WORK / "steady"
    out_dir.mkdir(parents=True, exist_ok=True)
    for workload in a.workload:
        report = {}
        if a.trace in ("0", "both"):
            report["set1"] = run_set(workload, a.runs, seconds, 0, "set 1")
            report["set2"] = run_set(workload, a.runs, seconds, 0, "set 2")
            print(f"{workload}: set 2 against set 1 (same seeds, back to back)")
            compare_sets(report["set1"]["stats"], report["set2"]["stats"], bounds)
        if a.trace in ("1", "both"):
            report["traced"] = run_set(workload, a.runs, seconds, 1, "traced")
        if a.trace == "both":
            untraced = statistics.median(
                [report[s]["stats"]["solve_s"]["median"] for s in ("set1", "set2")])
            traced = report["traced"]["stats"]["traced.solve_s"]["median"]
            print(f"  tracing overhead: {traced - untraced:+.4f} s "
                  f"({100 * (traced - untraced) / untraced:+.2f}% of solve_s)")
        (out_dir / f"{workload}.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
