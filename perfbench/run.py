"""Benchmark entry point.

    python3 perfbench/run.py --workload incore_suite --seed 1 --seconds 10 --trace 0

Runs one workload on inputs generated from ``--seed``, checks every
program output against independent numpy/scipy computations, and
prints as its last stdout line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A layer the workload never calls reads 0.
``--size toy`` runs the same code paths on seconds-long inputs.
The full record (per-layer figures, spans, problems) is written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, SIZES, SRC, WORK, BenchError, log, require_program  # noqa: E402

WORKLOADS = ("incore_suite", "serve_live", "shard_suite")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: dict, work) -> dict:
    if name == "incore_suite":
        import incore as mod
    elif name == "serve_live":
        import serve as mod
    else:
        import shard as mod
    return mod.run(seed, seconds, trace, size, work)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    a = p.parse_args(argv)

    try:
        require_program()
        spec = load_spec()
    except (BenchError, OSError) as exc:
        log(f"error: {exc}")
        return 2
    # Byte-compile up front so a fresh checkout never pays for it inside
    # a timed region (the serve daemon imports lazily at load time).
    compileall.compile_dir(str(SRC), quiet=2, workers=1)

    work = WORK / f"{a.workload}-s{a.seed}-t{a.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        out = run_workload(a.workload, a.seed, a.seconds, bool(a.trace), SIZES[a.size], work)
    except BenchError as exc:
        log(f"error: {exc}")
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    section = spec["per_layer"] if a.trace else spec["end_to_end"]
    source = out["layers"] if a.trace else out["metrics"]
    metrics = {}
    for m in section:
        value = source.get(m["name"], 0.0 if a.trace else None)
        if value is None:
            log(f"error: workload produced no {m['name']}")
            return 4
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}

    for problem in out["problems"]:
        log(f"CHECK FAILED: {problem}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
              "trace": a.trace, "size": a.size, "wall_s": time.perf_counter() - t0,
              "correct": out["correct"], "attempted": out["attempted"],
              "failed": out["failed"], "problems": out["problems"],
              "metrics": out["metrics"], "layers": out["layers"],
              "samples": out.get("samples", {}), "spans": out.get("spans", [])}
    (results / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(
        json.dumps(record, indent=1))

    for name, m in metrics.items():
        print(f"{a.workload:14s} {name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"{a.workload:14s} operations attempted {out['attempted']}, failed {out['failed']}")
    print(json.dumps({"correct": bool(out["correct"]), "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
