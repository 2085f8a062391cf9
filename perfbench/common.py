"""Shared plumbing of the benchmark harness: paths, inputs, statistics.

The harness never imports ``repro``.  Program work happens in child
processes (``child.py``, ``python -m repro serve``) that receive only
the generated input files; everything the harness checks it computes
itself with numpy/scipy.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Input sizes per workload.  "full" is what BENCHMARK.json measures;
# "toy" is the seconds-long self-test size with the same code paths.
SIZES = {
    "full": {
        "suite_scale": 15, "edge_factor": 8, "n_sources": 256,
        "identity_scale": 10, "kway_k": 8, "setup_reps": 5,
        "web_scale": 14, "live_scale": 12, "hot_set": 16,
        "ingest_events": 64, "reads_per_round": 24, "tail_reads": 200, "daemons": 3,
        "shard_k": 4, "shard_sources": 128, "shard_builds": 2,
    },
    "toy": {
        "suite_scale": 9, "edge_factor": 8, "n_sources": 32,
        "identity_scale": 7, "kway_k": 4, "setup_reps": 3,
        "web_scale": 9, "live_scale": 8, "hot_set": 8,
        "ingest_events": 16, "reads_per_round": 6, "tail_reads": 20, "daemons": 2,
        "shard_k": 2, "shard_sources": 16, "shard_builds": 2,
    },
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, child crashed)."""


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Independent, reproducible stream per (seed, purpose)."""
    return np.random.default_rng([int(seed), *tag.encode()])


def rmat_edges(scale: int, edge_factor: int, rng: np.random.Generator,
               a: float = 0.57, b: float = 0.19, c: float = 0.19):
    """Undirected simple R-MAT edge list ``(n, u, v)`` with ``u < v``.

    Vertex ids are randomly permuted so hubs do not sit at id 0;
    duplicates and self-loops are dropped.  ``n`` is ``max id + 1``,
    which is how an edge-list reader sizes the graph.
    """
    n = 1 << scale
    m = edge_factor * n
    u = np.zeros(m, dtype=np.int64)
    v = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(m)
        u |= (r >= a + b).astype(np.int64) << bit
        v |= (((r >= a) & (r < a + b)) | (r >= a + b + c)).astype(np.int64) << bit
    perm = rng.permutation(n)
    u, v = perm[u], perm[v]
    keep = u != v
    lo, hi = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
    key = np.unique(lo * n + hi)
    u, v = key // n, key % n
    return int(max(u.max(), v.max())) + 1, u, v


def write_edge_list(path: Path, u: np.ndarray, v: np.ndarray) -> None:
    with open(path, "w") as f:
        f.write("".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist())))


def pick_sources(n: int, u: np.ndarray, v: np.ndarray, k: int,
                 rng: np.random.Generator) -> list[int]:
    """``k`` distinct sources among vertices with at least one edge."""
    live = np.unique(np.concatenate([u, v]))
    return sorted(int(x) for x in rng.choice(live, size=min(k, live.size), replace=False))


# ----------------------------------------------------------------------
# Statistics and process helpers
# ----------------------------------------------------------------------
def median(xs) -> float:
    return float(statistics.median(xs))


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    s = sorted(xs)
    rank = max(1, int(np.ceil(q / 100.0 * len(s))))
    return float(s[rank - 1])


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process we started, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def run_child(mode: str, args: dict, workdir: Path, timeout: float = 170.0) -> dict:
    """Run ``child.py <mode>`` on a JSON argument file; return its JSON result.

    A non-zero exit raises :class:`BenchError` with the child's stderr
    tail: the caller counts the operation as failed.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    stamp = f"{mode}-{time.monotonic_ns()}"
    arg_path = workdir / f"{stamp}.args.json"
    out_path = workdir / f"{stamp}.out.json"
    arg_path.write_text(json.dumps({**args, "out": str(out_path)}))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), mode, str(arg_path)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not out_path.is_file():
        raise BenchError(
            f"child {mode} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(out_path.read_text())


def require_program() -> None:
    """Fail fast where the program's sources are not beside the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
