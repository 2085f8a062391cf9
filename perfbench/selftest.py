"""Benchmark self-tests, seconds-long: ``python3 perfbench/selftest.py``.

1. Every check rejects a planted wrong answer: a perturbed distance, a
   wrong Q, a miscounted edge, and the other output checks of the
   three workloads.
2. Each workload runs end to end at ``--size toy`` and reports
   ``correct: true`` with no failed operation.
3. After ``serve_live`` no daemon survives and its ports are free.
4. Without the program's sources beside it the benchmark exits
   non-zero and prints no result.

Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from common import BENCH_DIR, ROOT, SIZES, WORK, rmat_edges, rng_for
import oracle
import serve
import shard

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"  {'ok ' if cond else 'FAIL'} {what}", flush=True)
    if not cond:
        FAILURES.append(what)


def planted_answers() -> None:
    print("planted wrong answers are rejected:")
    n, u, v = rmat_edges(8, 8, rng_for(7, "selftest"))
    A = oracle.adjacency(n, u, v)
    src = [int(u[0]), int(v[-1]), int(u[len(u) // 2])]
    D = oracle.distances(A, src)
    good = np.where(np.isfinite(D), D, -1).astype(np.int64)

    clo = oracle.closeness_from_distances(D, n)
    expect(not oracle.check_closeness(clo, D, n, "c"), "true closeness passes")
    expect(bool(oracle.check_closeness(clo * (1 + 1e-6), D, n, "c")), "perturbed closeness is caught")

    fin = np.isfinite(D) & (D > 0)
    vs, es = float((D[fin] - 1).sum()) / 2, float(D[fin].sum()) / 2
    expect(not oracle.check_brandes_identities(vs, es, D, "b"), "Brandes identities hold on true sums")
    expect(bool(oracle.check_brandes_identities(vs + 0.5, es, D, "b")), "wrong vertex-BC sum is caught")
    expect(bool(oracle.check_brandes_identities(vs, es - 0.5, D, "b")), "wrong edge-BC sum is caught")

    _, cc = oracle.connected_components(A, directed=False)
    expect(not oracle.check_components(cc, A, "cc"), "true components pass")
    merged = cc.copy()
    merged[merged == merged.max()] = 0
    expect(bool(oracle.check_components(merged, A, "cc")), "merged components are caught")

    tri = oracle.triangles_per_vertex(A)
    brute = np.zeros(n, dtype=np.int64)
    adj = [set() for _ in range(n)]
    for a, b in zip(u.tolist(), v.tolist()):
        adj[a].add(b)
        adj[b].add(a)
    for a in range(n):
        brute[a] = sum(len(adj[a] & adj[b]) for b in adj[a]) // 2
    expect(np.array_equal(tri, brute), "A²∘A triangle oracle equals a set-intersection count")
    off = tri.copy()
    off[np.argmax(off)] += 1
    expect(bool(oracle.check_triangles(off, A, "t")), "miscounted triangle is caught")

    labels = cc.copy()
    q = oracle.modularity(n, u, v, labels)
    expect(not oracle.check_clustering(labels, q, n, u, v, "q"), "labels' own Q passes")
    expect(bool(oracle.check_clustering(labels, q + 1e-6, n, u, v, "q")), "wrong Q is caught")
    expect(bool(oracle.check_clustering(labels[:-1], q, n, u, v, "q")), "labels missing a vertex are caught")

    parts = np.arange(n) % 4
    cut = oracle.cut_edges(u, v, parts)
    expect(not oracle.check_partition(parts, 4, 1.05, cut, n, u, v, "p"), "balanced partition passes")
    expect(bool(oracle.check_partition(parts, 4, 1.05, cut + 1, n, u, v, "p")), "miscounted cut edge is caught")
    lop = parts.copy()
    lop[lop == 3] = 0
    expect(bool(oracle.check_partition(lop, 4, 1.05, oracle.cut_edges(u, v, lop), n, u, v, "p")),
           "empty / unbalanced part is caught")

    e = serve.Expect(n, u, v, src)
    expect(e.check("msbfs", {"sources": src[:2]}, {"distances": good[:2].tolist()}), "served msbfs rows pass")
    bad = good[:2].copy()
    bad[1, np.argmax(bad[1])] += 1
    expect(not e.check("msbfs", {"sources": src[:2]}, {"distances": bad.tolist()}),
           "perturbed served msbfs distance is caught")
    row = good[0].tolist()
    expect(e.check("bfs", {"source": src[0]}, row), "served bfs row passes")
    row[int(np.argmax(good[0]))] += 1
    expect(not e.check("bfs", {"source": src[0]}, row), "perturbed served bfs distance is caught")
    expect(not e.check("closeness", {"sources": src[:2]}, np.full(n, 0.5)),
           "wrong served closeness is caught")

    live = serve.LiveGraph(n, u, v, rng_for(7, "ingest"), 8)
    live.next_batch()
    after = live.arrays()
    D1 = oracle.distances(oracle.adjacency(n, *after), src)
    c1 = oracle.closeness_from_distances(D1, n)
    expect(not serve.check_fresh(live, u, v, [(1, src, c1)]), "fresh closeness re-derived from the edge set")
    expect(bool(serve.check_fresh(live, u, v, [(1, src, c1 * 1.001)])), "stale fresh closeness is caught")

    inp = {"n": n, "u": u, "v": v, "sources": src}
    fin = np.isfinite(D)
    algos = {"msbfs": {"checksum": int(D[fin].sum()) - int((~fin).sum()), "reached": int(fin.sum())},
             "closeness": {"sum": float(clo.sum()), "max": float(clo.max())},
             "components": {"n_components": int(cc.max()) + 1},
             "pla": {"modularity": 0.25}}
    expect(not shard.check_run(algos, inp, 0.25), "true sharded summaries pass")
    for key, field, delta in (("msbfs", "checksum", 1), ("closeness", "sum", 1e-6),
                              ("components", "n_components", 1), ("pla", "modularity", 1e-12)):
        wrong = json.loads(json.dumps(algos))
        wrong[key][field] += delta
        expect(bool(shard.check_run(wrong, inp, 0.25)), f"wrong sharded {key} {field} is caught")


def children_of(pid: int) -> list[int]:
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(stat.parent.name))
    return out


def serve_cleanup() -> None:
    print("serve_live leaves no daemon and no bound port:")
    started: list[serve.Daemon] = []
    init = serve.Daemon.__init__

    def recording_init(self, *a, **kw):
        init(self, *a, **kw)
        started.append(self)

    serve.Daemon.__init__ = recording_init
    work = WORK / f"selftest-serve-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        out = serve.run(3, 2.0, False, SIZES["toy"], work)
    finally:
        serve.Daemon.__init__ = init
        shutil.rmtree(work, ignore_errors=True)
    expect(out["correct"] and out["failed"] == 0, f"toy serve_live correct ({out['problems'][:2]})")
    expect(len(started) == SIZES["toy"]["daemons"], f"{len(started)} daemons started")
    expect(all(d.proc.poll() is not None for d in started), "every daemon exited")
    expect(all(serve.port_free(d.port) for d in started), "every daemon port is free")
    expect(not children_of(os.getpid()), "no child process survives")


def end_to_end() -> None:
    print("every workload runs end to end at toy size:")
    for workload in ("incore_suite", "serve_live", "shard_suite"):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "5",
                 "--seconds", "1", "--trace", str(trace), "--size", "toy"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
            ok = proc.returncode == 0
            doc = json.loads(proc.stdout.strip().splitlines()[-1]) if ok else {}
            expect(ok and doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0,
                   f"{workload} trace={trace}: correct, {doc.get('attempted')} attempted, "
                   f"{doc.get('failed')} failed {proc.stderr[-300:] if not ok else ''}")


def without_program() -> None:
    print("without the program beside it the benchmark fails:")
    bare = WORK / f"selftest-bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "incore_suite",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"exit code {proc.returncode}, stdout {proc.stdout.strip()[:80]!r}")


if __name__ == "__main__":
    planted_answers()
    serve_cleanup()
    without_program()
    end_to_end()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    sys.exit(1 if FAILURES else 0)
