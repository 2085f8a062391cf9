"""``shard_suite``: the out-of-core substrate on the ``incore_suite`` graph.

Set-up is ``repro shard build -k <shard_k>``, repeated ``shard_builds``
times in a process of its own, which afterwards runs in-core pLA as the
reference the substrate must match.  The solve, in a second process, is
whole rounds of ``repro shard run --algo msbfs,closeness,components,pla``
with explicit sources, ``--backend process --workers 2`` and
``--checkpoint-every 4``, each in a fresh process, until the run length
is used.  Sources are explicit
because ``--algo closeness`` ignores ``--n-sources`` and would use
every vertex.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from common import BenchError, median, pick_sources, rmat_edges, rng_for, run_child, write_edge_list
import oracle

ALGOS = ("msbfs", "closeness", "components", "pla")


def make_inputs(seed: int, size: dict, work) -> dict:
    # Same generator stream as incore_suite, so both run on one graph.
    n, u, v = rmat_edges(size["suite_scale"], size["edge_factor"], rng_for(seed, "suite"))
    write_edge_list(work / "suite.el", u, v)
    sources = pick_sources(n, u, v, size["shard_sources"], rng_for(seed, "shard-sources"))
    return {"n": n, "u": u, "v": v, "sources": sources, "edges": str(work / "suite.el")}


def shard_cut(shard_dir: Path, n: int, u, v) -> tuple[float, list[str]]:
    """Manifest edge cut, checked against the owned sets in the shard files."""
    manifest = json.loads((shard_dir / "manifest.json").read_text())
    parts = np.full(n, -1, dtype=np.int64)
    for s in manifest["shards"]:
        with np.load(shard_dir / s["file"]) as z:
            parts[np.asarray(z["owned"], dtype=np.int64)] = s["index"]
    k = manifest["k"]
    problems = oracle.check_partition(parts, k, None, manifest["edge_cut"], n, u, v, "shard build")
    return float(manifest["edge_cut"]), problems


def check_run(algos: dict, inp: dict, ref_q: float) -> list[str]:
    n, u, v, src = inp["n"], inp["u"], inp["v"], inp["sources"]
    A = oracle.adjacency(n, u, v)
    D = oracle.distances(A, src)
    fin = np.isfinite(D)
    problems = []
    ms = algos["msbfs"]
    checksum = int(D[fin].sum()) - int((~fin).sum())
    if ms["checksum"] != checksum or ms["reached"] != int(fin.sum()):
        problems.append(f"sharded msbfs checksum/reached {ms['checksum']}/{ms['reached']} "
                        f"!= scipy {checksum}/{int(fin.sum())}")
    clo = oracle.closeness_from_distances(D, n)
    c = algos["closeness"]
    if not (np.isclose(c["sum"], clo.sum(), rtol=oracle.REL_TOL, atol=0)
            and np.isclose(c["max"], clo.max(), rtol=oracle.REL_TOL, atol=0)):
        problems.append(f"sharded closeness sum/max {c['sum']}/{c['max']} "
                        f"!= scipy {clo.sum()}/{clo.max()}")
    n_cc = oracle.connected_components(A, directed=False)[0]
    if algos["components"]["n_components"] != n_cc:
        problems.append(f"sharded components {algos['components']['n_components']} != scipy {n_cc}")
    if algos["pla"]["modularity"] != ref_q:
        problems.append(f"sharded pLA Q {algos['pla']['modularity']!r} != in-core {ref_q!r}")
    return problems


def run(seed: int, seconds: float, trace: bool, size: dict, work) -> dict:
    inp = make_inputs(seed, size, work)
    n, u, v = inp["n"], inp["u"], inp["v"]
    n_builds = size["shard_builds"]
    attempted = n_builds
    try:
        built = run_child("shard-build", {"edges": inp["edges"], "shard_dir": str(work / "shards"),
                                          "n_builds": n_builds, "k": size["shard_k"],
                                          "trace": trace}, work)
        rounds: list[dict] = []
        elapsed = 0.0
        while not rounds or elapsed < seconds:
            attempted += len(ALGOS)
            metrics_path = work / f"run{len(rounds)}.json"
            res = run_child("shard-run", {"shard_dir": str(work / "shards0"),
                                          "sources": inp["sources"],
                                          "metrics_path": str(metrics_path), "trace": trace}, work)
            rounds.append({**res, "doc": json.loads(metrics_path.read_text())})
            elapsed += res["solve_s"]
    except BenchError as exc:
        return {"correct": False, "attempted": attempted, "failed": attempted,
                "problems": [str(exc)], "metrics": {}, "layers": {}}
    problems: list[str] = []
    with np.load(built["arrays"]) as z:
        problems += oracle.check_clustering(z["pla"], built["incore_q"], n, u, v, "in-core pla reference")
    edge_cut, cut_problems = shard_cut(work / "shards0", n, u, v)
    problems += cut_problems
    for r in rounds:
        problems += check_run(r["doc"]["algos"], inp, built["incore_q"])

    metrics = {"setup_s": median(built["setup_s"]),
               "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
               "solve_s": median([r["solve_s"] for r in rounds]),
               "modularity": rounds[0]["doc"]["algos"]["pla"]["modularity"], "edge_cut": edge_cut}
    layers = {"graph.read_s": built.get("graph.read_s", 0.0), "traced.solve_s": metrics["solve_s"]}
    per_round = []
    for r in rounds:
        steps = r["doc"]["metrics"]["supersteps"]
        superstep_s = sum(s["seconds"] for s in steps)
        ckpt_s = sum(c["seconds"] for c in r["checkpoints"])
        per_round.append({
            "sharded.supersteps": len(steps),
            "sharded.superstep_s": superstep_s,
            "sharded.coordinator_s": r["solve_s"] - superstep_s - ckpt_s,
            "parallel.tasks": sum(s["n_tasks"] for s in steps),
            "durable.checkpoint_s": ckpt_s,
            "durable.checkpoint_mb": sum(c["bytes"] for c in r["checkpoints"]) / 2**20,
            **{f"sharded.{a}_s": r["doc"]["algos"][a]["seconds"] for a in ALGOS},
        })
    for key in per_round[0]:
        layers[key] = median([p[key] for p in per_round])
    return {"correct": not problems, "attempted": attempted,
            "failed": 0, "problems": problems, "metrics": metrics, "layers": layers,
            "samples": {"setup_s": built["setup_s"], "solve_s": [r["solve_s"] for r in rounds]}}
