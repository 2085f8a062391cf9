"""``incore_suite``: one analyst runs the SNAP suite serially in-core.

Inputs: an R-MAT graph (edge list) and sampled sources; a small R-MAT
graph on which Brandes runs from every vertex so its sum identities can
be checked exactly.  The program process parses the edge list
``setup_reps`` times (set-up), then runs whole rounds of components,
closeness, Brandes, per-vertex triangles, multilevel pLA and k-way
multilevel partitioning until the run length is used.
"""

from __future__ import annotations

import numpy as np

from common import (BenchError, median, pick_sources, rmat_edges, rng_for,
                    run_child, write_edge_list)
import oracle


def make_inputs(seed: int, size: dict, work) -> dict:
    n, u, v = rmat_edges(size["suite_scale"], size["edge_factor"], rng_for(seed, "suite"))
    write_edge_list(work / "suite.el", u, v)
    sources = pick_sources(n, u, v, size["n_sources"], rng_for(seed, "suite-sources"))
    n_s, u_s, v_s = rmat_edges(size["identity_scale"], size["edge_factor"], rng_for(seed, "identity"))
    write_edge_list(work / "identity.el", u_s, v_s)
    return {"n": n, "u": u, "v": v, "sources": sources, "edges": str(work / "suite.el"),
            "identity": (n_s, u_s, v_s), "identity_edges": str(work / "identity.el")}


def check(res: dict, arrays, inp: dict, size: dict) -> list[str]:
    n, u, v, src = inp["n"], inp["u"], inp["v"], inp["sources"]
    if res["n_vertices"] != n:
        return [f"program sized the graph {res['n_vertices']}, edge list gives {n}"]
    A = oracle.adjacency(n, u, v)
    D = oracle.distances(A, src)
    problems = []
    problems += oracle.check_components(arrays["cc"], A, "components")
    problems += oracle.check_closeness(arrays["clo"], D, n, "closeness")
    problems += oracle.check_brandes_identities(
        res["bc_vertex_sum"], res["bc_edge_sum"], D, "brandes (sampled sources)")
    if res["bc_vertex_min"] < 0:
        problems.append("brandes: negative vertex betweenness")
    n_s, u_s, v_s = inp["identity"]
    D_all = oracle.distances(oracle.adjacency(n_s, u_s, v_s), np.arange(n_s))
    problems += oracle.check_brandes_identities(
        res["identity"]["vertex_sum"], res["identity"]["edge_sum"], D_all,
        "brandes (all sources)")
    problems += oracle.check_triangles(arrays["tri"], A, "triangles")
    problems += oracle.check_clustering(arrays["pla"], res["q"], n, u, v, "pla")
    problems += oracle.check_partition(
        arrays["parts"], size["kway_k"], oracle.MAX_IMBALANCE, res["edge_cut"], n, u, v, "kway")
    return problems


def run(seed: int, seconds: float, trace: bool, size: dict, work) -> dict:
    inp = make_inputs(seed, size, work)
    args = {"edges": inp["edges"], "identity_edges": inp["identity_edges"],
            "n_setup": size["setup_reps"], "sources": inp["sources"],
            "k": size["kway_k"], "seconds": seconds, "trace": trace}
    try:
        res = run_child("incore", args, work)
    except BenchError as exc:
        # One child runs every operation; its failure fails them all.
        return {"correct": False, "attempted": size["setup_reps"] + 6, "failed": size["setup_reps"] + 6,
                "problems": [str(exc)], "metrics": {}, "layers": {}}
    with np.load(res["arrays"]) as z:
        arrays = {k: z[k] for k in z.files}
    problems = check(res, arrays, inp, size)
    rounds = res["rounds"]
    metrics = {
        "setup_s": median(res["setup_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "solve_s": median([r["solve_s"] for r in rounds]),
        "modularity": res["q"],
        "edge_cut": res["edge_cut"],
    }
    layers = {"graph.read_s": median(res["setup_s"]), "traced.solve_s": metrics["solve_s"]}
    for key in rounds[0]:
        if key != "solve_s":
            layers[key] = median([r[key] for r in rounds])
    return {"correct": not problems, "attempted": size["setup_reps"] + 6 * len(rounds),
            "failed": 0, "problems": problems, "metrics": metrics, "layers": layers,
            "samples": {"setup_s": res["setup_s"], "solve_s": [r["solve_s"] for r in rounds]},
            "spans": res["spans"]}
