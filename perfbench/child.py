"""Program-side process of the benchmark: the only file that imports ``repro``.

Usage: ``python perfbench/child.py <mode> <args.json>``.  Each mode
imports what it needs *before* its clock starts, times calls into the
program's public functions, and writes a JSON result (plus an ``.npz``
of output arrays) to the path named in the argument file.  The suite
records benchmark-side spans around each layer call; with
``"trace": true`` the program's own span trees and checkpoint writes
are kept as well.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from common import vm_hwm_mb  # noqa: E402 - common imports nothing from repro


class Spans:
    """Benchmark-side spans around layer calls, kept in memory.

    ``span`` yields the span's row, whose ``duration_s`` is set when the
    block exits; ``export`` adds each span's self time (duration minus
    its children's).
    """

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        row = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.rows))
        self.rows.append(row)
        t0 = time.perf_counter()
        try:
            yield row
        finally:
            row["duration_s"] = time.perf_counter() - t0
            self._stack.pop()

    def export(self) -> list[dict]:
        child_time = [0.0] * len(self.rows)
        for r in self.rows:
            if r["parent"] is not None:
                child_time[r["parent"]] += r["duration_s"]
        return [{**r, "self_s": r["duration_s"] - c} for r, c in zip(self.rows, child_time)]


def trace_self_time(node: dict, name: str) -> tuple[float, int]:
    """Total self time and count of program spans called ``name``."""
    total, count = 0.0, 0
    stack = [node]
    while stack:
        sp = stack.pop()
        kids = sp.get("children", [])
        if sp["name"] == name:
            total += sp["duration_s"] - sum(c["duration_s"] for c in kids)
            count += 1
        stack.extend(kids)
    return total, count


def write(args: dict, doc: dict, arrays: dict | None = None) -> None:
    out = Path(args["out"])
    if arrays:
        np.savez(out.with_suffix(".npz"), **arrays)
        doc["arrays"] = str(out.with_suffix(".npz"))
    out.write_text(json.dumps(doc))


# ----------------------------------------------------------------------
def mode_incore(args: dict) -> None:
    import repro.api as api
    from repro.graph.io import read_edge_list
    from repro.metrics.clustering import triangle_counts
    from repro.obs.runner import run as traced_run
    from repro.partitioning.metrics import edge_cut

    spans = Spans()
    setup = []
    for _ in range(args["n_setup"]):
        with spans.span("graph.read") as sp:
            g = read_edge_list(args["edges"])
        setup.append(sp["duration_s"])

    src = args["sources"]
    k = args["k"]
    suite = [
        ("kernels.components", lambda: api.run("connected_components", g).value),
        ("centrality.closeness", lambda: api.run("closeness", g, sources=src).value),
        ("centrality.brandes", lambda: api.run("brandes", g, sources=src).value),
        ("metrics.triangles", lambda: triangle_counts(g)),
        ("community.pla", lambda: traced_run("pla", g, trace=True, multilevel=True)
         if args["trace"] else api.run("pla", g, multilevel=True)),
        ("partitioning.kway", lambda: api.run("multilevel_kway", g, k).value),
    ]
    rounds: list[dict] = []
    first: dict = {}
    t_start = time.perf_counter()
    while True:
        out, times = {}, {}
        with spans.span("suite") as whole:
            for name, call in suite:
                with spans.span(name) as sp:
                    out[name] = call()
                times[f"{name}_s"] = sp["duration_s"]
        times["solve_s"] = whole["duration_s"]
        cc, clo, bc, tri, res, parts = (out[name] for name, _ in suite)
        pla = res.value
        if res.trace is not None:
            sweep_s, sweeps = trace_self_time(res.trace.to_dict(), "sweep")
            times["community.pla_sweep_s"] = sweep_s
            times["community.pla_sweeps"] = sweeps
        rounds.append(times)
        if not first:
            first = {
                "cc": np.asarray(cc), "clo": np.asarray(clo)[src],
                "bc_vertex_sum": float(bc.vertex.sum()),
                "bc_edge_sum": float(bc.edge.sum()),
                "bc_vertex_min": float(bc.vertex.min()),
                "tri": np.asarray(tri), "pla": np.asarray(pla.labels),
                "q": float(pla.modularity), "parts": np.asarray(parts),
            }
        else:
            # Every round must reproduce the first round's answers.
            if float(pla.modularity) != first["q"] or not np.array_equal(parts, first["parts"]):
                raise SystemExit("incore: a later round disagrees with the first")
        if time.perf_counter() - t_start >= args["seconds"]:
            break
    peak = vm_hwm_mb()

    # Exact-identity graph for Brandes: every vertex a source.
    small = read_edge_list(args["identity_edges"])
    bc_all = api.run("brandes", small).value
    write(args, {
        "setup_s": setup, "rounds": rounds, "peak_rss_mb": peak,
        "n_vertices": int(g.n_vertices), "q": first["q"],
        "edge_cut": float(edge_cut(g, first["parts"])),
        "bc_vertex_sum": first["bc_vertex_sum"], "bc_edge_sum": first["bc_edge_sum"],
        "bc_vertex_min": first["bc_vertex_min"],
        "identity": {"vertex_sum": float(bc_all.vertex.sum()),
                     "edge_sum": float(bc_all.edge.sum()),
                     "n_vertices": int(small.n_vertices)},
        "spans": spans.export(),
    }, {k2: first[k2] for k2 in ("cc", "clo", "tri", "pla", "parts")})


# ----------------------------------------------------------------------
def _cli(argv: list[str]) -> int:
    import repro.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def mode_shard_build(args: dict) -> None:
    """``repro shard build`` ``n_builds`` times, then the in-core reference."""
    import repro.api as api
    import repro.cli  # noqa: F401 - import cost stays outside the clock
    import repro.partitioning  # noqa: F401
    import repro.sharded  # noqa: F401
    from repro.graph.io import read_auto

    builds = []
    for i in range(args["n_builds"]):
        t0 = time.perf_counter()
        rc = _cli(["shard", "build", args["edges"], "-o", f"{args['shard_dir']}{i}",
                   "-k", str(args["k"])])
        builds.append(time.perf_counter() - t0)
        if rc != 0:
            raise SystemExit(f"shard build exited {rc}")
    doc: dict = {"setup_s": builds}
    if args["trace"]:
        t0 = time.perf_counter()
        read_auto(args["edges"])
        doc["graph.read_s"] = time.perf_counter() - t0
    # In-core pLA on the same graph: the substrate promises the same Q.
    g = read_auto(args["edges"])
    pla = api.run("pla", g, multilevel=True).value
    doc["incore_q"] = float(pla.modularity)
    write(args, doc, {"pla": np.asarray(pla.labels)})


def mode_shard_run(args: dict) -> None:
    """One ``repro shard run``; a fresh process per round keeps VmHWM per run."""
    import repro.cli  # noqa: F401 - import cost stays outside the clock
    import repro.sharded  # noqa: F401
    import repro.sharded.algorithms  # noqa: F401
    import repro.sharded.bsp as bsp

    checkpoints: list[dict] = []
    if args["trace"]:
        # Both bind repro.durable.save_state at import: superstep
        # checkpoints (bsp) and the per-algorithm run.ckpt (cli).
        inner = bsp.save_state

        def timed_save_state(path, *a, **kw):
            t0 = time.perf_counter()
            out = inner(path, *a, **kw)
            checkpoints.append({"seconds": time.perf_counter() - t0,
                                "bytes": Path(path).stat().st_size})
            return out

        bsp.save_state = timed_save_state
        repro.cli.save_state = timed_save_state
    argv = ["shard", "run", args["shard_dir"],
            "--algo", "msbfs,closeness,components,pla",
            "--sources", ",".join(str(s) for s in args["sources"]),
            "--backend", "process", "--workers", "2",
            "--checkpoint-every", "4", "--metrics", args["metrics_path"]]
    t0 = time.perf_counter()
    rc = _cli(argv)
    solve_s = time.perf_counter() - t0
    if rc != 0:
        raise SystemExit(f"shard run exited {rc}")
    write(args, {"solve_s": solve_s, "peak_rss_mb": vm_hwm_mb(), "checkpoints": checkpoints})


# ----------------------------------------------------------------------
def mode_replay(args: dict) -> None:
    """Replay the daemon's ingest sequence in-process to split its cost."""
    from repro.dynamic import StreamEngine
    from repro.dynamic.events import EdgeEvent
    from repro.graph.io import read_edge_list

    t0 = time.perf_counter()
    live = read_edge_list(args["live_edges"])
    read_edge_list(args["web_edges"])
    read_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    engine = StreamEngine.from_graph(live, analytics=("components", "stats", "degree"), k=10)
    build_s = time.perf_counter() - t0
    apply_ms, snapshot_ms, n_edges = [], [], []
    for batch in args["batches"]:
        events = [EdgeEvent(kind, u, v, t=t, weight=1.0) for kind, u, v, t in batch]
        t0 = time.perf_counter()
        engine.apply_batch(events)
        t1 = time.perf_counter()
        engine.snapshot()
        t2 = time.perf_counter()
        apply_ms.append((t1 - t0) * 1e3)
        snapshot_ms.append((t2 - t1) * 1e3)
        n_edges.append(int(engine.n_edges))
    write(args, {"graph.read_s": read_s, "engine_build_s": build_s,
                 "apply_ms": apply_ms, "snapshot_ms": snapshot_ms,
                 "n_edges": n_edges})


MODES = {
    "incore": mode_incore,
    "shard-build": mode_shard_build,
    "shard-run": mode_shard_run,
    "replay": mode_replay,
}

if __name__ == "__main__":
    mode, arg_path = sys.argv[1], sys.argv[2]
    MODES[mode](json.loads(Path(arg_path).read_text()))
