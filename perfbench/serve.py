"""``serve_live``: the daemon's use, reads beside writes over HTTP.

``python -m repro serve`` runs on its defaults (serial backend, default
coalescer).  Set-up loads a static ``web`` graph and a ``live`` graph
over ``POST /v1/load``, applies the first ingest and makes one warm
call per query kind; it is repeated on ``daemons`` fresh daemons and
the last one serves.  After set-up the served pLA and k-way partition
of ``live`` give the run's quality figures.  Then a closed loop of two
connections runs whole rounds until the run length is used:

* connection R: ``reads_per_round`` reads on ``web`` cycling bfs,
  msbfs(4) and closeness(4), sources drawn from a hot set;
* connection W: one ingest into ``live``, closeness(4) on ``live``
  right after it, then 3 bfs on ``web``.

Only W touches ``live``, and W's ``web`` reads sit between its live
read and its next ingest: an ingest into a graph pinned by an
in-flight read is refused with 507 after the batch was applied, and
the coalescer resolves a request before it unpins the graph.  The
daemon is stopped with SIGINT.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from common import (ROOT, BenchError, child_env, median, percentile, pick_sources,
                    rmat_edges, rng_for, run_child, vm_hwm_mb, write_edge_list)
import oracle


# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, work, index: int) -> None:
        self.log_path = work / f"daemon{index}.log"
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0"],
            cwd=ROOT, env=child_env(), stdout=self._log, stderr=subprocess.STDOUT,
        )
        self.port = self._wait_port()

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            m = re.search(r"listening on http://[^:]+:(\d+)", self.log_path.read_text())
            if m:
                return int(m.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise BenchError(f"daemon did not start: {self.log_path.read_text()[-2000:]}")

    def request(self, path: str, doc: dict):
        """POST ``doc``; returns (status, body bytes, latency seconds)."""
        body = json.dumps(doc).encode()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            t0 = time.perf_counter()
            conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
            return resp.status, data, time.perf_counter() - t0
        finally:
            conn.close()

    def stop(self) -> list[str]:
        """SIGINT, wait, and confirm the process and its port are gone."""
        if self._log.closed:
            return []
        problems = []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                problems.append("daemon ignored SIGINT for 30 s")
        self._log.close()
        port = getattr(self, "port", None)
        if port is not None and not port_free(port):
            problems.append(f"port {port} still bound after the daemon exited")
        return problems


def port_free(port: int) -> bool:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        try:
            s.bind(("127.0.0.1", port))
        except OSError:
            return False
    return True


# ----------------------------------------------------------------------
class LiveGraph:
    """The benchmark's own copy of ``live``'s edge set and ingest stream."""

    def __init__(self, n: int, u: np.ndarray, v: np.ndarray, rng, n_events: int) -> None:
        self.n = n
        self.edges = set((u * n + v).tolist())
        self.rng = rng
        self.n_events = n_events
        self.batches: list[list] = []

    def next_batch(self) -> list:
        """¾ adds of absent edges, ¼ deletes of present ones, all distinct."""
        n, t = self.n, len(self.batches) + 1
        n_del = self.n_events // 4
        present = np.fromiter(self.edges, dtype=np.int64)
        present.sort()
        dels = self.rng.choice(present, size=n_del, replace=False).tolist()
        adds: list[int] = []
        while len(adds) < self.n_events - n_del:
            a, b = (int(x) for x in self.rng.integers(0, n, size=2))
            key = min(a, b) * n + max(a, b)
            if a != b and key not in self.edges and key not in adds:
                adds.append(key)
        self.edges.difference_update(dels)
        self.edges.update(adds)
        batch = [["add", k // n, k % n, t] for k in adds] + [["delete", k // n, k % n, t] for k in dels]
        self.batches.append(batch)
        return batch

    def arrays(self, edges=None):
        keys = np.fromiter(self.edges if edges is None else edges, dtype=np.int64)
        return keys // self.n, keys % self.n


def wire_events(batch: list) -> list:
    return [[t, "+" if kind == "add" else "-", u, v] for kind, u, v, t in batch]


# ----------------------------------------------------------------------
class Expect:
    """scipy answers for the hot set of ``web``."""

    def __init__(self, n, u, v, hot) -> None:
        self.n = n
        self.row = {s: i for i, s in enumerate(hot)}
        D = oracle.distances(oracle.adjacency(n, u, v), hot)
        self.dist = np.where(np.isfinite(D), D, -1).astype(np.int64)
        self.clo = oracle.closeness_from_distances(D, n)

    def check(self, algo: str, params: dict, value) -> bool:
        if algo == "bfs":
            # Served bfs rides a one-lane msbfs and answers with the distance row.
            dist = value["distances"] if isinstance(value, dict) else value
            return np.array_equal(np.asarray(dist), self.dist[self.row[params["source"]]])
        rows = [self.row[s] for s in params["sources"]]
        if algo == "msbfs":
            return np.array_equal(np.asarray(value["distances"]), self.dist[rows])
        return np.allclose(np.asarray(value)[params["sources"]], self.clo[rows],
                           rtol=oracle.REL_TOL, atol=0)


class Recorder:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.ops: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, rec: dict) -> None:
        with self.lock:
            self.attempted += 1
            if not rec["ok"]:
                self.failed += 1
            self.ops.append(rec)

    def problem(self, msg: str) -> None:
        with self.lock:
            if len(self.problems) < 20:
                self.problems.append(msg)


def submit(d: Daemon, rec: Recorder, kind: str, graph: str, algo: str, params: dict,
           expect=None, defer: bool = False):
    """One wire query; returns the decoded value (``None`` on failure).

    With ``defer`` the raw reply is kept and the op record returned, so
    the closed loop spends no client time decoding between requests.
    """
    try:
        status, body, lat = d.request("/v1/submit", {"graph": graph, "algo": algo, "params": params})
    except OSError as exc:
        rec.add({"kind": kind, "ok": False})
        rec.problem(f"{kind} {algo}: {exc}")
        return None
    if status != 200:
        rec.add({"kind": kind, "ok": False})
        rec.problem(f"{kind} {algo} on {graph}: HTTP {status} {body[:200]!r}")
        return None
    op = {"kind": kind, "ok": True, "lat_ms": lat * 1e3, "algo": algo, "params": params,
          "expect": expect, "body": body}
    rec.add(op)
    return op if defer else decode(op, rec)


def decode(op: dict, rec: Recorder):
    """Parse a kept reply into the op record, check it, return its value."""
    body = op.pop("body")
    doc = json.loads(body)
    serve = doc.get("serve", {})
    op.update(kb=len(body) / 1024.0, kernel_ms=doc["elapsed_seconds"] * 1e3,
              queue_ms=serve.get("queue_wait_s", 0.0) * 1e3, batch_size=serve.get("batch_size", 1))
    expect = op.pop("expect")
    if expect is not None and not expect.check(op["algo"], op["params"], doc["value"]):
        rec.problem(f"{op['kind']} {op['algo']} {op['params']}: answer differs from scipy")
    return doc["value"]


def ingest(d: Daemon, rec: Recorder, live: LiveGraph, batch: list) -> bool:
    try:
        status, body, lat = d.request("/v1/ingest", {"graph": "live", "events": wire_events(batch)})
    except OSError as exc:
        rec.add({"kind": "ingest", "ok": False})
        rec.problem(f"ingest: {exc}")
        return False
    ok = status == 200
    rec.add({"kind": "ingest", "ok": ok, "lat_ms": lat * 1e3})
    if not ok:
        rec.problem(f"ingest: HTTP {status} {body[:200]!r}")
        return False
    n_edges = json.loads(body)["n_edges"]
    if n_edges != len(live.edges):
        rec.problem(f"ingest {len(live.batches)}: daemon reports {n_edges} edges, "
                    f"expected {len(live.edges)}")
    return True


# ----------------------------------------------------------------------
def make_inputs(seed: int, size: dict, work) -> dict:
    n_w, u_w, v_w = rmat_edges(size["web_scale"], size["edge_factor"], rng_for(seed, "web"))
    n_l, u_l, v_l = rmat_edges(size["live_scale"], size["edge_factor"], rng_for(seed, "live"))
    write_edge_list(work / "web.el", u_w, v_w)
    write_edge_list(work / "live.el", u_l, v_l)
    hot = pick_sources(n_w, u_w, v_w, size["hot_set"], rng_for(seed, "hot"))
    return {"web": (n_w, u_w, v_w), "live": (n_l, u_l, v_l), "hot": hot,
            "web_path": str(work / "web.el"), "live_path": str(work / "live.el"),
            "live_sources": np.unique(np.r_[u_l, v_l])}


def set_up(d: Daemon, rec: Recorder, inp: dict, live0: LiveGraph, batch0: list,
           expect: Expect, rng) -> tuple[float, float]:
    """Timed set-up on a fresh daemon; returns (setup_s, load_s)."""
    hot = inp["hot"]
    t0 = time.perf_counter()
    for name in ("web", "live"):
        status, body, _ = d.request("/v1/load", {"path": inp[f"{name}_path"], "name": name})
        rec.add({"kind": "load", "ok": status == 200})
        if status != 200:
            raise BenchError(f"load {name}: HTTP {status} {body[:300]!r}")
    load_s = time.perf_counter() - t0
    ingest(d, rec, live0, batch0)
    warm = [("bfs", {"source": hot[0]}), ("msbfs", {"sources": hot[:4]}),
            ("closeness", {"sources": hot[:4]})]
    values = [submit(d, rec, "warm", "web", algo, params) for algo, params in warm]
    fresh = [int(x) for x in rng.choice(inp["live_sources"], size=4, replace=False)]
    value = submit(d, rec, "warm", "live", "closeness", {"sources": fresh})
    setup_s = time.perf_counter() - t0
    for (algo, params), got in zip(warm, values):
        if got is not None and not expect.check(algo, params, got):
            rec.problem(f"warm {algo}: answer differs from scipy")
    if value is not None:
        n, u, v = live0.n, *live0.arrays()
        D = oracle.distances(oracle.adjacency(n, u, v), fresh)
        rec.problems += oracle.check_closeness(np.asarray(value)[fresh], D, n, "warm live closeness")
    return setup_s, load_s


def run(seed: int, seconds: float, trace: bool, size: dict, work) -> dict:
    inp = make_inputs(seed, size, work)
    n_w, u_w, v_w = inp["web"]
    expect = Expect(n_w, u_w, v_w, inp["hot"])
    n_l, u_l, v_l = inp["live"]
    live = LiveGraph(n_l, u_l, v_l, rng_for(seed, "ingest"), size["ingest_events"])
    batch0 = live.next_batch()
    rec = Recorder()
    setups, loads = [], []
    daemons: list[Daemon] = []
    try:
        for i in range(size["daemons"]):
            d = Daemon(work, i)
            daemons.append(d)
            s, l = set_up(d, rec, inp, live, batch0, expect, rng_for(seed, "warm"))
            setups.append(s)
            loads.append(l)
            if i + 1 < size["daemons"]:
                rec.problems += d.stop()
        d = daemons[-1]
        quality = probe_quality(d, rec, live, size["kway_k"])
        rounds, loop_s, fresh_log = closed_loop(d, rec, live, inp, seed, seconds, size, expect)
        peak = vm_hwm_mb(d.proc.pid)
    finally:
        for dd in daemons:
            rec.problems += dd.stop()
    rec.problems += check_fresh(live, u_l, v_l, fresh_log)

    ops = rec.ops
    web = [o for o in ops if o["kind"] in ("read", "wread") and o["ok"]]
    fresh = [o for o in ops if o["kind"] == "fresh" and o["ok"]]
    ing = [o for o in ops if o["kind"] == "ingest" and o["ok"]][size["daemons"]:]
    loop_ops = sum(1 for o in ops if o["kind"] in ("read", "wread", "fresh", "ingest")) - size["daemons"]
    metrics = {"setup_s": median(setups), "peak_rss_mb": peak, "solve_s": median(rounds),
               "modularity": quality["modularity"], "edge_cut": quality["edge_cut"]}
    layers = {
        "serve.load_s": median(loads),
        "serve.read_p50_ms": median([o["lat_ms"] for o in web]),
        "serve.read_p95_ms": percentile([o["lat_ms"] for o in web], 95),
        "serve.fresh_read_p50_ms": median([o["lat_ms"] for o in fresh]),
        "serve.ingest_p50_ms": median([o["lat_ms"] for o in ing]),
        "serve.ops_per_s": loop_ops / loop_s,
        "serve.queue_wait_p50_ms": median([o["queue_ms"] for o in web]),
        "serve.kernel_p50_ms": median([o["kernel_ms"] for o in web]),
        "serve.transport_p50_ms": median([o["lat_ms"] - o["queue_ms"] - o["kernel_ms"] for o in web]),
        "serve.response_kb_p50": median([o["kb"] for o in web]),
        "serve.coalesced_share": float(np.mean([o["batch_size"] > 1 for o in web + fresh])),
        "serve.fresh_kernel_p50_ms": median([o["kernel_ms"] for o in fresh]),
        "community.pla_s": quality["pla_s"],
        "partitioning.kway_s": quality["kway_s"],
        "traced.solve_s": metrics["solve_s"],
    }
    if trace:
        layers.update(replay(inp, live, work, layers["serve.ingest_p50_ms"], rec))
    return {"correct": not rec.problems, "attempted": rec.attempted, "failed": rec.failed,
            "problems": rec.problems, "metrics": metrics, "layers": layers,
            "samples": {"setup_s": setups, "solve_s": rounds}}


def probe_quality(d: Daemon, rec: Recorder, live: LiveGraph, k: int) -> dict:
    """Served pLA and k-way partition of ``live`` as it stands after set-up."""
    n, (u, v) = live.n, live.arrays()
    pla = submit(d, rec, "probe", "live", "pla", {"multilevel": True})
    pla_s = rec.ops[-1].get("kernel_ms", 0.0) / 1e3
    parts = submit(d, rec, "probe", "live", "multilevel_kway", {"k": k})
    kway_s = rec.ops[-1].get("kernel_ms", 0.0) / 1e3
    if pla is None or parts is None:
        raise BenchError("quality probes failed")
    cut = oracle.cut_edges(u, v, np.asarray(parts))
    rec.problems += oracle.check_clustering(np.asarray(pla["labels"]), pla["modularity"], n, u, v, "served pla")
    rec.problems += oracle.check_partition(np.asarray(parts), k, oracle.MAX_IMBALANCE, cut, n, u, v, "served kway")
    return {"modularity": float(pla["modularity"]), "edge_cut": float(cut),
            "pla_s": pla_s, "kway_s": kway_s}


def closed_loop(d, rec, live, inp, seed, seconds, size, expect):
    hot = inp["hot"]
    start, end = threading.Barrier(3, timeout=170), threading.Barrier(3, timeout=170)
    state = {"stop": False}
    fresh_log: list = []

    def conn_r():
        rng = rng_for(seed, "conn-r")
        while True:
            start.wait()
            if state["stop"]:
                return
            for i in range(size["reads_per_round"]):
                kind = i % 3
                if kind == 0:
                    submit(d, rec, "read", "web", "bfs", {"source": int(rng.choice(hot))}, expect, True)
                else:
                    srcs = sorted(int(x) for x in rng.choice(hot, size=4, replace=False))
                    algo = "msbfs" if kind == 1 else "closeness"
                    submit(d, rec, "read", "web", algo, {"sources": srcs}, expect, True)
            end.wait()

    def conn_w():
        rng = rng_for(seed, "conn-w")
        while True:
            start.wait()
            if state["stop"]:
                return
            batch = live.next_batch()
            if ingest(d, rec, live, batch):
                srcs = sorted(int(x) for x in rng.choice(inp["live_sources"], size=4, replace=False))
                op = submit(d, rec, "fresh", "live", "closeness", {"sources": srcs}, defer=True)
                if op is not None:
                    fresh_log.append((len(live.batches), srcs, op))
            for _ in range(3):
                submit(d, rec, "wread", "web", "bfs", {"source": int(rng.choice(hot))}, expect, True)
            end.wait()

    threads = [threading.Thread(target=conn_r, daemon=True), threading.Thread(target=conn_w, daemon=True)]
    for t in threads:
        t.start()
    rounds = []
    t_begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        start.wait()
        end.wait()
        rounds.append(time.perf_counter() - t0)
        # Enough web reads that at least ten fall beyond the reported p95.
        reads = sum(1 for o in rec.ops if o["kind"] in ("read", "wread"))
        if time.perf_counter() - t_begin >= seconds and reads >= size["tail_reads"]:
            break
    loop_s = time.perf_counter() - t_begin
    state["stop"] = True
    start.wait()
    for t in threads:
        t.join(timeout=30)
    got = {}
    for op in rec.ops:
        if "body" in op:
            value = decode(op, rec)
            if op["kind"] == "fresh":
                got[id(op)] = np.asarray(value)[op["params"]["sources"]]
    return rounds, loop_s, [(step, srcs, got[id(op)]) for step, srcs, op in fresh_log]


def check_fresh(live: LiveGraph, u0, v0, fresh_log) -> list[str]:
    """Re-derive every fresh closeness from the benchmark's own edge set."""
    n = live.n
    edges = set((u0 * n + v0).tolist())
    want_at = {step: (srcs, got) for step, srcs, got in fresh_log}
    problems = []
    for step, batch in enumerate(live.batches, 1):
        for kind, a, b, _ in batch:
            (edges.add if kind == "add" else edges.discard)(a * n + b)
        if step in want_at:
            srcs, got = want_at[step]
            u, v = live.arrays(edges)
            D = oracle.distances(oracle.adjacency(n, u, v), srcs)
            problems += oracle.check_closeness(got, D, n, f"fresh closeness after ingest {step}")
    if len(fresh_log) + 1 < len(live.batches):
        problems.append(f"{len(live.batches) - 1 - len(fresh_log)} ingests had no fresh read")
    return problems


def replay(inp: dict, live: LiveGraph, work, ingest_p50_ms: float, rec: Recorder) -> dict:
    """Split ingest latency into stream-engine apply and snapshot time."""
    res = run_child("replay", {"live_edges": inp["live_path"], "web_edges": inp["web_path"],
                               "batches": live.batches}, work)
    if res["n_edges"][-1] != len(live.edges):
        rec.problem(f"replayed engine ends with {res['n_edges'][-1]} edges, "
                    f"expected {len(live.edges)}")
    apply_p50, snap_p50 = median(res["apply_ms"]), median(res["snapshot_ms"])
    return {"graph.read_s": res["graph.read_s"],
            "dynamic.engine_build_s": res["engine_build_s"],
            "dynamic.apply_ms_p50": apply_p50, "dynamic.snapshot_ms_p50": snap_p50,
            "serve.ingest_other_p50_ms": ingest_p50_ms - apply_p50 - snap_p50}
