"""Independent output checks, computed with numpy/scipy only.

Each check returns a list of problem strings (empty = pass), so the
self-test can show that a planted wrong answer is reported.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, shortest_path

REL_TOL = 1e-9
MAX_IMBALANCE = 1.05  # repro's multilevel_kway default


def adjacency(n: int, u: np.ndarray, v: np.ndarray) -> sp.csr_matrix:
    data = np.ones(2 * u.size, dtype=np.float64)
    return sp.coo_matrix((data, (np.r_[u, v], np.r_[v, u])), shape=(n, n)).tocsr()


def distances(A: sp.csr_matrix, sources) -> np.ndarray:
    """Hop distances from each source (``inf`` = unreached)."""
    return shortest_path(A, unweighted=True, directed=False,
                         indices=np.asarray(sources, dtype=np.int64))


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -- traversal ---------------------------------------------------------
def closeness_from_distances(dist: np.ndarray, n: int) -> np.ndarray:
    """Wasserman–Faust closeness of each source row of ``dist``."""
    fin = np.isfinite(dist)
    r = fin.sum(axis=1).astype(np.float64)
    total = np.where(fin, dist, 0.0).sum(axis=1)
    out = np.zeros(dist.shape[0])
    ok = (r > 1) & (total > 0)
    out[ok] = (r[ok] - 1) / total[ok] * ((r[ok] - 1) / (n - 1))
    return out


def check_closeness(got_at_sources: np.ndarray, dist: np.ndarray, n: int,
                    what: str) -> list[str]:
    want = closeness_from_distances(dist, n)
    got = np.asarray(got_at_sources, dtype=np.float64)
    if got.shape != want.shape or not np.allclose(got, want, rtol=REL_TOL, atol=0):
        return [f"{what}: closeness differs from scipy BFS distances"]
    return []


def check_brandes_identities(vertex_sum: float, edge_sum: float,
                             dist: np.ndarray, what: str) -> list[str]:
    """2·ΣBC(v) = Σ_s Σ_{t reached, t≠s} (d−1); 2·ΣBC(e) = Σ_s Σ_t d."""
    fin = np.isfinite(dist) & (dist > 0)
    d = dist[fin]
    want_v, want_e = float((d - 1).sum()), float(d.sum())
    out = []
    if not _close(2 * vertex_sum, want_v):
        out.append(f"{what}: 2*sum vertex BC {2 * vertex_sum!r} != {want_v!r}")
    if not _close(2 * edge_sum, want_e):
        out.append(f"{what}: 2*sum edge BC {2 * edge_sum!r} != {want_e!r}")
    return out


# -- components --------------------------------------------------------
def check_components(labels: np.ndarray, A: sp.csr_matrix, what: str) -> list[str]:
    n_cc, ref = connected_components(A, directed=False)
    labels = np.asarray(labels).astype(np.int64)
    if labels.shape != ref.shape:
        return [f"{what}: {labels.shape[0]} labels for {ref.shape[0]} vertices"]
    pairs = np.unique(labels * (n_cc + 1) + ref).size
    if not (pairs == n_cc == np.unique(labels).size):
        return [f"{what}: component partition differs from scipy ({n_cc} components)"]
    return []


# -- triangles ---------------------------------------------------------
def triangles_per_vertex(A: sp.csr_matrix, block: int = 4096) -> np.ndarray:
    """Row sums of (A²∘A) / 2, computed in row blocks to bound memory."""
    n = A.shape[0]
    out = np.zeros(n, dtype=np.int64)
    for i in range(0, n, block):
        B = A[i:i + block]
        out[i:i + block] = np.asarray((B @ A).multiply(B).sum(axis=1)).ravel().astype(np.int64) // 2
    return out


def check_triangles(got: np.ndarray, A: sp.csr_matrix, what: str) -> list[str]:
    want = triangles_per_vertex(A)
    got = np.asarray(got).astype(np.int64)
    if got.shape != want.shape:
        return [f"{what}: {got.shape[0]} counts for {want.shape[0]} vertices"]
    bad = int((got != want).sum())
    return [f"{what}: {bad} per-vertex triangle counts differ "
            f"(sum {int(got.sum())} vs {int(want.sum())})"] if bad else []


# -- community ---------------------------------------------------------
def modularity(n: int, u: np.ndarray, v: np.ndarray, labels: np.ndarray) -> float:
    """Newman modularity of ``labels`` on the unit-weight graph."""
    labels = np.asarray(labels).astype(np.int64)
    m = float(u.size)
    _, lab = np.unique(labels, return_inverse=True)
    k = lab.max() + 1
    inside = np.bincount(lab[u][lab[u] == lab[v]], minlength=k).astype(np.float64)
    deg = np.bincount(np.r_[u, v], minlength=n).astype(np.float64)
    vol = np.bincount(lab, weights=deg, minlength=k)
    return float((inside / m).sum() - ((vol / (2 * m)) ** 2).sum())


def check_clustering(labels: np.ndarray, q: float, n: int, u: np.ndarray,
                     v: np.ndarray, what: str) -> list[str]:
    labels = np.asarray(labels)
    if labels.shape != (n,) or (labels < 0).any():
        return [f"{what}: labels do not cover the {n} vertices"]
    want = modularity(n, u, v, labels)
    if not _close(q, want):
        return [f"{what}: reported Q {q!r} but labels give {want!r}"]
    return []


# -- partitioning ------------------------------------------------------
def cut_edges(u: np.ndarray, v: np.ndarray, parts: np.ndarray) -> int:
    parts = np.asarray(parts)
    return int((parts[u] != parts[v]).sum())


def check_partition(parts: np.ndarray, k: int, max_imbalance: float,
                    reported_cut: float, n: int, u: np.ndarray, v: np.ndarray,
                    what: str) -> list[str]:
    parts = np.asarray(parts).astype(np.int64)
    out = []
    if parts.shape != (n,) or parts.min() < 0 or parts.max() >= k:
        return [f"{what}: labels are not a {k}-way partition of {n} vertices"]
    sizes = np.bincount(parts, minlength=k)
    if (sizes == 0).any():
        out.append(f"{what}: empty part among sizes {sizes.tolist()}")
    if max_imbalance is not None and sizes.max() * k / n > max_imbalance + 1e-12:
        out.append(f"{what}: imbalance {sizes.max() * k / n:.4f} > {max_imbalance}")
    cut = cut_edges(u, v, parts)
    if cut != reported_cut:
        out.append(f"{what}: reported cut {reported_cut} but edge list gives {cut}")
    return out
