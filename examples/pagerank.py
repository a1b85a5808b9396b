"""PageRank on the segmented-sum sparse engine.

A classic irregular workload: power iteration over a sparse link matrix.
Each iteration is one sparse matrix–vector multiply — a gather, a
multiply, and ONE segmented +-distribute, so O(1) program steps per
iteration on the scan model regardless of how skewed the link structure
is.  The graph machinery (connected components) then interprets the
scores' support.

Run:  python examples/pagerank.py
"""
import numpy as np

from repro import Machine
from repro.algorithms import SparseMatrix
from repro.observe import profile


def main() -> None:
    rng = np.random.default_rng(13)
    n = 400
    # a scale-free-ish link structure: preferential attachment
    src, dst = [], []
    for v in range(1, n):
        for _ in range(int(rng.integers(1, 4))):
            target = int(rng.integers(0, v)) if rng.random() < 0.7 \
                else int(rng.integers(0, n))
            if target != v:
                src.append(v)
                dst.append(target)
    m_links = len(src)
    print(f"web graph: {n} pages, {m_links} links")

    # column-stochastic transition matrix (dangling pages jump uniformly)
    out_deg = np.bincount(src, minlength=n).astype(float)
    vals = [1.0 / out_deg[s] for s in src]

    m = Machine("scan")
    transition = SparseMatrix(m, shape=(n, n), rows=dst, cols=src, vals=vals)

    damping = 0.85
    rank = np.full(n, 1.0 / n)
    with profile(m) as p:
        for it in range(60):
            dangling = rank[out_deg == 0].sum()
            spread = transition.matvec(rank)
            new_rank = (damping * (spread.data + dangling / n)
                        + (1 - damping) / n)
            if np.abs(new_rank - rank).sum() < 1e-12:
                rank = new_rank
                break
            rank = new_rank

    top = np.argsort(-rank)[:8]
    print(f"\nconverged after {it + 1} iterations, "
          f"{p.total_steps} total program steps "
          f"(~{p.total_steps // (it + 1)} per iteration, O(1))")
    print("top pages by rank:")
    peak = rank[top[0]]
    for p in top:
        bar = "#" * int(40 * rank[p] / peak)
        print(f"  page {p:>4}: {rank[p]:.5f} {bar}")
    assert abs(rank.sum() - 1.0) < 1e-9


if __name__ == "__main__":
    main()
