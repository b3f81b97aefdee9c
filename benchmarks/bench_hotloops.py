#!/usr/bin/env python
"""Hot-loop scatter kernels: ``np.add.at`` vs ``scatter_add_rows``.

Before/after microbenchmark for the vectorized scatter that replaced
``np.add.at`` in the streaming contractions (see
``repro.linalg._hotloops``):

* **sparse_kron_apply** — the full ``G2 @ kron(H1, H1)`` streaming
  contraction, end-to-end, with the scatter stage run once through an
  ``np.add.at`` shim (the pre-optimization code path) and once through
  ``scatter_add_rows``.
* **Tucker chain step** — the factored-chain coupling scatter of
  ``FactoredH3Operator._xb_g2_coupling``: COO rows scattering an
  ``(nnz, r)`` complex contribution panel (the panel is built once;
  only its scatter is timed).

Both cases run at a circuit-sized state count but with the quadratic
term densified to mesh-circuit density (``COUPLINGS_PER_ROW`` entries
per state) — the RC ladder's native one-entry-per-node ``G2`` never
leaves scatter overhead territory.

Both cases assert ≤ 1e-12 agreement between the two scatters and the
entry lands in the keyed run list of ``benchmarks/BENCH_sweep.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotloops.py [n_nodes]

``REPRO_BENCH_QUICK=1`` shrinks the problem for CI smoke runs.
"""

import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.perf_log import append_run  # noqa: E402
from repro.circuits.examples import (  # noqa: E402
    quadratic_rc_ladder_netlist,
)
from repro.linalg import kronecker  # noqa: E402
from repro.linalg._hotloops import scatter_add_rows  # noqa: E402

OUT_PATH = Path(__file__).resolve().parent / "BENCH_sweep.json"

DEFAULT_NODES = 512
#: Quadratic couplings per state row.  The RC ladder's native ``G2`` has
#: one entry per node — far too sparse to stress the scatter — so both
#: cases densify it to mesh-circuit density (every node quadratically
#: coupled to a neighborhood), the regime the kernel was written for.
COUPLINGS_PER_ROW = 16
TUCKER_RANK = 9  # r per factor -> r^2 = 81 columns in the chain panel
REPEATS = 5


def _quick():
    return os.environ.get("REPRO_BENCH_QUICK", "0") == "1"


def _mesh_g2(n, rng):
    """A mesh-density quadratic term: COO ``(n, n^2)``, sorted rows."""
    per_row = COUPLINGS_PER_ROW
    rows = np.repeat(np.arange(n), per_row)
    cols = rng.integers(0, n * n, size=rows.size)
    vals = rng.standard_normal(rows.size)
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n * n))


def _add_at_scatter(out, rows, contrib):
    """The pre-optimization scatter, shim-compatible with the kernel."""
    np.add.at(out, rows, contrib)
    return out


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_kron_case(n_nodes=None):
    """End-to-end ``sparse_kron_apply(G2, [H1, H1])``, before vs after."""
    if n_nodes is None:
        n_nodes = 128 if _quick() else DEFAULT_NODES
    system = quadratic_rc_ladder_netlist(n_nodes).compile(sparse=True)
    n = system.n_states
    rng = np.random.default_rng(42)
    g2 = _mesh_g2(n, rng)
    m = 6
    h1 = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))

    original = kronecker.scatter_add_rows
    try:
        kronecker.scatter_add_rows = _add_at_scatter
        before_s, ref = _best_of(
            REPEATS, lambda: kronecker.sparse_kron_apply(g2, [h1, h1])
        )
    finally:
        kronecker.scatter_add_rows = original
    after_s, out = _best_of(
        REPEATS, lambda: kronecker.sparse_kron_apply(g2, [h1, h1])
    )

    agreement = float(np.abs(out - ref).max())
    assert agreement <= 1e-12, f"scatter parity violated: {agreement:.3e}"
    return {
        "n_states": int(n),
        "nnz": int(g2.nnz),
        "out_cols": int(m * m),
        "add_at_s": before_s,
        "scatter_s": after_s,
        "speedup": before_s / after_s,
        "max_abs_disagreement": agreement,
    }


def run_tucker_chain_case(n_nodes=None):
    """The ``_xb_g2_coupling`` chain-step scatter at its real shape."""
    if n_nodes is None:
        n_nodes = 128 if _quick() else DEFAULT_NODES
    system = quadratic_rc_ladder_netlist(n_nodes).compile(sparse=True)
    n = system.n_states
    rng = np.random.default_rng(7)
    g2 = _mesh_g2(n, rng)
    rows = g2.row
    vals = g2.data.astype(complex)
    jj = g2.col % n
    kk = g2.col // n
    r = TUCKER_RANK
    core = rng.standard_normal((r, r, r)) + 1j * rng.standard_normal(
        (r, r, r)
    )
    q = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    s = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))

    # The panel FactoredH3Operator._xb_g2_coupling scatters into its
    # accumulated right factor: the Tucker core contracted against the
    # gathered factors (there, one GEMM over the core's last mode and a
    # gather, FactoredH3Operator._fiber_contract; here once, by einsum).
    # Only the scatter is timed.
    t = np.einsum("abc,eb,ec->ea", core, q[jj], s[kk], optimize=True)
    panel = vals[:, None] * t

    def step(scatter):
        right = np.zeros((n, t.shape[1]), dtype=t.dtype)
        scatter(right, rows, panel)
        return right

    before_s, ref = _best_of(REPEATS, lambda: step(_add_at_scatter))
    after_s, out = _best_of(REPEATS, lambda: step(scatter_add_rows))

    agreement = float(np.abs(out - ref).max())
    assert agreement <= 1e-12, f"scatter parity violated: {agreement:.3e}"
    return {
        "n_states": int(n),
        "nnz": int(rows.size),
        "panel_cols": int(r),
        "add_at_s": before_s,
        "scatter_s": after_s,
        "speedup": before_s / after_s,
        "max_abs_disagreement": agreement,
    }


def main():
    argv = sys.argv[1:]
    n_nodes = int(argv[0]) if len(argv) > 0 else None
    results = {
        "meta": {
            "bench": "bench_hotloops",
            "generated_unix": time.time(),
            "quick_scale": _quick(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        }
    }
    print("sparse_kron_apply scatter, np.add.at vs scatter_add_rows ...")
    results["hotloop_sparse_kron_apply"] = run_kron_case(n_nodes)
    print(
        "  add.at {add_at_s:.4f}s -> scatter {scatter_s:.4f}s "
        "({speedup:.2f}x on n={n_states}, nnz={nnz}, "
        "agreement {max_abs_disagreement:.2e})"
        .format(**results["hotloop_sparse_kron_apply"])
    )

    print("Tucker chain-step scatter, np.add.at vs scatter_add_rows ...")
    results["hotloop_tucker_chain"] = run_tucker_chain_case(n_nodes)
    print(
        "  add.at {add_at_s:.4f}s -> scatter {scatter_s:.4f}s "
        "({speedup:.2f}x on n={n_states}, nnz={nnz}, "
        "agreement {max_abs_disagreement:.2e})"
        .format(**results["hotloop_tucker_chain"])
    )

    count = append_run(OUT_PATH, results)
    print(f"appended run {count} to {OUT_PATH}")


if __name__ == "__main__":
    main()
