"""Vectorized scatter kernels.

``np.add.at`` is the textbook way to accumulate COO-style contributions
into rows of an output array, and it is also one of numpy's slowest
operations: the buffered ufunc machinery dispatches per *element*, so
the streaming contractions built on it — ``kronecker.sparse_kron_apply``,
the factored-chain Tucker couplings in :mod:`repro.linalg.operators`,
the H3/Ĝ2 COO assemblies in :mod:`repro.linalg.sylvester` — spend most
of their time in scatter bookkeeping rather than arithmetic.

:func:`scatter_add_rows` replaces it for the leading-axis ("row")
scatter those sites share:

* 1-D real output      → ``np.bincount`` (a single C pass),
* 1-D complex output   → two ``bincount`` passes (real, imag),
* N-D output           → stable sort + ``np.add.reduceat`` per row
  group, skipping the sort entirely when the row index is already
  non-decreasing (CSR→COO row indices always are).

Numerical equivalence: the 1-D paths (``bincount``) walk contributions
in their original element order and are **bit-identical** to the
``np.add.at`` they replace (for the zero-initialized outputs every call
site uses).  The N-D ``reduceat`` path sums each row group with numpy's
pairwise reduction instead of strictly sequentially — *more* accurate,
and within a few ulps of the sequential result; every caller tolerance
(the analytic kernel checks) sits orders of magnitude above that.
Callers accumulating into an already populated output should keep
``np.add.at`` (grouped summation would reassociate against the existing
values).
"""

import numpy as np

__all__ = ["scatter_add_rows"]


def _scatter_sorted(out, rows, contrib):
    """Grouped ``reduceat`` scatter assuming *rows* is non-decreasing."""
    starts = np.flatnonzero(np.diff(rows)) + 1
    starts = np.concatenate((np.zeros(1, dtype=starts.dtype), starts))
    sums = np.add.reduceat(contrib, starts, axis=0)
    out[rows[starts]] += sums


def scatter_add_rows(out, rows, contrib):
    """``out[rows[e]] += contrib[e]`` over all elements, fast.

    Parameters
    ----------
    out : (n, ...) ndarray
        Zero-initialized accumulator (see module docstring for the
        numerical-equivalence contract).  Modified in place and
        returned.
    rows : (nnz,) integer ndarray
        Target row per contribution; duplicates accumulate.
    contrib : (nnz, ...) ndarray
        Per-element contributions; trailing shape must match *out*.
    """
    rows = np.asarray(rows)
    contrib = np.asarray(contrib)
    if rows.size == 0:
        return out
    if out.ndim == 1 and out.dtype.kind in "fc" and contrib.dtype.kind in "fc":
        minlength = out.shape[0]
        if np.iscomplexobj(out) or np.iscomplexobj(contrib):
            out += np.bincount(
                rows, weights=contrib.real, minlength=minlength
            ) + 1j * np.bincount(
                rows, weights=contrib.imag, minlength=minlength
            )
        else:
            out += np.bincount(rows, weights=contrib, minlength=minlength)
        return out
    if rows.size > 1 and not (np.diff(rows) >= 0).all():
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        contrib = contrib[order]
    _scatter_sorted(out, rows, contrib)
    return out
