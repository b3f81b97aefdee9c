"""Automatic moment-order selection via Hankel singular values.

Paper §4, first bullet: because the associated transforms are standard
single-``s`` linear systems, the number of moments to match for each
``Hn`` "can utilize the Hankel singular values or similar measure
inherent to linear MOR ... in contrast to the ad hoc order choice in
NORM".  This module implements that idea:

1. build a modest shift-invert Krylov surrogate for each associated
   realization (in the lifted space, matrix-free),
2. project the realization onto the surrogate — a small dense LTI system,
3. read off its Hankel singular values,
4. pick each order ``q_n`` as the number of HSVs above a relative
   threshold measured against the *largest HSV across all orders* (so
   weakly excited high-order kernels naturally get fewer moments).
"""

import numpy as np

from .._validation import check_positive_int
from ..errors import NumericalError
from ..linalg.arnoldi import merge_bases
from ..systems.lti import StateSpace
from ..volterra.associated import (
    AssociatedWorkspace,
    FactoredH3Realization,
    associated_h1,
    associated_h2,
    associated_h3,
)

__all__ = ["realization_hankel_values", "suggest_orders"]


def realization_hankel_values(realization, probe=8, s0=0.0):
    """Approximate HSVs of an associated realization.

    Builds *probe* shift-invert Krylov vectors in the lifted space,
    orthonormalizes them, projects ``(A, B, C)`` onto the span and
    computes the Hankel singular values of the small projected system.
    The chains give ``A`` on their own span, ``A x_{k+1} = x_k + s0
    x_{k+1}`` with ``x_0`` a column of ``B``, so the projection ``Vᵀ A V``
    is solved for from the chains' coordinates and needs no matvec.
    H3's compressed chain vectors are densified for it.

    Falls back to the singular values of the projected moment matrix when
    the Krylov-compressed surrogate is not Hurwitz (rare; the projection
    is one-sided), and for H3 on a sparse system, whose lifted vectors
    are too large to densify.
    """
    probe = check_positive_int(probe, "probe")
    factored = isinstance(realization, FactoredH3Realization)
    if factored and realization.workspace.is_sparse:
        moments = realization.moment_vectors(
            probe, s0=s0, deduplicate=False
        )
        return np.linalg.svd(np.real(moments), compute_uv=False)
    op = realization.operator
    current = list(realization.columns)

    def dense(vectors):
        return np.column_stack(
            [v.to_vector() if factored else v for v in vectors]
        )

    blocks = [dense(current).real]
    for _ in range(probe):
        current = [op.solve_shifted(-s0, v) for v in current]
        blocks.append(dense(current))
    chains = blocks[1:]
    basis = merge_bases(chains, tol=1e-10)
    # Chain coordinates E_k = Vᵀ x_k; A_small E_k = E_{k-1} + s0 E_k, split
    # into real and imaginary parts as merge_bases splits the chains.
    coords = [basis.T @ block for block in blocks]
    e = np.hstack(coords[1:])
    f = np.hstack(coords[:-1]) + s0 * e
    a_small = np.linalg.lstsq(
        np.hstack([e.real, e.imag]).T, np.hstack([f.real, f.imag]).T,
        rcond=None,
    )[0].T
    surrogate = StateSpace(a_small, coords[0], basis[: realization.n_top])
    if surrogate.is_stable():
        try:
            return surrogate.hankel_singular_values()
        except NumericalError:
            pass
    moments = np.hstack([chain[: realization.n_top] for chain in chains])
    return np.linalg.svd(np.real(moments), compute_uv=False)


def suggest_orders(system, probe=8, tol=1e-4, s0=0.0, max_order=None):
    """Suggest ``(q1, q2, q3)`` moment orders from HSV decay.

    Parameters
    ----------
    system : PolynomialODE
    probe : int
        Surrogate Krylov depth per transfer function.
    tol : float
        Keep moments whose HSV exceeds ``tol * max(all HSVs)``.
    s0 : float
        Expansion point.
    max_order : int, optional
        Upper bound on each suggested order (defaults to *probe*).

    Returns
    -------
    (q1, q2, q3) tuple plus a dict of HSV arrays, as
    ``(orders, {"H1": hsv1, "H2": hsv2, "H3": hsv3})``.
    """
    explicit = system.to_explicit()
    workspace = AssociatedWorkspace(explicit)
    cap = max_order if max_order is not None else probe
    realizations = {"H1": associated_h1(explicit, workspace)}
    r2 = associated_h2(explicit, workspace)
    if r2 is not None:
        realizations["H2"] = r2
    r3 = associated_h3(explicit, workspace)
    if r3 is not None:
        realizations["H3"] = r3
    hsvs = {
        key: realization_hankel_values(real, probe=probe, s0=s0)
        for key, real in realizations.items()
    }
    global_max = max(h[0] for h in hsvs.values() if h.size)
    orders = []
    for key in ("H1", "H2", "H3"):
        if key not in hsvs or hsvs[key].size == 0:
            orders.append(0)
            continue
        count = int(np.sum(hsvs[key] > tol * global_max))
        orders.append(min(max(count, 0), cap))
    if orders[0] == 0:
        orders[0] = 1  # always keep at least the linear response
    return tuple(orders), hsvs
