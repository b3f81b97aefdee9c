"""The proposed NMOR method: moment matching on associated transforms.

This is the paper's algorithm.  For a QLDAE (or cubic ODE) the reducer

1. builds the associated single-``s`` realizations of ``H1``, ``A2(H2)``
   and ``A3(H3)`` (exact linear systems; §2.2),
2. generates ``q1``/``q2``/``q3`` shift-invert Krylov vectors for each,
   projected onto the original ``n``-dimensional state space through the
   ``c̃ = [I_n, 0]`` output maps (§2.3),
3. merges the blocks into one orthonormal ``V`` (rank-deflated), and
4. Galerkin-projects the polynomial system onto ``span(V)``.

The resulting ROM order is ``O(q1 + q2 + q3)`` — the paper's headline —
versus the ``O(q1 + q2³ + q3⁴)`` of NORM (see :mod:`repro.mor.norm`).

Two subspace strategies are provided:

* ``"coupled"`` — chains on the block-triangular lifted operators
  directly (paper eq. 17),
* ``"decoupled"`` — the eq.-(18) Sylvester similarity transform, which
  splits ``A2(H2)`` into independent subsystems whose chains could be
  generated in parallel.  On sparse circuit-compiled systems this is
  also the scale path: Π is solved in factored form and every chain is
  a sparse-``G1`` solve, so the full method runs at ``n ≫ 2000``.

Multipoint (rational Krylov) expansion is supported by passing several
``expansion_points`` (paper §4, third bullet).
"""

import time

import numpy as np

from .._validation import check_nonnegative_int
from ..errors import ValidationError
from ..linalg.arnoldi import merge_bases
from ..volterra.associated import (
    AssociatedWorkspace,
    associated_h1,
    associated_h2,
    associated_h2_decoupled,
    associated_h3,
)
from .base import ReducedOrderModel

__all__ = ["AssociatedTransformMOR"]


def _rom_stability_details(reduced):
    """Spectral-abscissa diagnostics of a reduced system's linear part.

    One-sided Galerkin projection does not guarantee stability in
    general; recording the reduced spectrum lets callers detect (and
    re-tune orders / expansion points on) an unstable ROM.  Structural
    zero modes from exact lifting (uncontrollable, projecting to ~1e-12
    eigenvalues) are tolerated.
    """
    if reduced.mass is not None:
        pencil = np.linalg.solve(reduced.mass, reduced.g1)
    else:
        pencil = reduced.g1
    eig_max = float(np.linalg.eigvals(pencil).real.max())
    scale = max(float(np.abs(pencil).max()), 1.0)
    return {
        "rom_linear_spectral_abscissa": eig_max,
        "rom_linear_stable": bool(eig_max < 1e-8 * scale),
    }


class AssociatedTransformMOR:
    """Projection-based NMOR via associated transforms (the paper's method).

    Parameters
    ----------
    orders : tuple (q1, q2, q3)
        Moments to match for ``H1``, ``A2(H2)`` and ``A3(H3)``.  A zero
        skips that transfer function entirely.
    expansion_points : sequence of complex
        Frequency expansion points ``s0`` (default: DC).  Several points
        give a multipoint/rational-Krylov basis.
    strategy : {"coupled", "decoupled"}
        Subspace construction for ``A2(H2)`` — see module docstring.
    deduplicate : bool
        Chain only one input column per symmetric multiset (no loss of
        span for symmetrized kernels).
    tol : float
        Relative SVD cutoff when merging/deflating basis blocks.
    """

    def __init__(
        self,
        orders=(6, 3, 2),
        expansion_points=(0.0,),
        strategy="coupled",
        deduplicate=True,
        tol=1e-10,
    ):
        if len(orders) != 3:
            raise ValidationError("orders must be a (q1, q2, q3) triple")
        self.orders = tuple(
            check_nonnegative_int(q, f"orders[{idx}]")
            for idx, q in enumerate(orders)
        )
        if sum(self.orders) == 0:
            raise ValidationError("at least one moment order must be > 0")
        self.expansion_points = tuple(expansion_points)
        if not self.expansion_points:
            raise ValidationError("need at least one expansion point")
        if strategy not in ("coupled", "decoupled"):
            raise ValidationError(
                f"strategy must be 'coupled' or 'decoupled', got {strategy!r}"
            )
        self.strategy = strategy
        self.deduplicate = bool(deduplicate)
        self.tol = float(tol)

    def build_basis(self, system, workspace=None, checkpoint=None):
        """Construct the projection basis ``V`` (without projecting).

        Returns ``(V, details)`` where *details* records per-block vector
        counts and which transfer functions were present.

        Sparse systems (CSR ``g1``) run fully matrix-free on the
        resolvent factory's sparse LU: the H1 chains, the eq.-(18)
        factored-Π decoupled H2 chains and the compressed lifted H3
        chains never densify ``G1``, so full ``orders=(q1, q2, q3)``
        bases build at ``n ≫ 2000`` with ``strategy="decoupled"``.
        Only ``strategy="coupled"`` still needs the dense Schur form
        (size-guarded through the workspace) — it remains the small-n
        reference the sparse path is tested against.

        All Krylov chains — per transfer function, per expansion point,
        per retained input column, and (for the decoupled strategy) per
        eq.-(18) subsystem — are independent.  They run as plain calls,
        one after another, in one fixed order; a chain that fails raises
        its solver's own exception.

        With *checkpoint* (a :class:`~repro.checkpoint.JobState`) every
        chain is a checkpoint stage: once it returns, its vectors
        and whatever part of the workspace's mutable solver state
        changed since the last commit are durably committed.  A killed
        build re-entered with the same checkpoint restores the solver
        state of the last commit, loads the committed chains from disk
        and computes only the rest — losing at most the chain that was
        running, and yielding a bit-identical basis.
        """
        if workspace is not None:
            # A caller-supplied workspace (multi-point reuse, parametric
            # warm start) pins the explicit form: its factorizations —
            # and any warm-start seeds — must act on the very matrices
            # the chains see.
            system = workspace.system
        else:
            system = system.to_explicit()
            # Memoized per system: multiple expansion points, repeated
            # builds and any distortion analysis on the same system all
            # share one Schur factorization of G1 (and one Π / lifted
            # operator when present).
            workspace = AssociatedWorkspace.for_system(system)
        if checkpoint is not None:
            # Restore *before* the realizations are constructed: the
            # decoupled-H2 realization consumes Π and the shared
            # low-rank solver at init time, and a resumed build must
            # see exactly the state the committed chains were computed
            # with (also skipping the Π recompute).
            workspace.restore_solver_state(checkpoint.solver_state())
        q1, q2, q3 = self.orders

        r1 = associated_h1(system, workspace) if q1 > 0 else None
        r2 = None
        dec2 = None
        if q2 > 0:
            if self.strategy == "decoupled":
                dec2 = associated_h2_decoupled(system, workspace)
            else:
                r2 = associated_h2(system, workspace)
        r3 = associated_h3(system, workspace) if q3 > 0 else None

        # Basis blocks ``(label, s0, vectors)`` in merge order, and every
        # chain as ``(block it feeds, callable)`` in the fixed order the
        # chains run and commit in.
        blocks, chains = [], []

        def add(label, s0, fns=()):
            block = (label, s0, [])
            blocks.append(block)
            chains.extend((block, fn) for fn in fns)
            return block

        for s0 in self.expansion_points:
            if r1 is not None:
                add("H1", s0, r1.chain_tasks(
                    q1, s0=s0, deduplicate=self.deduplicate
                ))
            if dec2 is not None:
                # One block per eq.-(18) subsystem; the two subsystems'
                # chains stay interleaved per input column, as
                # chain_tasks orders them.
                subs = [add(f"H2-sub{idx}", s0) for idx in (0, 1)]
                chains.extend(
                    (subs[idx], fn) for idx, fn in dec2.chain_tasks(
                        q2, s0=s0, deduplicate=self.deduplicate
                    )
                )
            elif r2 is not None:
                add("H2", s0, r2.chain_tasks(
                    q2, s0=s0, deduplicate=self.deduplicate
                ))
            if r3 is not None:
                add("H3", s0, r3.chain_tasks(
                    q3, s0=s0, deduplicate=self.deduplicate
                ))

        # Committed chains are consumed strictly as a prefix, and a
        # solver snapshot is written only when that half of the state
        # moved since the one the manifest references (on a resume,
        # the restored state).
        resuming = checkpoint is not None and checkpoint.resumed
        saved = workspace.solver_version() if resuming else (None, None)
        for index, ((label, s0, vectors), fn) in enumerate(chains):
            stage_id = f"{index:03d}:{label}@{s0!r}"
            if resuming and checkpoint.has_stage(stage_id):
                payload = checkpoint.load_stage(stage_id)
                vectors.extend(np.asarray(vec) for vec in payload["chain"])
                continue
            resuming = False
            chain = fn()
            vectors.extend(chain)
            if checkpoint is None:
                continue
            version = workspace.solver_version()
            snapshot = pi_snapshot = None
            if index < len(chains) - 1:
                # No stage follows the last one, so its solver state
                # can never be resumed from: skip the snapshot writes.
                if version[0] != saved[0]:
                    snapshot = workspace.lowrank_state()
                if version[1] != saved[1]:
                    pi_snapshot = workspace.pi_state()
            checkpoint.commit_stage(
                stage_id, {"chain": chain},
                solver_state=snapshot, pi_state=pi_snapshot,
            )
            saved = version

        stacked = []
        details = {"blocks": []}
        for label, s0, vectors in blocks:
            block = np.column_stack(vectors)
            stacked.append(block)
            details["blocks"].append((label, s0, block.shape[1]))

        if not stacked:
            raise ValidationError(
                "no basis blocks were generated; the requested transfer "
                "functions are all identically zero for this system"
            )
        basis = merge_bases(stacked, tol=self.tol)
        details["raw_vectors"] = int(sum(b.shape[1] for b in stacked))
        details["deflated_to"] = int(basis.shape[1])
        if dec2 is not None and workspace.pi_plan is not None:
            details["pi_plan"] = dict(workspace.pi_plan)
        if checkpoint is not None:
            details["checkpoint"] = checkpoint.describe()
        return basis, details

    def reduce(self, system, checkpoint=None, workspace=None):
        """Reduce *system* and return a :class:`ReducedOrderModel`.

        The Krylov basis is generated from the explicit form (the
        associated realizations need ``mass = I``), but the projection is
        applied to the *original* system: for a mass-form passive MNA
        model the congruence ``(VᵀMV, VᵀG1V, ...)`` preserves the
        definiteness structure — and hence ROM stability — that folding
        the mass matrix would destroy.  Both forms have identical
        transfer functions, so the matched moments are the same.

        *checkpoint* (a :class:`~repro.checkpoint.JobState`) makes the
        basis build stage-committed and resumable — see
        :meth:`build_basis`.  *workspace* (an
        :class:`~repro.volterra.associated.AssociatedWorkspace` over
        this system's explicit form) lets a
        caller pre-seed the lazy solvers — the parametric sweep's
        warm-start hook; the basis build then runs on the workspace's
        explicit system.
        """
        explicit = workspace.system if workspace is not None \
            else system.to_explicit()
        start = time.perf_counter()
        basis, details = self.build_basis(
            explicit, workspace=workspace, checkpoint=checkpoint
        )
        build_time = time.perf_counter() - start
        target = system if system.mass is not None else explicit
        reduced = target.project(basis)
        details.update(_rom_stability_details(reduced))
        return ReducedOrderModel(
            reduced,
            basis,
            method=f"associated-transform ({self.strategy})",
            orders=self.orders,
            expansion_points=self.expansion_points,
            build_time=build_time,
            details=details,
        )
