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

from .. import memory
from .._validation import check_nonnegative_int
from ..engine import SolvePlan
from ..errors import ValidationError
from ..linalg.arnoldi import merge_bases
from ..volterra.associated import (
    AssociatedWorkspace,
    associated_h1,
    associated_h2,
    associated_h2_decoupled,
    associated_h3,
    stack_columns,
)
from .base import ReducedOrderModel

__all__ = ["AssociatedTransformMOR"]

#: Tasks per checkpoint stage on the checkpointed build path.  Small
#: enough that a kill between any two commits loses at most a few
#: chains; large enough that the per-stage manifest rewrite stays a
#: rounding error against the chain solves.
_CHECKPOINT_CHUNK = 4


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

    def build_basis(self, system, workspace=None, checkpoint=None,
                    max_block=None):
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
        eq.-(18) subsystem — are independent, so the whole build is
        emitted as **one** engine plan.

        With *checkpoint* (a :class:`~repro.checkpoint.JobState`) the
        build instead executes in deterministically ordered stages of at
        most ``_CHECKPOINT_CHUNK`` chains, durably committing each stage
        (chain vectors + the workspace's mutable solver state) as it
        completes.  A killed build re-entered with the same checkpoint
        loads the committed prefix from disk, restores the solver state
        the last commit recorded, and computes only the remaining stages
        — yielding a bit-identical basis.

        *max_block* forces the row-block size every streamed n-row
        intermediate (the Π build, blocked Gram updates, tile-wise
        block assembly) is produced in — see
        :class:`repro.memory.BlockPlanner`.  ``None`` inherits
        ``REPRO_MAX_BLOCK`` or the budget-derived default;
        ``max_block >= n`` executes the unblocked operations exactly.
        """
        with memory.tiling(max_block):
            return self._build_basis(system, workspace, checkpoint)

    def _build_basis(self, system, workspace, checkpoint):
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
            # see exactly the state the committed stages — plus any
            # tiles the in-flight stage durably logged before a kill —
            # were computed with (also skipping the Π recompute).
            state = checkpoint.latest_solver_state()
            if state:
                workspace.restore_solver_state(state)
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

        # One spec per (transfer function × expansion point):
        # (label, s0, chain callables, subsystem tags or None), in the
        # deterministic order both execution paths share.
        specs = []
        for s0 in self.expansion_points:
            if r1 is not None:
                fns = r1.chain_tasks(q1, s0=s0, deduplicate=self.deduplicate)
                specs.append(("H1", s0, fns, None))
            if dec2 is not None:
                tasks = dec2.chain_tasks(
                    q2, s0=s0, deduplicate=self.deduplicate
                )
                specs.append((
                    "H2-dec", s0,
                    [fn for _, fn in tasks],
                    [subsystem for subsystem, _ in tasks],
                ))
            elif r2 is not None:
                fns = r2.chain_tasks(q2, s0=s0, deduplicate=self.deduplicate)
                specs.append(("H2", s0, fns, None))
            if r3 is not None:
                fns = r3.chain_tasks(q3, s0=s0, deduplicate=self.deduplicate)
                specs.append(("H3", s0, fns, None))

        if checkpoint is None:
            # Emit every independent chain into one plan, remembering
            # how to regroup the ordered results into the per-block
            # layout the details dict has always reported.
            plan = SolvePlan("assoc-mor.build_basis")
            bounds = []
            for label, s0, fns, subsystems in specs:
                start = len(plan)
                for index, fn in enumerate(fns):
                    tag = (
                        (f"H2-sub{subsystems[index]}", s0)
                        if subsystems is not None else (label, s0)
                    )
                    plan.add(fn, tag=tag)
                bounds.append((start, len(plan)))
            results = plan.execute()
            group_chains = [
                (label, s0, results[start:end], subsystems)
                for (label, s0, _, subsystems), (start, end)
                in zip(specs, bounds)
            ]
        else:
            group_chains = self._execute_checkpointed(
                specs, workspace, checkpoint
            )

        blocks = []
        details = {"blocks": []}
        for label, s0, chains, subsystems in group_chains:
            if label == "H2-dec":
                per_sub = {0: [], 1: []}
                for subsystem, chain in zip(subsystems, chains):
                    per_sub[subsystem].extend(chain)
                for idx in (0, 1):
                    block = memory.admit(
                        stack_columns(per_sub[idx], f"H2-sub{idx}"),
                        f"H2-sub{idx}",
                    )
                    blocks.append(block)
                    details["blocks"].append(
                        (f"H2-sub{idx}", s0, block.shape[1])
                    )
            else:
                block = memory.admit(
                    stack_columns(
                        [vec for chain in chains for vec in chain], label
                    ),
                    label,
                )
                blocks.append(block)
                details["blocks"].append((label, s0, block.shape[1]))

        if not blocks:
            raise ValidationError(
                "no basis blocks were generated; the requested transfer "
                "functions are all identically zero for this system"
            )
        basis = merge_bases(blocks, tol=self.tol)
        details["raw_vectors"] = int(sum(b.shape[1] for b in blocks))
        details["deflated_to"] = int(basis.shape[1])
        if dec2 is not None and workspace.pi_plan is not None:
            details["pi_plan"] = dict(workspace.pi_plan)
        if checkpoint is not None:
            details["checkpoint"] = checkpoint.describe()
        return basis, details

    def _execute_checkpointed(self, specs, workspace, checkpoint):
        """Run the chain groups stage by stage against *checkpoint*.

        Stages execute in a fixed deterministic order; committed stages
        are consumed strictly as a prefix (a gap — possible only through
        external file damage — breaks the prefix and everything after it
        is recomputed, so the solver-state evolution always matches the
        cold run).  Within the one in-flight stage every chain task
        commits as a *tile* through the checkpoint's append-only tile
        log, so a SIGKILL between any two tasks loses at most the task
        that was running; the stage commit folds its tiles into the
        durable stage block and clears the log.  The workspace's
        mutable solver state is snapshotted with a tile/stage only when
        it changed since the matching previous commit.
        """
        # On resume the restored snapshot *is* the committed version;
        # on a cold start there is no committed version yet, so the
        # first stage always snapshots (capturing e.g. the Π computed
        # during realization construction).  The two snapshot halves are
        # versioned independently: the Krylov basis grows with most
        # stages, the (large) Π factor is written exactly once.  The
        # stage-level track is kept separate from the tile-level track:
        # stage entries carry snapshot references forward from the
        # previous *stage*, so deduplicating a stage commit against a
        # tile snapshot (cleared with the stage) would leave the
        # manifest pointing at stale state.  After a mid-stage tile
        # resume the stage track stays at "never", forcing the next
        # stage commit to persist the tile-restored state durably.
        never = object()
        stage_lowrank = stage_pi = never
        if checkpoint.resumed and not checkpoint.has_resumable_tiles():
            stage_lowrank, stage_pi = workspace.solver_version()
        total_stages = sum(
            -(-len(fns) // _CHECKPOINT_CHUNK) for _, _, fns, _ in specs
        )
        group_chains = []
        prefix = True
        stage_index = 0
        for gindex, (label, s0, fns, subsystems) in enumerate(specs):
            chains = []
            chunk_starts = range(0, len(fns), _CHECKPOINT_CHUNK)
            for cindex, lo in enumerate(chunk_starts):
                hi = min(lo + _CHECKPOINT_CHUNK, len(fns))
                stage_id = f"{gindex:02d}.{cindex:02d}:{label}@{s0!r}"
                stage_index += 1
                if prefix and checkpoint.has_stage(stage_id):
                    payload = checkpoint.load_stage(stage_id)
                    part = [
                        [np.asarray(vec) for vec in chain]
                        for chain in payload["chains"]
                    ]
                else:
                    part = []
                    if prefix:
                        # Mid-stage resume: consume the in-flight
                        # stage's committed tile prefix.  The restored
                        # solver state already includes these tiles'
                        # effect (build_basis restores
                        # ``latest_solver_state``), so recomputation
                        # continues exactly where the kill struck.
                        part = [
                            [np.asarray(vec) for vec in tile["chain"]]
                            for tile in checkpoint.load_tiles(stage_id)
                        ]
                    prefix = False
                    tile_lowrank, tile_pi = workspace.solver_version()
                    for index in range(lo + len(part), hi):
                        tag = (
                            (f"H2-sub{subsystems[index]}", s0)
                            if subsystems is not None else (label, s0)
                        )
                        plan = SolvePlan(
                            f"assoc-mor.build_basis[{stage_id}"
                            f"#{index - lo}]"
                        )
                        plan.add(fns[index], tag=tag)
                        chain = plan.execute()[0]
                        part.append(chain)
                        if index < hi - 1:
                            # The stage commit right after the last
                            # task supersedes its tile: skip the
                            # double write.
                            snapshot = pi_snapshot = None
                            lowrank_v, pi_v = workspace.solver_version()
                            if lowrank_v != tile_lowrank:
                                snapshot = workspace.lowrank_state()
                            if pi_v != tile_pi:
                                pi_snapshot = workspace.pi_state()
                            checkpoint.commit_tile(
                                stage_id, index - lo, {"chain": chain},
                                solver_state=snapshot,
                                pi_state=pi_snapshot,
                            )
                            tile_lowrank, tile_pi = lowrank_v, pi_v
                    snapshot = pi_snapshot = None
                    lowrank_v, pi_v = workspace.solver_version()
                    if stage_index < total_stages:
                        # No stage follows the last one, so its solver
                        # state can never be resumed from: skip the
                        # (largest) snapshot write entirely.
                        if lowrank_v != stage_lowrank:
                            snapshot = workspace.lowrank_state()
                        if pi_v != stage_pi:
                            pi_snapshot = workspace.pi_state()
                    checkpoint.commit_stage(
                        stage_id, {"chains": part},
                        solver_state=snapshot, pi_state=pi_snapshot,
                    )
                    stage_lowrank, stage_pi = lowrank_v, pi_v
                chains.extend(part)
            group_chains.append((label, s0, chains, subsystems))
        return group_chains

    def reduce(self, system, checkpoint=None, max_block=None,
               workspace=None):
        """Reduce *system* and return a :class:`ReducedOrderModel`.

        The Krylov basis is generated from the explicit form (the
        associated realizations need ``mass = I``), but the projection is
        applied to the *original* system: for a mass-form passive MNA
        model the congruence ``(VᵀMV, VᵀG1V, ...)`` preserves the
        definiteness structure — and hence ROM stability — that folding
        the mass matrix would destroy.  Both forms have identical
        transfer functions, so the matched moments are the same.

        *checkpoint* (a :class:`~repro.checkpoint.JobState`) makes the
        basis build stage-committed and resumable; *max_block* streams
        the build in fixed-size row blocks — see :meth:`build_basis`.
        *workspace* (an :class:`~repro.volterra.associated.
        AssociatedWorkspace` over this system's explicit form) lets a
        caller pre-seed the lazy solvers — the parametric sweep's
        warm-start hook; the basis build then runs on the workspace's
        explicit system.
        """
        explicit = workspace.system if workspace is not None \
            else system.to_explicit()
        start = time.perf_counter()
        basis, details = self.build_basis(
            explicit, workspace=workspace, checkpoint=checkpoint,
            max_block=max_block,
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
