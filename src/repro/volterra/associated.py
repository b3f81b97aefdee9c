"""Associated transforms of Volterra transfer functions — the paper's core.

The association of variables ``An`` collapses the multivariate transfer
function ``Hn(s1, ..., sn)`` to a single-variable ``Hn(s)`` whose inverse
Laplace transform is the diagonal kernel ``hn(t, ..., t)``.  The paper's
contribution (§2.2) is that for QLDAE/polynomial systems the associated
functions admit **exact linear state-space realizations** built from
Kronecker sums:

* ``A2(H2)``: state matrix ``Ã2 = [[G1, G2], [0, G1 ⊕ G1]]`` of size
  ``n + n²`` (paper eq. 17), input ``b̃2 = [D1-coupling; sym(B ⊗ B)]``,
  output ``c̃2 = [I_n, 0]``.
* ``A3(H3)``: block-triangular realization whose middle blocks carry the
  Kronecker sums ``G1 ⊕ Ã2`` and ``Ã2 ⊕ G1`` (sizes ``n(n+n²)``) plus —
  for cubic systems — ``G1 ⊕ G1 ⊕ G1`` (size ``n³``).
* Eq. (18): solving the Sylvester equation ``G1 Π + G2 = Π (G1 ⊕ G1)``
  decouples ``A2(H2)`` into two independent LTI subsystems whose Krylov
  spaces can be generated separately (and in parallel).

Everything here is matrix-free: the lifted state matrices are represented
by structured operators from :mod:`repro.linalg.operators`, so the cost
of a Krylov step is ``O(n³)``–``O(n⁴)`` time and ``O(n²)``–``O(n³)``
memory instead of the ``O(n⁴)``/``O(n⁶)`` of naive realizations.  The
lifted H3 realization is one algorithm on every system: block
back-substitution on compressed Tucker vectors
(:class:`FactoredH3Realization`), solving only the b-block of the two
mirror-image ``G1 ⊕ Ã2`` / ``Ã2 ⊕ G1`` blocks.  Dense systems solve its
Kronecker sums exactly on the shared Schur form and keep the tensors on
the Schur basis.

Sparse (circuit-compiled) systems go one level further: the Π equation
is solved in factored form (:class:`~repro.linalg.sylvester.FactoredPi`)
on the resolvent factory's sparse LU, the decoupled-H2 chains become
pure sparse-``G1`` solves, and the H3 Kronecker sums go through the
shared low-rank solver, so full ``orders=(q1, q2, q3)`` NMOR reaches
``n ≫ 2000`` without ever densifying ``G1`` — a Krylov step then costs
``O(nnz·r + n·r²)``.  The
factored Π needs a spectrally separated ``G1``; where the spectrum is
not separated, systems of up to a few hundred states route Π to the
dense Schur solve instead (see :attr:`AssociatedWorkspace.pi`).  The
*coupled* H2 strategy always needs the dense Schur form.

A note on the ``D1`` convention: the bilinear-input kernel has support on
the diagonal ``t1 = t2`` of the time hyperplane.  The paper's Theorem 2
uses the delta-sieving convention, which assigns the boundary full weight
(``A2[(s1 I − A)^{-1} b] = b``); a finite-width pulse experiment or a
principal-value evaluation of the association integral assigns it half
weight.  Responses to *continuous* inputs are identical under both
conventions (the diagonal has measure zero), so moment matching and ROM
accuracy are unaffected; only literal impulse responses of systems with
``D1 ≠ 0`` differ.  We follow the paper.
"""

import itertools
import logging
import threading
from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .._validation import check_positive_int
from ..errors import NumericalError, SystemStructureError, ValidationError
from ..linalg.operators import (
    FactoredH3Operator,
    LiftedH3Vector,
    QuadraticLiftedOperator,
)
from ..linalg.resolvent import ResolventFactory
from ..linalg.schur import SchurForm
from ..linalg.sylvester import (
    FactoredPi,
    FactoredTensor,
    KronSumSolver,
    LowRankKronSolver,
    PiNotLowRank,
    pi_sylvester_residual,
    solve_pi_sylvester,
)
from ..systems.lti import StateSpace
from .transfer import permutation_indices

__all__ = [
    "AssociatedWorkspace",
    "AssociatedRealization",
    "DecoupledH2Realization",
    "FactoredH3Realization",
    "associated_h1",
    "associated_h2",
    "associated_h2_decoupled",
    "associated_h3",
]

#: The Π route decisions log with the solver's own messages.
_log = logging.getLogger("repro.linalg.pi")


def _require_explicit(system):
    if system.mass is not None:
        raise SystemStructureError(
            "associated realizations require an explicit system; call "
            "to_explicit() first"
        )


# ---------------------------------------------------------------------------
# shared workspace
# ---------------------------------------------------------------------------


#: Largest sparse system the *dense-Schur* lifted machinery (the coupled
#: H2 strategy, and the dense fallback when the low-rank Π iteration
#: refuses) will transparently densify for its one-time factorization.
#: The decoupled H2 chains, the Π solve and the lifted H3 realization no
#: longer hit this guard on sparse systems: they run matrix-free on the
#: factory's sparse LU (:class:`~repro.linalg.sylvester.LowRankKronSolver`,
#: :class:`~repro.linalg.operators.FactoredH3Operator`) at any ``n``.
_SPARSE_SCHUR_LIMIT = 2048

#: Relative residual target for the low-rank Π solve.  Far tighter than
#: the 1e-8·‖G2‖ acceptance threshold on purpose: Π feeds the decoupled
#: H2 / lifted H3 chain vectors, and the reducer's basis deflation
#: (cutoff ~1e-10 relative) must not have its keep/drop decisions flip
#: on Π solve noise — a warm-started and a cold parametric corner have
#: to land on the *same* deflation outcome for ROM families to be
#: reproducible across reuse tiers.
_PI_LOWRANK_TOL = 1e-12

#: Soft stall floor for the Π solve: a basis-cap stall at or below this
#: residual is accepted (the pre-tightening target — one order inside
#: the 1e-8 acceptance threshold) rather than raised, so the tighter
#: target above never turns a previously-convergent Π into a failure.
_PI_LOWRANK_FLOOR = 1e-9

#: Same pair for the shared Kronecker-sum chain solver: residual target
#: well under the deflation cutoff, stall floor at the old default.
_CHAIN_LOWRANK_TOL = 1e-13
_CHAIN_LOWRANK_FLOOR = 1e-9

#: Serializes :meth:`AssociatedWorkspace.for_system` so concurrent
#: callers observe exactly one workspace per system object.
_WORKSPACE_LOCK = threading.Lock()


class AssociatedWorkspace:
    """Shared factorizations for one system's associated realizations.

    Computes the (complex) Schur form of ``G1`` once and hands it to every
    Kronecker-sum solver, lifted operator and Sylvester solve — the
    "one-time similarity transform" of the paper's §2.3.  The Schur form
    is obtained through the system's :class:`ResolventFactory`, so the
    same factorization also serves transfer-function evaluation and
    distortion sweeps on that system.

    Sparse systems (CSR ``g1``) carry no Schur form; shifted ``G1``
    solves route through the factory's per-shift sparse LU cache via
    :meth:`solve_shifted` / :meth:`solve_shifted_transpose` and never
    densify.  The lifted machinery then runs matrix-free:
    :attr:`lowrank_kron` serves the Kronecker-sum solves behind the
    decoupled-H2 and H3 chains, and :attr:`pi` is factored wherever Π
    is low-rank.  Where ``G1``'s spectrum is not separated, Π is not
    low-rank; up to :data:`~repro.linalg.sylvester.PI_DENSE_LIMIT`
    (256) states :attr:`pi` then takes the dense Schur solve, recording
    why in :attr:`pi_plan`.  The coupled H2 strategy and a dense Π need
    the dense Schur form — :attr:`schur` builds one lazily for moderate
    sizes and refuses at circuit scale.
    """

    def __init__(self, system):
        _require_explicit(system)
        self.system = system
        self.resolvent = ResolventFactory.for_system(system)
        self._schur = self.resolvent.schur  # None on the sparse branch
        self._kron_solver = None
        self._lowrank = None
        self._a2_op = None
        self._pi = None
        #: Route and evidence of a sparse system's Π solve (see
        #: :attr:`pi`); None before Π is built and on dense systems.
        self.pi_plan = None
        # Warm-start seeds from a neighboring parametric corner (see
        # warm_start()): consumed when the lazy solvers are built.
        self._warm_lowrank = None
        self._warm_pi = None
        # Guards the lazy factorizations above: threads sharing one
        # workspace (serve handlers) must not build Π / the lifted
        # operator twice (reentrant — the Π build walks kron_solver,
        # which walks schur).
        self._lazy_lock = threading.RLock()
        # Everything the lazily cached Π / lifted operator / input
        # matrices depend on; compared by identity for invalidation.
        self._key = (system.g1, system.g2, system.g3, system.d1, system.b)

    def matches(self, system):
        """True when the cached factorizations are still valid."""
        current = (system.g1, system.g2, system.g3, system.d1, system.b)
        return self.system is system and all(
            a is b for a, b in zip(self._key, current)
        )

    @classmethod
    def for_system(cls, system):
        """One memoized workspace per system object.

        Repeated reductions / realizations of the same system (e.g.
        multi-point basis builds followed by distortion checks) share one
        Schur factorization, one Π solve and one lifted operator.  The
        cache invalidates when any system matrix the workspace depends
        on (``g1``, ``g2``, ``g3``, ``d1``, ``b``) is rebound.
        """
        def _lookup():
            cached = getattr(system, "_associated_workspace", None)
            if cached is not None and cached.matches(system):
                return cached
            return None

        # Compute-outside-lock, first-insert-wins: workspace
        # construction may build the system's resolvent factory (an
        # O(n³) Schur factorization on dense systems), which must not
        # run under the global memoizer lock.
        with _WORKSPACE_LOCK:
            cached = _lookup()
            if cached is not None:
                return cached
        workspace = cls(system)
        with _WORKSPACE_LOCK:
            cached = _lookup()
            if cached is not None:
                return cached
            try:
                system._associated_workspace = workspace
            except AttributeError:
                pass
            return workspace

    @property
    def n(self):
        return self.system.n_states

    @property
    def m(self):
        return self.system.n_inputs

    def _g1_dense(self):
        g1 = self.system.g1
        return g1.toarray() if sp.issparse(g1) else g1

    def _g2_dense(self):
        g2 = self.system.g2
        return g2.toarray() if sp.issparse(g2) else g2

    @property
    def is_sparse(self):
        """True when the system rides the factory's sparse-LU branch.

        Deliberately *not* sensitive to whether a dense Schur form was
        lazily built later (e.g. by a coupled-strategy build): sparse
        systems take the factored Π / compressed-H3 path consistently,
        never by construction-order accident.
        """
        return self.resolvent.schur is None

    @property
    def schur(self):
        """The dense Schur form of ``G1`` (lazy for sparse systems).

        Only the *coupled* lifted strategy still needs this on sparse
        systems (the decoupled H2 / Π / lifted H3 machinery runs
        matrix-free on the sparse LU); building it is a documented
        densification seam, refused beyond ``_SPARSE_SCHUR_LIMIT``
        states where ``strategy="decoupled"`` is the supported path.
        """
        with self._lazy_lock:
            if self._schur is None:
                n = self.system.n_states
                if n > _SPARSE_SCHUR_LIMIT:
                    raise SystemStructureError(
                        f"the coupled lifted H2/H3 realization needs a "
                        f"dense Schur form of G1, which would densify a "
                        f"sparse {n}-state system; use the decoupled "
                        f"strategy (low-rank Pi + matrix-free chains), "
                        f"restrict to H1 moments (orders=(q1, 0, 0)), "
                        f"or compile the circuit dense"
                    )
                self._schur = SchurForm(self._g1_dense())
            return self._schur

    def solve_shifted(self, shift, rhs):
        """Solve ``(G1 + shift·I) x = rhs`` without densifying.

        Dense systems use the shared Schur form; sparse systems route
        through the resolvent factory's per-shift sparse LU cache
        (``(G1 + αI) x = r`` ⇔ ``x = −(−αI − G1)^{-1} r``), even after
        a dense Schur form was built for them (:attr:`is_sparse`).
        """
        if not self.is_sparse:
            return self._schur.solve_shifted(shift, rhs)
        return -self.resolvent.solve(
            -shift, np.asarray(rhs, dtype=complex)
        )

    def solve_shifted_transpose(self, shift, rhs):
        """Solve ``(G1ᵀ + shift·I) x = rhs`` without densifying.

        The sparse branch reuses the factory's per-shift LU through a
        transposed backsolve (no second factorization) — the primitive
        behind the Π iteration's ``G1ᵀ``-sided Krylov directions.
        """
        if not self.is_sparse:
            return self._schur.solve_shifted_transpose(shift, rhs)
        return -self.resolvent.solve_transpose(
            -shift, np.asarray(rhs, dtype=complex)
        )

    @property
    def lowrank_kron(self):
        """Shared low-rank Kronecker-sum solver (lazy; sparse path).

        One growing extended-Krylov basis serves every decoupled-H2 and
        lifted-H3 chain of this workspace, so consecutive moment steps
        (whose right-hand sides live in the previous step's basis)
        converge in a single projection.
        """
        with self._lazy_lock:
            if self._lowrank is None:
                self._lowrank = LowRankKronSolver(
                    self.system.g1,
                    self.solve_shifted,
                    self.solve_shifted_transpose,
                    tol=_CHAIN_LOWRANK_TOL,
                    tol_floor=_CHAIN_LOWRANK_FLOOR,
                )
                if self._warm_lowrank is not None:
                    self._lowrank.seed_basis(self._warm_lowrank)
                    self._warm_lowrank = None
            return self._lowrank

    @property
    def kron_solver(self):
        """Kronecker-sum solver on the shared Schur form (lazy)."""
        with self._lazy_lock:
            if self._kron_solver is None:
                self._kron_solver = KronSumSolver(
                    self._g1_dense(), schur=self.schur
                )
            return self._kron_solver

    @property
    def a2_operator(self):
        """The eq.-(17) lifted state matrix as a structured operator."""
        with self._lazy_lock:
            if self._a2_op is None:
                system = self.system
                if system.g2 is None:
                    raise SystemStructureError(
                        "system has no quadratic term; Ã2 is undefined"
                    )
                self._a2_op = QuadraticLiftedOperator(
                    self._g1_dense(),
                    system.g2,
                    kron_solver=self.kron_solver,
                    schur=self.schur,
                )
            return self._a2_op

    @property
    def pi(self):
        """Solution of ``G1 Π + G2 = Π (G1 ⊕ G1)`` (lazy, cached).

        Dense systems get the dense ``(n, n²)`` matrix from the shared
        Schur sweep.  Sparse systems take a route chosen from evidence,
        recorded with that evidence in :attr:`pi_plan` and logged at
        INFO on ``repro.linalg.pi``:

        * the low-rank right-Galerkin iteration on the factory's sparse
          LU (:meth:`~repro.linalg.sylvester.LowRankKronSolver.solve_pi`)
          starts and reads the Ritz spread of its fiber-seeded basis
          before any warm-start columns.  A separated spectrum (spread
          < 2) yields a :class:`~repro.linalg.sylvester.FactoredPi`,
          and ``G1`` is never densified;
        * up to :data:`~repro.linalg.sylvester.PI_DENSE_LIMIT` (256)
          states, evidence that Π is not low-rank — a spread of 2 or
          more, an unstable Ritz value, or more G2 fibers than the seed
          cap, at seeding or at any later round — hands the solve to
          the dense Schur sweep;
        * beyond that the low-rank iteration runs regardless.  When it
          refuses, the dense solve is a fallback (logged at WARNING)
          up to ``_SPARSE_SCHUR_LIMIT`` states, beyond which the
          failure is reported.
        """
        with self._lazy_lock:
            if self._pi is None:
                if self.system.g2 is None:
                    raise SystemStructureError(
                        "system has no quadratic term; Π is undefined"
                    )
                if self.is_sparse:
                    self._pi, self.pi_plan = self._sparse_pi()
                    _log.info("Pi plan %s", self.pi_plan,
                              extra={"pi_plan": self.pi_plan})
                else:
                    self._pi = solve_pi_sylvester(
                        self._g1_dense(),
                        self._g2_dense(),
                        solver=self.kron_solver,
                    )
            return self._pi

    def _sparse_pi(self):
        """``(Π, plan)`` for a sparse system: low-rank unless the
        evidence (or a refusal) routes it to the dense Schur sweep,
        whose achieved relative residual then goes into the plan."""
        solver = self.lowrank_kron
        warm, self._warm_pi = self._warm_pi, None
        try:
            pi = solver.solve_pi(
                self.system.g2,
                tol=_PI_LOWRANK_TOL,
                floor=_PI_LOWRANK_FLOOR,
                seed_basis=warm,
            )
            return pi, dict(solver.pi_plan)
        except PiNotLowRank:
            plan = dict(solver.pi_plan)
        except NumericalError as exc:
            n = self.n
            if n > _SPARSE_SCHUR_LIMIT:
                raise SystemStructureError(
                    f"the low-rank Pi solve failed for this sparse "
                    f"{n}-state system ({exc}) and the dense Schur "
                    f"fallback would densify it; the eq.-(18) "
                    f"decoupling needs either a low-rank G2 with a "
                    f"spectrally separated G1, or a dense compile"
                ) from exc
            plan = dict(solver.pi_plan, route="dense", reason="fallback")
            _log.warning(
                "low-rank Pi solve failed on a sparse %d-state system "
                "(%s); falling back to the dense Schur solve", n, exc,
            )
        g1, g2 = self._g1_dense(), self._g2_dense()
        pi = solve_pi_sylvester(g1, g2, solver=self.kron_solver)
        plan["residual"] = float(
            pi_sylvester_residual(g1, g2, pi) / np.linalg.norm(g2)
        )
        return pi, plan

    # -- checkpoint state ----------------------------------------------------

    def solver_version(self):
        """Cheap ``(low-rank, Π)`` fingerprint of the mutable lazy
        solver state.

        The first half changes whenever :meth:`lowrank_state` would
        snapshot something different, the second when Π gets built;
        a checkpointed build compares versions after each chain and
        writes only the snapshot half that moved since its last
        commit.
        """
        with self._lazy_lock:
            lowrank = (
                self._lowrank.state_version
                if self._lowrank is not None else None
            )
            return (lowrank, self._pi is not None)

    def lowrank_state(self):
        """Payload-tree snapshot of the shared extended-Krylov basis
        (+ fallback-shift cache) of :attr:`lowrank_kron` — the mutable
        state that keeps growing as chains are solved — or ``None``
        when the low-rank solver has not been built.  Deterministic
        factorizations (Schur form, LU caches, lifted operators) are
        rebuilt on demand and not snapshotted."""
        with self._lazy_lock:
            if self._lowrank is None:
                return None
            return {"lowrank": self._lowrank.state_dict()}

    def pi_state(self):
        """Payload-tree snapshot of the cached Π (and its
        :attr:`pi_plan`), or ``None`` when Π has not been built.  Π is
        computed once and never mutated, so the checkpoint layer writes
        this snapshot once instead of once per chain."""
        with self._lazy_lock:
            if self._pi is None:
                return None
            if isinstance(self._pi, FactoredPi):
                pi = {"kind": "factored", **self._pi.state_dict()}
            else:
                pi = {"kind": "dense", "matrix": np.asarray(self._pi)}
            return {"pi": pi, "pi_plan": self.pi_plan}

    def restore_solver_state(self, state):
        """Restore a snapshot — :meth:`lowrank_state` and/or
        :meth:`pi_state` merged into one dict — onto this workspace.

        Overwrites any locally grown solver state: a resumed build must
        continue from exactly the snapshot the committed stages were
        computed with, or the remaining chains diverge bit-wise from
        the cold run.
        """
        if not state:
            return
        with self._lazy_lock:
            lowrank = state.get("lowrank")
            if lowrank is not None:
                solver = LowRankKronSolver(
                    self.system.g1,
                    self.solve_shifted,
                    self.solve_shifted_transpose,
                    tol=_CHAIN_LOWRANK_TOL,
                    tol_floor=_CHAIN_LOWRANK_FLOOR,
                )
                solver.load_state(lowrank)
                self._lowrank = solver
            pi = state.get("pi")
            if pi is not None:
                if pi.get("kind") == "factored":
                    self._pi = FactoredPi.from_state(pi)
                else:
                    self._pi = np.asarray(pi["matrix"])
                self.pi_plan = state.get("pi_plan")

    # -- cross-corner warm start ---------------------------------------------

    def warm_start(self, lowrank_u=None, pi_u=None):
        """Seed the lazy solvers with a *neighboring* system's basis.

        Unlike :meth:`restore_solver_state` — a same-``g1`` snapshot
        restore — warm starting takes converged extended-Krylov
        directions from a nearby parametric corner and absorbs them as
        initial directions here: the basis re-orthonormalizes the
        columns and recomputes ``G1 U`` (and, in the Π solve's right
        basis, ``G1ᵀ U``) against *this* system's matrices, and every
        solve still converges on the exact residual test.  A good seed
        collapses the extension rounds of the Π build and the
        Kronecker-sum chains; a bad seed costs a few extra
        orthogonalizations and nothing else.

        *lowrank_u* seeds the shared :attr:`lowrank_kron` basis;
        *pi_u* seeds the private right basis of the Π solve (typically
        the ``.u`` factor of the neighbor's :class:`FactoredPi`).  Π
        seeds only act on the low-rank route: the route is read before
        they are absorbed, so a warm-started corner takes the same route
        as its cold twin, and a dense Π ignores them.
        """
        with self._lazy_lock:
            if lowrank_u is not None:
                if self._lowrank is not None:
                    self._lowrank.seed_basis(lowrank_u)
                else:
                    self._warm_lowrank = np.asarray(lowrank_u)
            if pi_u is not None and self._pi is None:
                self._warm_pi = np.asarray(pi_u)

    def warm_state(self):
        """Converged basis columns for warm-starting a neighbor corner.

        Returns ``{"lowrank_u": ..., "pi_u": ...}`` with only the parts
        that were actually built (``None`` when neither exists).  The
        arrays are copies — safe to hand to another system's workspace.
        """
        with self._lazy_lock:
            state = {}
            if self._lowrank is not None and self._lowrank.dim:
                state["lowrank_u"] = self._lowrank.basis_columns()
            if isinstance(self._pi, FactoredPi) and self._pi.rank:
                state["pi_u"] = np.asarray(self._pi.u).copy()
            return state or None

    # -- associated input matrices -------------------------------------------

    def d1_coupling(self):
        """``MD``: the associated D1 block of ``b̃2`` (n × m²).

        Column ``(p, q)`` is ``(D1_q B[:, p] + D1_p B[:, q]) / 2``; for a
        SISO system this is the paper's ``D1 b``.
        """
        system = self.system
        n, m = self.n, self.m
        md = np.zeros((n, m * m))
        if system.d1 is None:
            return md
        for p in range(m):
            for q in range(m):
                col = p * m + q
                md[:, col] += 0.5 * (system.d1[q] @ system.b[:, p])
                md[:, col] += 0.5 * (system.d1[p] @ system.b[:, q])
        return md

    def b_kron_sym(self):
        """``sym(B ⊗ B) = ½ (B ⊗ B)(I + K_m)``: the paper's ``b 2©``."""
        b = self.system.b
        m = self.m
        bb = np.kron(b, b)
        return 0.5 * (bb + bb[:, permutation_indices(m, (1, 0))])

    def b2_tilde(self):
        """The full associated-H2 input matrix ``b̃2 = [MD; sym(B⊗B)]``."""
        return np.vstack([self.d1_coupling(), self.b_kron_sym()])


# ---------------------------------------------------------------------------
# generic realization object
# ---------------------------------------------------------------------------


def _unique_symmetric_columns(m, arity):
    """Representative column indices of a symmetric ``m**arity`` kernel.

    Symmetrized input matrices have identical columns for permuted input
    multi-indices; chaining only one representative per multiset loses
    nothing from the spanned subspace.
    """
    reps = {}
    for col in range(m**arity):
        digits = tuple(sorted((col // (m**t)) % m for t in range(arity)))
        reps.setdefault(digits, col)
    return sorted(reps.values())


class AssociatedRealization:
    """Linear realization ``H(s) = C (sI − A)^{-1} B`` of an associated
    transfer function.

    ``A`` is a structured operator (``matvec`` + ``solve_shifted``), ``B``
    a dense ``(dim, cols)`` matrix whose columns seed the chains
    (:attr:`columns`), and ``C`` the projection onto the first ``n``
    lifted coordinates (the original state space), applied through
    :meth:`project_top`.

    Parameters
    ----------
    operator : operator with ``solve_shifted``
    b : (dim, cols) ndarray
    n_top : int
        Number of leading coordinates returned by the output map.
    input_arity : int
        Volterra order of the underlying kernel (1, 2 or 3); used to
        deduplicate symmetric input columns.
    n_inputs : int
        Number of physical system inputs ``m`` (columns are ``m**arity``).
    """

    def __init__(self, operator, b, n_top, input_arity, n_inputs):
        self.operator = operator
        self.b = np.asarray(b)
        if self.b.ndim == 1:
            self.b = self.b[:, None]
        if self.b.shape[0] != operator.dim:
            raise ValidationError(
                f"B has {self.b.shape[0]} rows, operator dim is "
                f"{operator.dim}"
            )
        self.n_top = int(n_top)
        self.input_arity = check_positive_int(input_arity, "input_arity")
        self.n_inputs = check_positive_int(n_inputs, "n_inputs")
        #: Chain seeds, one per input column (views into ``b``).
        self.columns = self.b.T

    @property
    def dim(self):
        return self.operator.dim

    @property
    def n_cols(self):
        return len(self.columns)

    def project_top(self, x):
        """Output map ``c̃ = [I_n, 0, ...]``: keep the top block."""
        return np.asarray(x).reshape(-1)[: self.n_top]

    def eval(self, s):
        """Evaluate ``H(s)`` — an ``(n_top, cols)`` complex matrix."""
        out = np.empty((self.n_top, self.n_cols), dtype=complex)
        for col in range(self.n_cols):
            x = self.operator.solve_shifted(-s, self.columns[col])
            out[:, col] = -self.project_top(x)
        return out

    def _moment_chain(self, col, count, s0):
        """One column's shift-invert chain (sequential by construction).

        Each projected top block is copied, so a chain keeps ``n_top``
        entries per moment alive rather than every lifted solution.
        """
        current = self.columns[col]
        vectors = []
        for _ in range(count):
            current = self.operator.solve_shifted(-s0, current)
            vectors.append(self.project_top(current).copy())
        return vectors

    def chain_tasks(self, count, s0=0.0, deduplicate=True):
        """Independent per-column chain callables.

        Each retained input column's moment chain has no data
        dependency on the others; each callable returns the chain's
        projected vectors in moment order.
        """
        count = check_positive_int(count, "count")
        if deduplicate:
            cols = _unique_symmetric_columns(self.n_inputs, self.input_arity)
        else:
            cols = list(range(self.n_cols))
        return [partial(self._moment_chain, col, count, s0) for col in cols]

    def moment_vectors(self, count, s0=0.0, deduplicate=True):
        """Projected shift-invert chains for Krylov moment matching.

        Returns an ``(n_top, count * n_unique_cols)`` real/complex matrix
        whose columns span the space matching *count* moments of ``H(s)``
        about ``s0`` (per retained input column).  With ``deduplicate``
        only one column per symmetric input multiset is chained.  The
        per-column chains run one after another.
        """
        chains = self.chain_tasks(count, s0=s0, deduplicate=deduplicate)
        return np.column_stack([v for fn in chains for v in fn()])

    def impulse_response(self, times):
        """Diagonal kernel ``h(t) = hn(t, ..., t)`` via dense ``expm``.

        Only available when the operator can be densified (small
        systems / tests); returns ``(len(times), n_top, cols)``.
        """
        a = self.operator.dense()
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.empty((times.size, self.n_top, self.n_cols))
        for idx, t in enumerate(times):
            phi = sla.expm(a * t) @ self.b
            out[idx] = phi[: self.n_top]
        return out

    def to_state_space(self, output=None):
        """Densify to a :class:`StateSpace` (small systems / tests).

        *output* optionally post-multiplies the top-block projection
        (e.g. a circuit's output row).
        """
        a = self.operator.dense()
        c = np.zeros((self.n_top, self.dim))
        c[:, : self.n_top] = np.eye(self.n_top)
        if output is not None:
            c = np.asarray(output) @ c
        return StateSpace(a, self.b, c)


# ---------------------------------------------------------------------------
# H1 and H2
# ---------------------------------------------------------------------------


class _G1Operator:
    """Adapter presenting ``G1`` through the operator interface.

    Shifted solves dispatch through the workspace: the shared Schur form
    for dense systems, the resolvent factory's sparse LU cache for sparse
    ones — so H1 moment chains on circuit-sized CSR systems never
    densify ``G1``.
    """

    def __init__(self, workspace):
        self.workspace = workspace
        self.g1 = workspace.system.g1
        self.shape = self.g1.shape

    @property
    def dim(self):
        return self.g1.shape[0]

    def matvec(self, x):
        return self.g1 @ np.asarray(x)

    def solve_shifted(self, shift, rhs):
        return self.workspace.solve_shifted(shift, rhs)

    def dense(self):
        return self.g1.toarray() if sp.issparse(self.g1) else self.g1.copy()


def associated_h1(system, workspace=None):
    """Trivial realization of ``H1(s) = (sI − G1)^{-1} B``."""
    workspace = workspace or AssociatedWorkspace.for_system(system)
    op = _G1Operator(workspace)
    return AssociatedRealization(
        op,
        workspace.system.b,
        n_top=workspace.n,
        input_arity=1,
        n_inputs=workspace.m,
    )


def associated_h2(system, workspace=None):
    """The paper's eq.-(17) realization of ``A2(H2)``.

    Returns ``None`` when the system has neither quadratic nor bilinear
    terms (then ``H2 ≡ 0``).
    """
    workspace = workspace or AssociatedWorkspace.for_system(system)
    system = workspace.system
    if system.g2 is None and system.d1 is None:
        return None
    if system.g2 is None:
        raise SystemStructureError(
            "D1 without G2 is not supported by the lifted realization; "
            "provide an explicit (possibly zero) G2"
        )
    return AssociatedRealization(
        workspace.a2_operator,
        workspace.b2_tilde(),
        n_top=workspace.n,
        input_arity=2,
        n_inputs=workspace.m,
    )


class DecoupledH2Realization:
    """Eq.-(18) decoupled form of ``A2(H2)``.

    After the similarity transform built from ``Π`` the associated H2
    splits into two independent subsystems::

        H2(s) = (sI − G1)^{-1} (MD − Π b 2©)  +  Π (sI − G1 ⊕ G1)^{-1} b 2©

    whose Krylov chains can be generated separately (the paper notes this
    enables parallel subspace construction).

    Dense workspaces run the Kronecker-sum chains through the shared
    Schur form; sparse workspaces hold a factored Π ``V Y (U⊗U)ᵀ`` and
    run them through the low-rank solver.  Every large-``n`` operation
    is then a sparse ``G1`` solve, and every ``n``-row array involved —
    Π's factors, the chain vectors, the shared basis — is ``O(n·r)``.
    """

    def __init__(self, workspace):
        self.workspace = workspace
        self.pi = workspace.pi
        self.factored = isinstance(self.pi, FactoredPi)
        self.md = workspace.d1_coupling()
        if self.factored:
            # Column-wise Π application on the rank-≤2 factored columns
            # of sym(B⊗B): the dense (n², m²) Kronecker product is never
            # formed on the sparse path.
            self.bbs = None
            seed = np.empty_like(self.md)
            for col in range(self.n_cols):
                seed[:, col] = self.pi.apply_factored(
                    self._bbs_tensor(col)
                )
            self.seed_linear = self.md - seed
        else:
            self.bbs = workspace.b_kron_sym()
            self.seed_linear = self.md - self.pi @ self.bbs

    @property
    def n_cols(self):
        return self.workspace.m ** 2

    def _bbs_tensor(self, col):
        """Column *col* of ``sym(B ⊗ B)`` as a rank-≤2 2-mode tensor."""
        ws = self.workspace
        b = ws.system.b
        p, q = divmod(col, ws.m)
        if p == q:
            return FactoredTensor.rank_one([b[:, p], b[:, p]])
        f = b[:, [p, q]]
        core = np.array([[0.0, 0.5], [0.5, 0.0]])
        return FactoredTensor(core, [f, f])

    def _kron_solve_seed(self, col):
        """``(solve, seed)`` for column *col* of subsystem 2: the
        low-rank solver on a factored seed when Π is factored, the
        Schur-form solver on a dense one otherwise."""
        ws = self.workspace
        if self.factored:
            return ws.lowrank_kron.solve, self._bbs_tensor(col)
        return ws.kron_solver.solve, self.bbs[:, col].astype(complex)

    def eval(self, s):
        """Evaluate ``H2(s)`` by summing the two subsystem responses."""
        ws = self.workspace
        term1 = -ws.solve_shifted(-s, self.seed_linear.astype(complex))
        out = np.empty_like(term1)
        for col in range(self.n_cols):
            solve, seed = self._kron_solve_seed(col)
            out[:, col] = -(self.pi @ solve(seed, k=2, shift=-s))
        return term1 + out

    def _linear_chain(self, col, count, s0):
        """Chain on subsystem 1: ``(sI − G1)^{-1}`` with the Π-corrected
        linear seed."""
        ws = self.workspace
        current = self.seed_linear[:, col].astype(complex)
        vectors = []
        for _ in range(count):
            current = ws.solve_shifted(-s0, current)
            vectors.append(current)
        return vectors

    def _kron_chain(self, col, count, s0):
        """Chain on subsystem 2: ``(sI − G1 ⊕ G1)^{-1}`` projected back
        through Π."""
        solve, current = self._kron_solve_seed(col)
        vectors = []
        for _ in range(count):
            current = solve(current, k=2, shift=-s0)
            vectors.append(self.pi @ current)
        return vectors

    def chain_tasks(self, count, s0=0.0, deduplicate=True):
        """Independent Krylov-chain callables, tagged by subsystem.

        Returns ``[(subsystem, callable), ...]`` where *subsystem* is 0
        for the linear ``(sI − G1)`` chains and 1 for the Kronecker-sum
        chains — the paper's two eq.-(18) decoupled LTI subsystems, whose
        chains have no data dependencies.  Shared lazy factorizations
        (Π, the Kronecker-sum solver) are forced *here*, before any
        chain runs.
        """
        ws = self.workspace
        count = check_positive_int(count, "count")
        if deduplicate:
            cols = _unique_symmetric_columns(ws.m, 2)
        else:
            cols = list(range(self.n_cols))
        if self.factored:
            ws.lowrank_kron  # force the shared lazy solver
        else:
            ws.kron_solver  # force the shared lazy factorization
        tasks = []
        for col in cols:
            tasks.append((0, partial(self._linear_chain, col, count, s0)))
            tasks.append((1, partial(self._kron_chain, col, count, s0)))
        return tasks

    def basis_blocks(self, count, s0=0.0, deduplicate=True):
        """Per-subsystem moment-vector blocks (each ``n × ...``).

        Returns a list of two blocks; their union spans the same moment
        space as the coupled realization's chains.  The underlying
        chains (one per subsystem per retained input column) run one
        after another.
        """
        blocks = {0: [], 1: []}
        for subsystem, fn in self.chain_tasks(
            count, s0=s0, deduplicate=deduplicate
        ):
            blocks[subsystem].extend(fn())
        return [np.column_stack(blocks[0]), np.column_stack(blocks[1])]


def associated_h2_decoupled(system, workspace=None):
    """Build the eq.-(18) decoupled realization (or ``None`` if H2 ≡ 0)."""
    workspace = workspace or AssociatedWorkspace.for_system(system)
    if workspace.system.g2 is None and workspace.system.d1 is None:
        return None
    if workspace.system.g2 is None:
        raise SystemStructureError(
            "D1 without G2 is not supported; provide an explicit G2"
        )
    return DecoupledH2Realization(workspace)


# ---------------------------------------------------------------------------
# H3
# ---------------------------------------------------------------------------


def _h3_top_block(workspace):
    """Top (state-space) block of ``B3``: the associated D1 contribution
    ``(1/3) Σ_k D1_{p_k} · h2bar(0)[:, pair]`` with ``h2bar(0) = MD``."""
    system = workspace.system
    n, m = workspace.n, workspace.m
    top = np.zeros((n, m**3))
    if system.d1 is not None:
        md = workspace.d1_coupling()
        for k in range(3):
            pair_slots = [t for t in range(3) if t != k]
            for col in range(m**3):
                triple = ((col // (m * m)) % m, (col // m) % m, col % m)
                u_idx = triple[k]
                a_idx = triple[pair_slots[0]]
                b_idx = triple[pair_slots[1]]
                top[:, col] += (
                    system.d1[u_idx] @ md[:, a_idx * m + b_idx]
                )
        top /= 3.0
    return top


def _sym_pair_tensor(lead_vec, u, v, weight):
    """``weight · lead_vec ⊗ sym(u ⊗ v)`` as a 3-mode Tucker tensor,
    the symmetrized pair on modes 1 and 2 (the b-block layout)."""
    fuv = np.column_stack([u, v])
    core2 = np.array([[0.0, 0.5], [0.5, 0.0]]) * weight
    lv = np.asarray(lead_vec).reshape(-1, 1)
    return FactoredTensor(core2[None, :, :], [lv, fuv, fuv])


class FactoredH3Realization(AssociatedRealization):
    """Realization of ``A3(H3)`` on compressed lifted vectors.

    The same moment chains and evaluation as an
    :class:`AssociatedRealization`, but the lifted state travels as
    :class:`~repro.linalg.operators.LiftedH3Vector` Tucker factors and
    every solve goes through
    :class:`~repro.linalg.operators.FactoredH3Operator` — a lifted
    dimension of ``n + 2nN + n³ ≈ 2·10¹⁰`` at ``n = 2048`` is never
    instantiated.  Its Kronecker-sum solves run on the workspace's
    low-rank solver over ``G1``'s sparse LU for a sparse system, and
    exactly on ``G1``'s Schur form for a dense one.  The ``B3`` input
    columns are assembled directly in factored form from their
    Kronecker structure (``B ⊗ b̃2`` columns are rank-≤2 per block);
    there is no dense ``b``, so :meth:`impulse_response` and
    :meth:`to_state_space` refuse.
    """

    def __init__(self, workspace):
        system = workspace.system
        self.workspace = workspace
        self.operator = FactoredH3Operator(
            system.g1,
            system.g2,
            system.g3,
            workspace.lowrank_kron if workspace.is_sparse
            else workspace.kron_solver,
            workspace.solve_shifted,
        )
        self.n_top = workspace.n
        self.input_arity = 3
        self.n_inputs = workspace.m
        self.columns = self._build_columns()

    def _build_columns(self):
        """The ``B3`` columns as :class:`LiftedH3Vector` seeds.

        Only the b-block is built: the c-block of ``B3`` is its
        transpose (see :class:`~repro.linalg.operators.LiftedH3Vector`).
        """
        ws = self.workspace
        system = ws.system
        n, m = ws.n, ws.m
        b = system.b
        op = self.operator
        top = _h3_top_block(ws)
        md = ws.d1_coupling() if op.has_quad else None
        columns = []
        for col in range(m**3):
            t = ((col // (m * m)) % m, (col // m) % m, col % m)
            b1 = b2 = d = None
            if op.has_quad:
                b1 = FactoredTensor.zeros((n, n))
                b2 = FactoredTensor.zeros((n, n, n))
                # (1/3)(B ⊗ b̃2) Σᵢ P — source column (p, (q, r)) =
                # permuted input triple.
                for perm in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
                    p_, q_, r_ = (t[perm[0]], t[perm[1]], t[perm[2]])
                    b1 = b1.add(FactoredTensor.rank_one(
                        [b[:, p_], md[:, q_ * m + r_]], weight=1.0 / 3.0
                    ))
                    b2 = b2.add(_sym_pair_tensor(
                        b[:, p_], b[:, q_], b[:, r_], weight=1.0 / 3.0,
                    ))
                b1, b2 = b1.compress(), b2.compress()
            if op.has_cubic:
                d = FactoredTensor.zeros((n, n, n))
                for perm in itertools.permutations(range(3)):
                    d = d.add(FactoredTensor.rank_one(
                        [b[:, t[perm[0]]], b[:, t[perm[1]]],
                         b[:, t[perm[2]]]],
                        weight=1.0 / 6.0,
                    ))
                d = d.compress()
            columns.append(LiftedH3Vector(top[:, col], b1=b1, b2=b2, d=d))
        return columns

    def project_top(self, vec):
        """Output map ``c̃ = [I_n, 0, ...]``: the dense top block."""
        return np.asarray(vec.a).reshape(-1)[: self.n_top]

    def _refuse_dense(self, what):
        raise ValidationError(
            f"{what} needs the dense lifted H3 state, which this "
            f"realization holds factored (a lifted dimension of "
            f"{self.operator.dim}); use eval() or moment_vectors()"
        )

    def impulse_response(self, times):
        """Refused: the lifted state is held factored (see
        :meth:`AssociatedRealization.impulse_response`)."""
        self._refuse_dense("impulse_response()")

    def to_state_space(self, output=None):
        """Refused: the lifted state is held factored (see
        :meth:`AssociatedRealization.to_state_space`)."""
        self._refuse_dense("to_state_space()")


def associated_h3(system, workspace=None):
    """Realization of ``A3(H3)`` (paper §2.2 plus the cubic extension).

    Returns ``None`` when ``H3 ≡ 0`` (no quadratic, bilinear or cubic
    terms), and otherwise a :class:`FactoredH3Realization` on every
    system: compressed lifted vectors whose Kronecker-sum solves run on
    the resolvent factory's sparse LU for a sparse system (``G1`` is
    never densified) and on the shared Schur form for a dense one.
    """
    workspace = workspace or AssociatedWorkspace.for_system(system)
    system = workspace.system
    if system.g2 is None and system.g3 is None:
        return None
    return FactoredH3Realization(workspace)
