"""Memoizing Volterra-kernel evaluator over a shared resolvent factory.

``volterra_h3`` needs every ``H1(sᵢ)`` and every ``H2(sᵢ, sⱼ)``; a
distortion sweep needs ``H1(s)``, ``H2(s, s)`` and ``H3(s, s, s)`` at
each grid point.  Evaluating each kernel from scratch recomputes the
same resolvent solves many times over — and re-factors ``sI − G1`` for
every single one.

:class:`VolterraEvaluator` fixes both levels:

* all solves go through one :class:`~repro.linalg.resolvent.
  ResolventFactory` (a single Schur factorization of ``G1``, shared with
  the associated-transform machinery via
  :meth:`ResolventFactory.for_system`), so any shift costs ``O(n²)``;
* computed ``H1(s)`` and ``H2(s1, s2)`` blocks are memoized (bounded
  LRU).  The ``H2`` cache is keyed on the *unordered* frequency pair:
  the kernel symmetry ``H2(s1, s2) = H2(s2, s1) P_swap`` turns one
  stored block into both orderings via column indexing.  ``H3`` is
  never memoized, and neither are sweep answers;
* :meth:`VolterraEvaluator.sum_kernels` evaluates the sum-type kernels
  of a whole frequency grid at once — one contraction per coefficient
  matrix and one multi-shift solve per order — reading and filling the
  same ``H1``/``H2`` memo as the general :meth:`~VolterraEvaluator.h1`
  / :meth:`~VolterraEvaluator.h2`.  The general ``h2(s1, s2)`` /
  ``h3(s1, s2, s3)`` serve the distinct-frequency (IM) and MIMO
  callers.

Caches hold factored forms and solved blocks — never approximations —
so results match the direct formulas to rounding (asserted in
``tests/test_resolvent.py``).
"""

import itertools
import threading
from collections import OrderedDict

import numpy as np

from ..errors import SystemStructureError, TaskCancelled
from ..linalg.kronecker import sparse_kron_apply
from ..linalg.resolvent import ResolventFactory, matmul_columns
from .transfer import _require_explicit, permutation_indices

__all__ = ["VolterraEvaluator", "volterra_evaluator"]

#: Default bound on memoized H1/H2 entries (oldest-used evicted first).
_DEFAULT_MAX_ENTRIES = 4096

#: Serializes :func:`volterra_evaluator` so concurrent callers observe
#: exactly one evaluator per system object.
_EVALUATOR_LOCK = threading.Lock()


def _system_key(system):
    """The attributes the kernels depend on, for cache invalidation.

    Compared by identity: rebinding any of these on the system (or
    handing in a different system object) invalidates the evaluator.
    """
    return (system.g1, system.g2, system.g3, system.d1, system.b)


class VolterraEvaluator:
    """Cached evaluation of ``H1``/``H2``/``H3`` for one explicit system.

    Parameters
    ----------
    system : PolynomialODE (explicit)
    factory : ResolventFactory, optional
        Resolvent solver to share; defaults to the system's cached one.
    max_entries : int
        Bound on the number of memoized ``H1`` and ``H2`` blocks each.

    Attributes
    ----------
    stats : dict
        Counters (``h1_solves``, ``h1_hits``, ``h2_solves``, ``h2_hits``,
        ``h3_evals``) — used by the tests to assert reuse actually
        happens.
    """

    def __init__(self, system, factory=None, max_entries=_DEFAULT_MAX_ENTRIES):
        _require_explicit(system)
        self.system = system
        self.max_entries = int(max_entries)
        self._factory = factory
        self._h1_cache = OrderedDict()
        self._h2_cache = OrderedDict()
        # One lock guards both memo tables and the stats counters, so
        # serve handler threads can share one evaluator.  Kernel
        # *computation* happens outside the lock: two threads racing on
        # the same cold key duplicate the (deterministic) solve and the
        # first insert wins — never a torn or partial cache entry.
        self._cache_lock = threading.Lock()
        self._key = _system_key(system)
        # One-time COO views of the (immutable-by-contract) nonlinear
        # coefficient matrices: the streamed kernel contractions hit
        # them at every frequency point of a sweep.
        self._g2_coo = (
            None if system.g2 is None else system.g2.tocoo()
        )
        self._g3_coo = (
            None if system.g3 is None else system.g3.tocoo()
        )
        self.stats = {
            "h1_solves": 0,
            "h1_hits": 0,
            "h2_solves": 0,
            "h2_hits": 0,
            "h3_evals": 0,
        }

    @property
    def factory(self):
        """The shared resolvent factory (built lazily: kernel requests
        that short-circuit to zero never trigger a factorization)."""
        if self._factory is None:
            self._factory = ResolventFactory.for_system(self.system)
        return self._factory

    def matches(self, system):
        """True when this evaluator is still valid for *system*."""
        current = _system_key(system)
        return all(a is b for a, b in zip(self._key, current))

    def clear_cache(self):
        """Drop all memoized kernel blocks (the factorization stays)."""
        with self._cache_lock:
            self._h1_cache.clear()
            self._h2_cache.clear()

    def _cache_get(self, cache, key, hit_counter):
        """Locked lookup; a hit bumps *hit_counter* and LRU recency."""
        with self._cache_lock:
            value = cache.get(key)
            if value is not None:
                cache.move_to_end(key)
                self.stats[hit_counter] += 1
        return value

    def _cache_put(self, cache, key, value, solve_counter):
        """Locked insert; returns the winning entry on a concurrent race."""
        with self._cache_lock:
            existing = cache.get(key)
            if existing is not None:
                cache.move_to_end(key)
                return existing
            cache[key] = value
            self.stats[solve_counter] += 1
            if len(cache) > self.max_entries:
                cache.popitem(last=False)
        return value

    # -- H1 ------------------------------------------------------------------

    def h1(self, s):
        """``H1(s) = (sI − G1)^{-1} B`` (memoized)."""
        key = complex(s)
        cached = self._cache_get(self._h1_cache, key, "h1_hits")
        if cached is not None:
            return cached.copy()
        value = self.factory.solve(key, self.system.b)
        value = self._cache_put(self._h1_cache, key, value, "h1_solves")
        return value.copy()

    def prime_h1(self, shifts):
        """Batch-solve ``H1`` at all uncached *shifts* in one pass.

        Uses :meth:`ResolventFactory.solve_many`, which hoists the basis
        rotations out of the shift loop — the way to seed the tones of
        an intermodulation analysis before its general ``h2``/``h3``
        calls.
        """
        with self._cache_lock:
            wanted = []
            seen = set()
            for s in np.atleast_1d(np.asarray(shifts, dtype=complex)):
                key = complex(s)
                # Set-based dedup: the former ``key not in wanted`` list
                # scan was O(k²) work *inside* the cache lock that every
                # parallel sweep task contends on.
                if key not in seen and key not in self._h1_cache:
                    seen.add(key)
                    wanted.append(key)
        if not wanted:
            return
        blocks = self.factory.solve_many(wanted, self.system.b)
        for key, block in zip(wanted, blocks):
            self._cache_put(self._h1_cache, key, block, "h1_solves")

    # -- H2 ------------------------------------------------------------------

    def _d1_coupling_h2(self, h1_a, h1_b):
        """MIMO D1 coupling of H2: column ``(p, q)`` receives
        ``D1_q H1(s1)[:, p] + D1_p H1(s2)[:, q]``."""
        system = self.system
        n, m = system.n_states, system.n_inputs
        coupling = np.zeros((n, m * m), dtype=complex)
        if system.d1 is None:
            return coupling
        for p in range(m):
            for q in range(m):
                col = p * m + q
                coupling[:, col] += system.d1[q] @ h1_a[:, p]
                coupling[:, col] += system.d1[p] @ h1_b[:, q]
        return coupling

    def _h2_compute(self, s1, s2):
        system = self.system
        m = system.n_inputs
        h1_a = self.h1(s1)
        h1_b = self.h1(s2)
        terms = self._d1_coupling_h2(h1_a, h1_b)
        if system.g2 is not None:
            # Stream the G2 contraction against the H1 factors directly
            # (O(nnz·m²)); the former ``np.kron`` pair materialized two
            # (n², m²) complex intermediates.
            swap = permutation_indices(m, (1, 0))
            terms = terms + sparse_kron_apply(self._g2_coo, (h1_a, h1_b))
            terms = terms + sparse_kron_apply(
                self._g2_coo, (h1_b, h1_a)
            )[:, swap]
        return 0.5 * self.factory.solve(s1 + s2, terms)

    @staticmethod
    def _h2_key(s1, s2):
        """Canonical (unordered) cache key; ``swapped`` marks reordering."""
        a, b = complex(s1), complex(s2)
        swapped = (a.real, a.imag) > (b.real, b.imag)
        return ((b, a), True) if swapped else ((a, b), False)

    def h2(self, s1, s2):
        """Symmetric ``H2(s1, s2)`` — an ``(n, m²)`` matrix (memoized).

        Cached per unordered frequency pair; the swapped ordering is
        recovered through the kernel symmetry
        ``H2(s1, s2) = H2(s2, s1)[:, P_swap]``.
        """
        system = self.system
        if system.g2 is None and system.d1 is None:
            n, m = system.n_states, system.n_inputs
            return np.zeros((n, m * m), dtype=complex)
        key, swapped = self._h2_key(s1, s2)
        cached = self._cache_get(self._h2_cache, key, "h2_hits")
        if cached is None:
            cached = self._h2_compute(*key)
            cached = self._cache_put(
                self._h2_cache, key, cached, "h2_solves"
            )
        if swapped and system.n_inputs > 1:
            return cached[:, permutation_indices(system.n_inputs, (1, 0))]
        return cached.copy()

    # -- H3 ------------------------------------------------------------------

    def _d1_coupling_h3(self, s_list):
        """MIMO D1 coupling of H3: ``Σ_k D1_{p_k} H2(s_i, s_j)`` terms."""
        system = self.system
        n, m = system.n_states, system.n_inputs
        coupling = np.zeros((n, m**3), dtype=complex)
        if system.d1 is None:
            return coupling
        s1, s2, s3 = s_list
        # Input slot k carries u (through D1); the remaining two ride in H2.
        for k, (si, sj) in ((2, (s1, s2)), (1, (s1, s3)), (0, (s2, s3))):
            h2_pair = self.h2(si, sj)
            pair_slots = [t for t in range(3) if t != k]
            for p in range(m):
                for q in range(m):
                    for r in range(m):
                        triple = (p, q, r)
                        col = (p * m + q) * m + r
                        u_idx = triple[k]
                        a_idx = triple[pair_slots[0]]
                        b_idx = triple[pair_slots[1]]
                        coupling[:, col] += (
                            system.d1[u_idx] @ h2_pair[:, a_idx * m + b_idx]
                        )
        return coupling

    def h3(self, s1, s2, s3):
        """Symmetric ``H3(s1, s2, s3)`` — an ``(n, m³)`` matrix.

        Assembled from the memoized ``H1``/``H2`` sub-kernels; each
        distinct ``H1(sᵢ)`` and ``H2(sᵢ, sⱼ)`` is solved at most once
        per evaluator lifetime, not once per appearance.
        """
        system = self.system
        n, m = system.n_states, system.n_inputs
        s_list = (s1, s2, s3)
        terms = np.zeros((n, m**3), dtype=complex)
        with self._cache_lock:
            self.stats["h3_evals"] += 1

        if system.g2 is not None:
            # Six H1 ⊗ H2 pairings: variable i carries H1, the pair
            # (j, k) carries H2, on both Kronecker sides.  Contractions
            # stream through the sparse G2 (O(nnz·m³)) instead of
            # materializing the (n², m³) Kronecker blocks.
            for i in range(3):
                j, k = [t for t in range(3) if t != i]
                h1_i = self.h1(s_list[i])
                h2_jk = self.h2(s_list[j], s_list[k])
                idx_left = permutation_indices(m, (i, j, k))
                idx_right = permutation_indices(m, (j, k, i))
                terms += sparse_kron_apply(
                    self._g2_coo, (h1_i, h2_jk)
                )[:, idx_left]
                terms += sparse_kron_apply(
                    self._g2_coo, (h2_jk, h1_i)
                )[:, idx_right]

        terms += self._d1_coupling_h3(s_list)

        if system.g3 is not None:
            # Stream the sparse G3 against the three memoized H1 factors
            # (O(nnz·m³) memory).  The former implementation accumulated
            # a dense (n³, m³) complex tensor plus six same-sized
            # ``np.kron`` blocks — 84 MB peak at n = 120, ~n³ growth,
            # out-of-memory on cubic circuits by n ≈ 500.
            for perm in itertools.permutations(range(3)):
                block = sparse_kron_apply(
                    self._g3_coo,
                    (
                        self.h1(s_list[perm[0]]),
                        self.h1(s_list[perm[1]]),
                        self.h1(s_list[perm[2]]),
                    ),
                )
                terms += 0.5 * block[:, permutation_indices(m, perm)]

        return self.factory.solve(s1 + s2 + s3, terms) / 3.0

    # -- grid-batched sum-type kernels ---------------------------------------

    def _memo_columns(self, cache, keys, counters, compute):
        """One memoized ``(n, 1)`` column per key, as an ``(n, K)`` block.

        Hits come from *cache*; the distinct missing keys are computed by
        one ``compute(indices)`` call (indices into *keys*, returning one
        column each) and inserted first-insert-wins, so concurrent sweeps
        agree on every entry.  *counters* names the ``(hit, solve)``
        stats, counted per key as the scalar lookups count them.
        """
        hit_counter, solve_counter = counters
        columns = [self._cache_get(cache, key, hit_counter) for key in keys]
        missing = {}
        for idx, key in enumerate(keys):
            if columns[idx] is None:
                missing.setdefault(key, idx)
        if missing:
            block = compute(list(missing.values()))
            for j, key in enumerate(missing):
                missing[key] = self._cache_put(
                    cache, key, block[:, j : j + 1].copy(), solve_counter
                )
            columns = [
                missing[key] if col is None else col
                for key, col in zip(keys, columns)
            ]
        return np.hstack(columns)

    def sum_kernels(self, shifts, cancel=None):
        """``H1(s)``, ``H2(s, s)`` and ``H3(s, s, s)`` for a whole grid.

        SISO only.  Returns three ``(n, K)`` blocks whose column ``k``
        belongs to ``shifts[k]`` — everything a harmonic-distortion sweep
        needs, in one pass per order.  At coincident arguments the
        symmetric-kernel identities of harmonic probing collapse the
        general assembly (the six ``H1 ⊗ H2`` pairings of ``H3`` become
        two):

            H2(s, s)    = (2sI − G1)⁻¹ [G2 (h1 ⊗ h1) + D1 h1]
            H3(s, s, s) = (3sI − G1)⁻¹ [G2 (h1 ⊗ h2) + G2 (h2 ⊗ h1)
                                        + D1 h2 + G3 (h1 ⊗ h1 ⊗ h1)]

        Each coefficient matrix is contracted once per order against the
        column-wise Kronecker products of the whole grid
        (:func:`~repro.linalg.kronecker.sparse_kron_apply` with
        ``columnwise=True``) and each order is one multi-shift solve
        (:meth:`ResolventFactory.solve_columns`).

        ``H1`` and ``H2(s, s)`` columns are memoized under the keys of
        :meth:`h1` / :meth:`h2`, so either path's entries serve the
        other; ``H3`` is recomputed on every call (``h3_evals`` grows by
        K).  *cancel* is polled before each order and between sparse
        per-shift factorizations; a cancelled call raises
        :class:`~repro.errors.TaskCancelled` and leaves the memo valid.
        """
        system = self.system
        if system.n_inputs != 1:
            raise SystemStructureError(
                "grid-batched sum-type kernels are defined for "
                "single-input systems; drive one input at a time"
            )
        shifts = np.atleast_1d(np.asarray(shifts, dtype=complex)).ravel()
        keys = [complex(s) for s in shifts]
        d1 = None if system.d1 is None else system.d1[0]
        solve = self.factory.solve_columns

        def poll(stage):
            if cancel is not None and cancel():
                raise TaskCancelled(
                    f"kernel evaluation cancelled before the {stage} stage"
                )

        poll("H1")
        h1 = self._memo_columns(
            self._h1_cache, keys, ("h1_hits", "h1_solves"),
            lambda idx: solve(
                shifts[idx], np.repeat(system.b, len(idx), axis=1), cancel
            ),
        )

        poll("H2")
        if system.g2 is None and d1 is None:
            h2 = np.zeros_like(h1)
        else:
            def h2_columns(idx):
                a = h1[:, idx]
                terms = np.zeros_like(a)
                if system.g2 is not None:
                    terms += sparse_kron_apply(
                        self._g2_coo, (a, a), columnwise=True
                    )
                if d1 is not None:
                    terms += matmul_columns(d1, a)
                return solve(2.0 * shifts[idx], terms, cancel)

            h2 = self._memo_columns(
                self._h2_cache, [(key, key) for key in keys],
                ("h2_hits", "h2_solves"), h2_columns,
            )

        poll("H3")
        with self._cache_lock:
            self.stats["h3_evals"] += len(keys)
        terms = np.zeros_like(h1)
        if system.g2 is not None:
            terms += sparse_kron_apply(self._g2_coo, (h1, h2), columnwise=True)
            terms += sparse_kron_apply(self._g2_coo, (h2, h1), columnwise=True)
        if d1 is not None:
            terms += matmul_columns(d1, h2)
        if system.g3 is not None:
            terms += sparse_kron_apply(
                self._g3_coo, (h1, h1, h1), columnwise=True
            )
        return h1, h2, solve(3.0 * shifts, terms, cancel)


def volterra_evaluator(system):
    """The memoized evaluator for *system* (one per system object).

    Cached on the system itself and rebuilt whenever any of the kernel-
    defining matrices (``g1``, ``g2``, ``g3``, ``d1``, ``b``) is rebound
    to a different object.
    """
    def _lookup():
        cached = getattr(system, "_volterra_evaluator", None)
        if cached is not None and cached.matches(system):
            return cached
        return None

    # Compute-outside-lock, first-insert-wins (construction is cheap —
    # the factorization itself is lazy — but the pattern keeps the
    # global lock contention-free by principle).
    with _EVALUATOR_LOCK:
        cached = _lookup()
        if cached is not None:
            return cached
    evaluator = VolterraEvaluator(system)
    with _EVALUATOR_LOCK:
        cached = _lookup()
        if cached is not None:
            return cached
        try:
            system._volterra_evaluator = evaluator
        except AttributeError:
            pass
        return evaluator
