"""Blockwise-streamed solver core: tile-boundary parity and
capped-peak builds at scale.

The streaming refactor must be *invisible* numerically: with one block
covering all rows the arithmetic is the exact historical code path
(bit identity), and any moderate tiling only reorders summations
(<= 1e-10).  Degenerate one-row blocks stress every boundary at once
and are held to subspace agreement.  Peak memory must follow the
configured ``max_block``, not ``n`` — asserted with tracemalloc under
a poisoned ``toarray`` so no dense n x n fallback can sneak in.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro import memory
from repro.circuits import quadratic_rc_ladder_netlist
from repro.mor.assoc import AssociatedTransformMOR


@pytest.fixture(autouse=True)
def _clean_state():
    memory.configure(None)
    yield
    memory.configure(None)


def fresh_system(n=256):
    net = quadratic_rc_ladder_netlist(
        n, r=10.0, g_leak=1.0, g_quad=0.5, quad_nodes=8
    )
    return net.compile(sparse=True)


def make_reducer():
    return AssociatedTransformMOR(orders=(3, 2, 1), strategy="decoupled")


def reduce_blocked(n, max_block):
    return make_reducer().reduce(fresh_system(n), max_block=max_block)


def subspace_gap(a, b):
    """Spectral distance between the column spaces of *a* and *b*."""
    qa = np.linalg.qr(a)[0]
    qb = np.linalg.qr(b)[0]
    return float(np.linalg.norm(qa @ (qa.T @ qb) - qb, 2))


class TestTileBoundaryParity:
    """n deliberately not divisible by most block sizes: the ragged
    final tile and every interior boundary must not perturb the basis
    beyond summation-order roundoff."""

    N = 256

    @pytest.fixture(scope="class")
    def unblocked(self):
        # Explicit max_block >= n pins the single-block (historical)
        # arithmetic even when the environment forces tiny blocks —
        # CI runs this suite under REPRO_MAX_BLOCK=7.
        rom = reduce_blocked(self.N, max_block=self.N)
        return np.array(rom.basis)

    @pytest.mark.parametrize("max_block", [64, 100, 129, 255])
    def test_moderate_blocks_match_to_1e10(self, unblocked, max_block):
        rom = reduce_blocked(self.N, max_block=max_block)
        dev = np.abs(np.asarray(rom.basis) - unblocked).max()
        assert dev <= 1e-10, f"max_block={max_block} deviates by {dev:.3e}"

    @pytest.mark.parametrize("max_block", [256, 257, 10_000])
    def test_whole_row_block_is_bit_identical(self, unblocked, max_block):
        rom = reduce_blocked(self.N, max_block=max_block)
        assert np.array_equal(np.asarray(rom.basis), unblocked)

    def test_one_row_blocks_span_the_same_subspace(self, unblocked):
        rom = reduce_blocked(self.N, max_block=1)
        assert subspace_gap(np.asarray(rom.basis), unblocked) <= 1e-6

    def test_env_override_matches_explicit(self, unblocked, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_BLOCK", "100")
        memory.configure(None)
        rom = make_reducer().reduce(fresh_system(self.N))
        dev = np.abs(np.asarray(rom.basis) - unblocked).max()
        assert dev <= 1e-10

    @pytest.mark.slow
    def test_acceptance_parity_n2048(self):
        cold = np.array(reduce_blocked(2048, max_block=2048).basis)
        rom = reduce_blocked(2048, max_block=500)
        dev = np.abs(np.asarray(rom.basis) - cold).max()
        assert dev <= 1e-10


class TestPeakMemoryFollowsMaxBlock:
    @pytest.mark.slow
    def test_blocked_build_caps_allocations_at_n4096(self, monkeypatch):
        """At n = 4096 the unstreamed build (``max_block=None``) peaks
        near 67.8 MB of traced allocations and a single dense n x n
        intermediate alone would be 134 MB; the streamed build under a
        512-row block sits near 39.9 MB — irreducible O(n * r) basis
        tiles, the shift-cached sparse LUs, and the transient
        extended-Krylov workspace the tightened chain/Π residual
        targets (1e-13 / 1e-12, for warm-vs-cold parametric-corner
        parity) iterate through before truncation.  Cap it at 54 MB —
        between the two regimes, so a build that stops streaming
        fails — and forbid densifying any sparse operator to get
        there."""
        def boom(self, *args, **kwargs):
            raise AssertionError(
                f"sparse matrix {self.shape} was densified in the "
                "streamed build"
            )

        for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
            monkeypatch.setattr(cls, "toarray", boom)
            monkeypatch.setattr(cls, "todense", boom)

        system = fresh_system(4096)
        tracemalloc.start()
        try:
            rom = make_reducer().reduce(system, max_block=512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rom.basis.shape[0] == 4096
        assert peak <= 54e6, f"traced peak {peak / 1e6:.1f} MB"
