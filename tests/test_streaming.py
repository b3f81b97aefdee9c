"""Bounded memory at scale: the sparse decoupled build holds only
O(n * r) arrays.

With Π kept factored as ``V Y (U ⊗ U)ᵀ`` every n-row array of the build
has O(r) columns, so peak memory is bounded by construction, with no
streaming knob.  Asserted with tracemalloc under a poisoned ``toarray``
so no dense n x n fallback can sneak in.
"""

import tracemalloc

import scipy.sparse as sp

from repro.circuits import quadratic_rc_ladder_netlist
from repro.mor.assoc import AssociatedTransformMOR


def fresh_system(n=256):
    net = quadratic_rc_ladder_netlist(
        n, r=10.0, g_leak=1.0, g_quad=0.5, quad_nodes=8
    )
    return net.compile(sparse=True)


def make_reducer():
    return AssociatedTransformMOR(orders=(3, 2, 1), strategy="decoupled")


class TestPeakMemory:
    def test_plain_build_caps_allocations_at_n4096(self, monkeypatch):
        """At n = 4096 the plain build peaks near 10.2 MB of traced
        allocations: the O(n * r) basis blocks, the shared
        extended-Krylov basis, Π's ``U`` and ``V`` factors and the
        shift-cached sparse LUs.  A single dense n x n intermediate
        alone would be 134 MB, and the build that materialized Π's
        (n, r²) left factor peaked at 67.8 MB (39.9 MB when streamed
        in 512-row blocks).  Cap it at 20 MB — between the factored
        build and the best the materialized one reached, so a build
        that forms an n·r² array fails — and forbid densifying any
        sparse operator to get there."""
        def boom(self, *args, **kwargs):
            raise AssertionError(
                f"sparse matrix {self.shape} was densified in the "
                "sparse build"
            )

        for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
            monkeypatch.setattr(cls, "toarray", boom)
            monkeypatch.setattr(cls, "todense", boom)

        system = fresh_system(4096)
        tracemalloc.start()
        try:
            rom = make_reducer().reduce(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rom.basis.shape[0] == 4096
        assert peak <= 20e6, f"traced peak {peak / 1e6:.1f} MB"
