"""The band route of the sparse LU (:mod:`repro.linalg.lu`).

A pattern whose natural-order band is nearly full is factored by
LAPACK's band LU (``gbtrf``/``gbtrs``), every other one by SuperLU.  The
band factor must keep SuperLU's whole contract: ``solve(rhs, trans)``
for vector and block right-hand sides, the pivot-ratio guard, the
``NumericalError`` mapping and the ``sparse_lu_stats`` counters of the
resolvent factory.  Patterns off the band route stay on SuperLU bit for
bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.circuits.examples import quadratic_rc_ladder_netlist
from repro.errors import ConvergenceError, NumericalError
from repro.linalg import ResolventFactory
from repro.linalg import lu as lu_mod
from repro.linalg.lu import BandLU, factorized_solver, sparse_lu
from repro.simulation import JacobianCache, newton_solve

RTOL = 1e-13


@pytest.fixture
def rng():
    return np.random.default_rng(2604)


def banded(rng, n=60):
    """Nonsymmetric band matrix with kl = 2, ku = 1 (CSR), well
    conditioned."""
    offsets = (-2, -1, 0, 1)
    diags = [rng.standard_normal(n - abs(k)) for k in offsets]
    diags[2] = diags[2] - 6.0
    return sp.diags(diags, offsets, format="csr")


def grid(m=20):
    """Nonsymmetric 2-D m×m grid operator (bandwidth m, 5 entries/row)."""
    step = sp.diags([np.ones(m - 1), -2.0 * np.ones(m), 0.5 * np.ones(m - 1)],
                    (-1, 0, 1))
    eye = sp.identity(m)
    return (sp.kron(eye, step) + sp.kron(step, eye)).tocsr()


def rel_err(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


def superlu_shifted(a, s):
    """Reference ``(s I − A)`` factor built by SuperLU directly."""
    n = a.shape[0]
    return spla.splu(sp.csc_matrix(s * sp.identity(n) - a, dtype=complex))


class TestRouteChoice:
    def test_banded_pattern_takes_band_route(self, rng):
        lu = sparse_lu(banded(rng))
        assert isinstance(lu, BandLU)
        assert (lu.kl, lu.ku) == (2, 1)

    def test_grid_and_dense_patterns_stay_on_superlu(self, rng):
        assert not isinstance(sparse_lu(grid()), BandLU)
        dense = sp.csr_matrix(rng.standard_normal((30, 30)) - 8 * np.eye(30))
        assert not isinstance(sparse_lu(dense), BandLU)

    def test_healthy_ladder_factor_is_under_one_megabyte(self):
        system = quadratic_rc_ladder_netlist(
            8192, r=10.0, g_leak=1.0, g_quad=0.5, quad_nodes=8
        ).compile(sparse=True)
        factory = ResolventFactory(system.g1)
        factory.solve(0.5 + 1.0j, np.ones(8192))
        lu = factory._lu_cache[0.5 + 1.0j]
        assert isinstance(lu, BandLU)
        arrays = [getattr(lu, name) for name in lu.__slots__]
        held = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
        assert held < 1_000_000


class TestBandMatchesSuperLU:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("trans", ["N", "T", "H"])
    @pytest.mark.parametrize("columns", [None, 3])
    def test_sparse_lu_solve(self, rng, dtype, trans, columns):
        mat = banded(rng).astype(dtype)
        if dtype is complex:
            mat = mat + 0.5j * sp.diags(rng.standard_normal(60))
        shape = (60,) if columns is None else (60, columns)
        rhs = rng.standard_normal(shape).astype(dtype)
        if dtype is complex:
            rhs = rhs + 1j * rng.standard_normal(shape)
        x = sparse_lu(mat).solve(rhs, trans=trans)
        ref = spla.splu(sp.csc_matrix(mat)).solve(rhs, trans=trans)
        assert x.shape == ref.shape
        assert rel_err(x, ref) <= RTOL

    def test_factorized_solver(self, rng):
        mat = banded(rng)
        rhs = rng.standard_normal(60)
        ref = spla.splu(sp.csc_matrix(mat)).solve(rhs)
        assert rel_err(factorized_solver(mat)(rhs), ref) <= RTOL

    def test_real_factor_refuses_complex_rhs_like_superlu(self, rng):
        with pytest.raises(TypeError):
            sparse_lu(banded(rng)).solve(np.ones(60, dtype=complex))

    @pytest.mark.parametrize("s", [0.3, -0.7 + 0.4j])
    def test_factory_solves(self, rng, s):
        a = banded(rng)
        factory = ResolventFactory(a)
        ref_lu = superlu_shifted(a, s)
        vec = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        block = rng.standard_normal((60, 4))
        for rhs in (vec, block):
            assert rel_err(factory.solve(s, rhs), ref_lu.solve(
                rhs.astype(complex))) <= RTOL
            assert rel_err(factory.solve_transpose(s, rhs), ref_lu.solve(
                rhs.astype(complex), trans="T")) <= RTOL

    def test_factory_solve_columns(self, rng):
        a = banded(rng)
        factory = ResolventFactory(a)
        shifts = np.array([0.2, 0.4 + 1.0j, -0.3j])
        rhs = rng.standard_normal((60, 3)) + 1j * rng.standard_normal((60, 3))
        out = factory.solve_columns(shifts, rhs)
        for k, s in enumerate(shifts):
            ref = superlu_shifted(a, s).solve(rhs[:, k])
            assert rel_err(out[:, k], ref) <= RTOL


class TestErrors:
    def singular(self, rng):
        mat = banded(rng).tolil()
        mat[:, 7] = 0.0
        return mat.tocsr()

    @pytest.mark.parametrize("guard", [True, False])
    def test_exactly_singular_raises_numerical_error(self, rng, guard):
        with pytest.raises(NumericalError, match="exactly singular"):
            sparse_lu(self.singular(rng), guard=guard)

    def test_chord_newton_ends_in_convergence_error(self, rng):
        jac = self.singular(rng)
        b = rng.standard_normal(60)
        with pytest.raises(ConvergenceError, match="singular"):
            newton_solve(
                lambda x: jac @ x - b, lambda x: jac, np.zeros(60),
                jac_cache=JacobianCache(),
            )

    def test_shift_on_the_spectrum_trips_the_pivot_guard(self):
        n = 50
        a = sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                     (-1, 0, 1), format="csr")
        eig = -2.0 + 2.0 * np.cos(np.pi / (n + 1))
        with pytest.raises(NumericalError, match="pivot ratio"):
            ResolventFactory(a).solve(eig, np.ones(n))


class TestSymbolicCache:
    def test_one_analysis_per_pattern_then_reuses(self, rng):
        lu_mod._SYMBOLIC_CACHE.clear()
        a = banded(rng)
        first = ResolventFactory(a)
        for s in (0.1, 0.2 + 0.5j, 0.3, 0.4j):
            first.solve(s, np.ones(60))
        assert first.sparse_lu_stats == {
            "real": 2, "complex": 2,
            "symbolic_analyses": 1, "symbolic_reuses": 3,
        }
        # same pattern, other values: the cached decision serves it
        second = ResolventFactory(a.multiply(1.5).tocsr())
        second.solve(0.2j, np.ones(60))
        second.solve(0.1, np.ones(60))
        assert second.sparse_lu_stats["symbolic_analyses"] == 0
        assert second.sparse_lu_stats["symbolic_reuses"] == 2

    def test_grid_pattern_stays_bit_identical_on_superlu(self, rng):
        lu_mod._SYMBOLIC_CACHE.clear()
        a = grid()
        n = a.shape[0]
        rhs = rng.standard_normal(n)
        factory = ResolventFactory(a)
        x1 = factory.solve(0.3, rhs)
        x2 = factory.solve(0.1 + 0.7j, rhs)
        assert factory.sparse_lu_stats["symbolic_reuses"] == 1
        # the same SuperLU calls, made by hand
        csc = sp.csc_matrix(a).astype(float)
        eye = sp.identity(n, format="csc")
        first = spla.splu(csc * (-1.0) + 0.3 * eye)
        perm = first.perm_c
        shifted = csc.astype(complex) * (-1.0) + (0.1 + 0.7j) * sp.identity(
            n, dtype=complex, format="csc"
        )
        second = spla.splu(sp.csc_matrix(shifted)[:, perm],
                           permc_spec="NATURAL")
        y = second.solve(rhs.astype(complex))
        ref2 = np.empty_like(y)
        ref2[perm] = y
        assert np.array_equal(x1, first.solve(rhs).astype(complex))
        assert np.array_equal(x2, ref2)
