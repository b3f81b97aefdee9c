"""Route planning for the eq.-(18) Π solve.

``AssociatedWorkspace.pi`` reads the Ritz spread of the low-rank
iteration's fiber-seeded basis: a separated spectrum (spread < 2) keeps
the factored low-rank Π bit for bit, while up to ``PI_DENSE_LIMIT``
states a spread of 2 or more — on the library's default ladder (r=1,
g_leak=0.1) it is ~7.7 at seeding, ~40 in truth — hands the solve to
the dense Schur sweep before the iteration climbs to rank r = n.  The
decision and its evidence travel as ``pi_plan`` through the workspace,
the ROM details, the pipeline report, the checkpoint snapshot and the
``repro.linalg`` log.
"""

import json
import logging

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.checkpoint import JobState
from repro.circuits import quadratic_rc_ladder_netlist
from repro.errors import FaultInjected, NumericalError
from repro.linalg import sylvester
from repro.linalg.resolvent import ResolventFactory
from repro.linalg.sylvester import (
    PI_SPREAD_LIMIT,
    FactoredPi,
    LowRankKronSolver,
    PiNotLowRank,
    pi_sylvester_residual,
    ritz_spread,
)
from repro.mor.assoc import AssociatedTransformMOR
from repro.pipeline import run_pipeline
from repro.serialize import array_digest
from repro.testing import faults
from repro.volterra.associated import AssociatedWorkspace

#: The healthy n = 1024 ladder's factored Π as computed before the
#: planner existed: Galerkin rounds and right rank.
HEALTHY_1024_ROUNDS = 6
HEALTHY_1024_RANK = 18


def default_net(n, quad_nodes=4):
    """The generator's own regime (r=1, g_leak=0.1): spread ~40."""
    return quadratic_rc_ladder_netlist(n, quad_nodes=quad_nodes)


def healthy_net(n, r=10.0, quad_nodes=8):
    """Strong leak, weak coupling: spread ~1.4, Π low-rank."""
    return quadratic_rc_ladder_netlist(
        n, r=r, g_leak=1.0, g_quad=0.5, quad_nodes=quad_nodes
    )


def workspace(net, sparse=True):
    return AssociatedWorkspace.for_system(
        net.compile(sparse=sparse).to_explicit()
    )


def bare_solver(net):
    """A stand-alone low-rank solver on a fresh sparse compile of *net*
    (the compiled system rides along as ``.system``)."""
    system = net.compile(sparse=True).to_explicit()
    factory = ResolventFactory.for_system(system)
    solver = LowRankKronSolver(
        system.g1,
        lambda s, r: -factory.solve(-s, np.asarray(r, complex)),
        lambda s, r: -factory.solve_transpose(-s, np.asarray(r, complex)),
    )
    solver.system = system
    return solver


def without_evidence(monkeypatch):
    """Switch off the Ritz reads: ``solve_pi`` is then the plain
    right-Galerkin iteration as it ran before the planner."""
    monkeypatch.setattr(
        LowRankKronSolver, "_check_pi_spread", lambda *args: None
    )


def decoupled():
    return AssociatedTransformMOR(orders=(3, 2, 1), strategy="decoupled")


@pytest.fixture(autouse=True)
def _no_faults():
    faults.configure(None)
    yield
    faults.configure(None)
    faults.reset()


class TestRitzSpread:
    def test_spread_and_stability(self):
        assert ritz_spread([-1.0, -1.5]) == (1.5, True)
        assert ritz_spread(np.array([-1 + 2j, -1 - 2j, -3.0])) == (3.0, True)
        assert ritz_spread([-1.0, 0.5]) == (2.0, False)
        rho, stable = ritz_spread([-1.0, 0.0])
        assert rho == np.inf and not stable


class TestRoutes:
    def test_default_ladder_takes_dense_route(self):
        ws_s = workspace(default_net(40))
        ws_d = workspace(default_net(40), sparse=False)
        assert ws_s.is_sparse and not ws_d.is_sparse
        pi_s, pi_d = ws_s.pi, ws_d.pi
        plan = ws_s.pi_plan
        assert plan["route"] == "dense" and plan["reason"] == "spread"
        assert plan["spread"] >= PI_SPREAD_LIMIT
        assert plan["n"] == 40 and plan["g2_fibers"] == 4
        # Decided on the seeded basis: no Galerkin round was spent.
        assert plan["rounds"] == 0
        assert ws_s.lowrank_kron.stats["pi_iterations"] == 0
        assert plan["residual"] <= 1e-9 and not plan["soft_accept"]
        assert plan["left_rank"] == 0  # no factored Π, no left basis
        assert isinstance(pi_s, np.ndarray)
        assert ws_d.pi_plan is None  # a dense system has no route to plan
        assert np.abs(pi_s - pi_d).max() / np.abs(pi_d).max() <= 1e-12

    @pytest.mark.parametrize("n", [150, 1024])
    def test_separated_ladder_keeps_bare_lowrank_pi(self, n, monkeypatch):
        # n = 150 sits under the dense limit, so the workspace solve runs
        # every handover check; n = 1024 only records the evidence.  A
        # bare solve with the evidence reads switched off must produce
        # the same bits and the same work counters either way.
        net = healthy_net(n)
        ws = workspace(net)
        assert ws.pi_plan is None
        pi = ws.pi
        plan = ws.pi_plan
        assert isinstance(pi, FactoredPi)
        assert plan["route"] == "lowrank" and plan["reason"] == "separated"
        assert plan["spread"] < PI_SPREAD_LIMIT
        assert plan["rounds"] == ws.lowrank_kron.stats["pi_iterations"]
        assert plan["rank"] == pi.rank
        assert plan["residual"] <= 1e-12 and not plan["soft_accept"]
        if n == 1024:
            assert plan["rounds"] == HEALTHY_1024_ROUNDS
            assert plan["rank"] == HEALTHY_1024_RANK

        without_evidence(monkeypatch)
        bare = bare_solver(net)
        ref = bare.solve_pi(bare.system.g2, tol=1e-12, floor=1e-9)
        assert bare.pi_plan["spread"] is None
        assert array_digest(pi.v) == array_digest(ref.v)
        assert array_digest(pi.y) == array_digest(ref.y)
        assert array_digest(pi.u) == array_digest(ref.u)
        assert ws.lowrank_kron.stats == bare.stats

    def test_misjudged_seed_hands_over_after_a_round(self):
        # One quadratic node: the 1-column seed basis has spread 1 and
        # looks separated; the first extension round shows the ladder's
        # real spread and hands over instead of climbing to r = n.
        ws = workspace(default_net(40, quad_nodes=1))
        pi = ws.pi
        plan = ws.pi_plan
        assert isinstance(pi, np.ndarray)
        assert plan["route"] == "dense" and plan["reason"] == "spread"
        assert plan["spread"] >= PI_SPREAD_LIMIT
        assert 1 <= plan["rounds"] <= 2 and plan["rank"] < 10

    def test_wide_g2_takes_dense_route(self):
        # Quadratic conductances on all 130 nodes: more G2 fibers than
        # the 128-column seed cap, so Π is not low-rank on the lifted
        # side even though the spectrum is separated.
        ws = workspace(healthy_net(130, quad_nodes=130))
        pi = ws.pi
        plan = ws.pi_plan
        assert isinstance(pi, np.ndarray)
        assert plan["route"] == "dense" and plan["reason"] == "fibers"
        assert plan["g2_fibers"] == 130 and plan["spread"] is None
        assert plan["residual"] <= 1e-9

    def test_above_dense_limit_records_evidence_and_stays_lowrank(
        self, monkeypatch
    ):
        # The non-separated ladder with the dense limit below n: no
        # handover, the low-rank iteration runs (and stalls at the
        # capped rank), and the evidence is still recorded.
        monkeypatch.setattr(sylvester, "PI_DENSE_LIMIT", 20)
        solver = bare_solver(default_net(40))
        with pytest.raises(NumericalError) as info:
            solver.solve_pi(solver.system.g2, max_rank=8)
        assert not isinstance(info.value, PiNotLowRank)
        plan = solver.pi_plan
        assert plan["route"] == "lowrank" and plan["reason"] == "spread"
        assert plan["spread"] >= PI_SPREAD_LIMIT and plan["rounds"] >= 1

    def test_soft_accept_logged_at_warning(self, caplog):
        solver = bare_solver(healthy_net(150))
        with caplog.at_level(logging.WARNING, logger="repro.linalg"):
            pi = solver.solve_pi(
                solver.system.g2, tol=1e-14, floor=1e-3, max_rank=10
            )
        plan = solver.pi_plan
        assert pi.rank == plan["rank"] == 10 and plan["soft_accept"]
        assert 1e-14 < plan["residual"] <= 1e-3
        warnings = [
            rec for rec in caplog.records
            if rec.name.startswith("repro.linalg")
            and rec.levelno == logging.WARNING
        ]
        assert len(warnings) == 1
        assert "soft-accepted" in warnings[0].getMessage()


def sparse_lus(ws):
    """Sparse LU factorizations the workspace's resolvent has made."""
    stats = ws.resolvent.sparse_lu_stats
    return stats["real"] + stats["complex"]


def left_cap(system):
    """The left basis cap of ``solve_pi``: G2's nonzero rows plus the
    default right-rank cap."""
    n = system.n_states
    max_rank = min(min(n, 320), max(int(np.sqrt(1.6e7 / n)), 24))
    return np.unique(sp.coo_matrix(system.g2).row).size + max_rank


class TestLeftBasis:
    """The left (state) side of the factored Π is a Galerkin projection
    on a small rational-Krylov basis V, whose poles are pair sums of the
    right basis's Ritz values: a few cached sparse LUs serve the whole
    solve instead of one per pair sum and round."""

    @pytest.fixture(scope="class")
    def healthy_1024(self):
        ws = workspace(healthy_net(1024))
        before = sparse_lus(ws)
        ws.pi
        return ws, sparse_lus(ws) - before

    def test_healthy_plan_records_left_rank(self, healthy_1024):
        ws, _ = healthy_1024
        plan = ws.pi_plan
        assert plan["route"] == "lowrank"
        assert 0 < plan["left_rank"] <= left_cap(ws.system)
        assert plan["left_rank"] < plan["rank"] ** 2
        assert plan["residual"] <= 1e-12

    @pytest.mark.parametrize("n", [150, 1024])
    def test_factored_pi_residual_matches_reference(self, n):
        # Π is kept as V·Y·(U⊗U)ᵀ: the solve measures its residual
        # without forming V·Y, the independent reference forms it, and
        # no (n, r²) array is kept.
        ws = workspace(healthy_net(n))
        pi = ws.pi
        plan = ws.pi_plan
        g2_norm = spla.norm(ws.system.g2)
        ref = pi_sylvester_residual(ws.system.g1, ws.system.g2, pi)
        assert ref <= 1e-12 * g2_norm
        assert abs(ref - pi.residual) <= 1e-14 * g2_norm
        assert pi.v.shape == (n, plan["left_rank"])
        assert pi.y.shape == (plan["left_rank"], plan["rank"] ** 2)

    def test_healthy_pi_factors_g1_a_few_times(self, healthy_1024):
        # One LU per pair sum and round made 584 here.
        _, lus = healthy_1024
        assert lus <= 16

    def test_left_factor_stays_real_for_nonsymmetric_g1(self):
        # Complex pair sums give complex directions; V keeps their real
        # and imaginary parts, so Π's left factor stays real.
        rng = np.random.default_rng(7)
        n = 40
        g1d = -np.diag(2.0 + 0.3 * rng.random(n))
        for k in range(n - 1):
            g1d[k, k + 1] = 0.25 * rng.standard_normal()
            g1d[k + 1, k] = 0.10 * rng.standard_normal()
        g1 = sp.csr_matrix(g1d)
        factory = ResolventFactory(g1)
        solver = LowRankKronSolver(
            g1,
            lambda s, r: -factory.solve(-s, np.asarray(r, complex)),
            lambda s, r: -factory.solve_transpose(-s, np.asarray(r, complex)),
        )
        g2 = sp.lil_matrix((n, n * n))
        for row, i, j in rng.integers(0, n, (5, 3)):
            g2[row, i * n + j] = rng.standard_normal()
        pi = solver.solve_pi(sp.csr_matrix(g2), tol=1e-9)
        assert np.isrealobj(pi.v) and np.isrealobj(pi.y)
        assert factory.sparse_lu_stats["complex"] > 0
        assert pi.residual <= 1e-9 * pi.rhs_norm
        assert 0 < solver.pi_plan["left_rank"] <= n

    def test_zero_g2_has_no_left_basis(self):
        solver = bare_solver(healthy_net(40))
        solver.solve_pi(sp.csr_matrix((40, 40 * 40)))
        assert solver.pi_plan["reason"] == "zero-g2"
        assert solver.pi_plan["left_rank"] == 0

    def test_capped_left_basis_ends_in_numerical_error(self, monkeypatch):
        # A spectrum that is not separated: the left basis saturates at
        # its cap (4 G2 rows + max_rank 8) and the stall is reported —
        # after a bounded number of factorizations, not an endless loop.
        monkeypatch.setattr(sylvester, "PI_DENSE_LIMIT", 20)
        solver = bare_solver(default_net(40))
        factory = ResolventFactory.for_system(solver.system)
        with pytest.raises(NumericalError, match="stalled"):
            solver.solve_pi(solver.system.g2, max_rank=8)
        stats = factory.sparse_lu_stats
        assert stats["real"] + stats["complex"] <= 1 + 4 + 8


class TestSchurRouting:
    """A sparse workspace solves on its sparse LU even after a dense
    Schur form was built for it (the dense Π route and coupled builds
    build one); taking directions from the Schur form instead stalled
    the default ladder's H3 chain at the basis cap from n = 128."""

    def test_shifted_solves_stay_on_the_sparse_lu(self):
        ws = workspace(default_net(40))
        ws.schur
        rhs = np.ones(ws.n)
        before = sparse_lus(ws)
        x = ws.solve_shifted(0.37, rhs)
        xt = ws.solve_shifted_transpose(0.37, rhs)
        assert sparse_lus(ws) == before + 1  # one LU serves both
        assert np.array_equal(x, -ws.resolvent.solve(-0.37, rhs))
        assert np.array_equal(xt, -ws.resolvent.solve_transpose(-0.37, rhs))

    @pytest.mark.parametrize("strategy, order", [
        ("decoupled", 8), ("coupled", 6),
    ])
    def test_default_ladder_n128_reduces(self, strategy, order):
        rom = AssociatedTransformMOR(
            orders=(3, 2, 1), strategy=strategy
        ).reduce(default_net(128).compile(sparse=True))
        assert rom.order == order


class TestWarmStart:
    def test_warm_corner_takes_cold_twin_route(self):
        # Default ladder: Π seeds that would change the seeded spread if
        # they were absorbed before the check.
        n = 40
        cold = workspace(default_net(n))
        cold.pi
        warm = workspace(default_net(n))
        warm.warm_start(pi_u=np.eye(n)[:, 10:18])
        warm.pi
        assert warm.pi_plan["route"] == cold.pi_plan["route"] == "dense"
        assert warm.pi_plan["spread"] == cold.pi_plan["spread"]

        # Healthy ladder: a neighboring corner's converged right basis.
        neighbor = workspace(healthy_net(150, r=11.0))
        neighbor.pi
        cold = workspace(healthy_net(150))
        cold.pi
        warm = workspace(healthy_net(150))
        warm.warm_start(**neighbor.warm_state())
        warm.pi
        assert warm.pi_plan["route"] == cold.pi_plan["route"] == "lowrank"
        assert warm.pi_plan["spread"] == cold.pi_plan["spread"]


class TestCheckpointResume:
    @pytest.mark.parametrize("net", [default_net(24), healthy_net(24)],
                             ids=["default", "healthy"])
    def test_resumed_build_reports_same_plan(self, tmp_path, net):
        cold = decoupled().reduce(net.compile(sparse=True))
        ckdir = tmp_path / "ck"
        faults.configure("checkpoint.after_commit:2:raise")
        with pytest.raises(FaultInjected):
            decoupled().reduce(net.compile(sparse=True),
                               checkpoint=JobState(ckdir))
        faults.configure(None)
        resumed = decoupled().reduce(net.compile(sparse=True),
                                     checkpoint=JobState(ckdir))
        assert resumed.details["checkpoint"]["loaded"] >= 1
        assert resumed.details["pi_plan"] == cold.details["pi_plan"]
        assert array_digest(resumed.basis) == array_digest(cold.basis)


class TestReport:
    SPEC = {
        "generator": "quadratic_rc_ladder_netlist",
        "args": {"n_nodes": 24, "quad_nodes": 4},
        "compile": {"sparse": True},
    }

    def test_pi_plan_reported_on_decoupled_only(self):
        result = run_pipeline(
            self.SPEC, reduce={"orders": [3, 2, 1], "strategy": "decoupled"}
        )
        assert sp.issparse(result.system.g1)
        plan = result.report()["reduction"]["pi_plan"]
        plan = json.loads(json.dumps(plan, allow_nan=False))
        assert plan["route"] == "dense"
        assert plan["spread"] >= PI_SPREAD_LIMIT
        coupled = run_pipeline(
            self.SPEC, reduce={"orders": [3, 2, 1], "strategy": "coupled"}
        )
        assert "pi_plan" not in coupled.report()["reduction"]


class TestLogging:
    def test_default_ladder_route_logged_at_info(self, caplog):
        ws = workspace(default_net(40))
        with caplog.at_level(logging.INFO, logger="repro.linalg"):
            ws.pi
        plans = [
            rec for rec in caplog.records
            if rec.name.startswith("repro.linalg") and hasattr(rec, "pi_plan")
        ]
        assert len(plans) == 1
        assert plans[0].levelno == logging.INFO
        assert plans[0].pi_plan["route"] == "dense"
        assert "'route': 'dense'" in plans[0].getMessage()

    def test_library_installs_no_handler(self):
        for name in ("repro", "repro.linalg", "repro.linalg.pi",
                     "repro.linalg.sylvester"):
            assert logging.getLogger(name).handlers == []
