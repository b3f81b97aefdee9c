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
        assert array_digest(np.asarray(pi.left)) == array_digest(
            np.asarray(ref.left)
        )
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
