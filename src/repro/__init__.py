"""repro — Nonlinear model order reduction via associated transforms of
high-order Volterra transfer functions.

Reproduction of: Zhang, Liu, Wang, Fong, Wong, "Fast Nonlinear Model
Order Reduction via Associated Transforms of High-Order Volterra Transfer
Functions", DAC 2012, pp. 289-294.

Quickstart
----------
>>> from repro.circuits import quadratic_rc_ladder_netlist
>>> from repro.pipeline import run_pipeline
>>> result = run_pipeline(
...     quadratic_rc_ladder_netlist(70),
...     reduce=(6, 3, 0),
...     sweep={"start": 0.02, "stop": 0.5, "points": 25},
...     store="./models",          # reuse the reduction across runs
... )
>>> result.report()["sweep"]["hd2"]

or, without importing anything:  ``python -m repro sweep spec.json``.
See README.md for the full tour and the module layout.
"""

__version__ = "1.0.0"

from . import engine  # noqa: F401  (repro.engine.worker_stats)
from .errors import (  # noqa: F401
    ConvergenceError,
    NumericalError,
    ReproError,
    SystemStructureError,
    ValidationError,
)
from .mor import (  # noqa: F401
    AssociatedTransformMOR,
    NORMReducer,
    ReducedOrderModel,
    balanced_truncation,
    suggest_orders,
)
from .pipeline import (  # noqa: F401
    ReductionJob,
    SweepJob,
    TransientJob,
    run_pipeline,
)
from .simulation import simulate  # noqa: F401
from .store import ModelStore, ReductionArtifact  # noqa: F401
from .systems import (  # noqa: F401
    CubicODE,
    ExponentialODE,
    PolynomialODE,
    QLDAE,
    StateSpace,
)

__all__ = [
    "engine",
    "ConvergenceError",
    "NumericalError",
    "ReproError",
    "SystemStructureError",
    "ValidationError",
    "AssociatedTransformMOR",
    "NORMReducer",
    "ReducedOrderModel",
    "ReductionJob",
    "SweepJob",
    "TransientJob",
    "run_pipeline",
    "ModelStore",
    "ReductionArtifact",
    "balanced_truncation",
    "suggest_orders",
    "simulate",
    "CubicODE",
    "ExponentialODE",
    "PolynomialODE",
    "QLDAE",
    "StateSpace",
    "__version__",
]
