"""Linear-algebra substrate: Kronecker algebra, Schur/Sylvester solvers,
matrix-free lifted operators, Arnoldi, and moment utilities."""

from .arnoldi import ArnoldiResult, arnoldi, merge_bases, orthonormalize
from .kronecker import (
    commutation_matrix,
    kron,
    kron_many,
    kron_matvec,
    kron_power,
    kron_sum,
    kron_sum_many,
    kron_sum_matvec,
    kron_sum_power,
    kron_sum_power_matvec,
    mode_apply,
    sparse_kron_apply,
    symmetrize_pair,
    unvec,
    vec,
)
from .moments import moment_chain, moment_chain_operator, transfer_moments_dense
from .operators import (
    DenseOperator,
    FactoredH3Operator,
    KronSumOperator,
    LiftedH3Vector,
    QuadraticLiftedOperator,
)
from .resolvent import ResolventFactory
from .schur import SchurForm
from .sylvester import (
    FactoredPi,
    FactoredTensor,
    KronSumSolver,
    LowRankKronSolver,
    pi_sylvester_residual,
    solve_pi_sylvester,
    triangular_sylvester_solve,
)

__all__ = [
    "ArnoldiResult",
    "arnoldi",
    "merge_bases",
    "orthonormalize",
    "commutation_matrix",
    "kron",
    "kron_many",
    "kron_matvec",
    "kron_power",
    "kron_sum",
    "kron_sum_many",
    "kron_sum_matvec",
    "kron_sum_power",
    "kron_sum_power_matvec",
    "mode_apply",
    "sparse_kron_apply",
    "symmetrize_pair",
    "unvec",
    "vec",
    "moment_chain",
    "moment_chain_operator",
    "transfer_moments_dense",
    "DenseOperator",
    "FactoredH3Operator",
    "KronSumOperator",
    "LiftedH3Vector",
    "QuadraticLiftedOperator",
    "ResolventFactory",
    "SchurForm",
    "FactoredPi",
    "FactoredTensor",
    "KronSumSolver",
    "LowRankKronSolver",
    "pi_sylvester_residual",
    "solve_pi_sylvester",
    "triangular_sylvester_solve",
]
