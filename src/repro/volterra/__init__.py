"""Volterra theory: multivariate transfer functions, associated-transform
realizations (the paper's core contribution), variational time-domain
responses, and numerical theorem checks."""

from .associated import (
    AssociatedRealization,
    AssociatedWorkspace,
    DecoupledH2Realization,
    FactoredH3Realization,
    associated_h1,
    associated_h2,
    associated_h2_decoupled,
    associated_h3,
)
from .evaluator import VolterraEvaluator, volterra_evaluator
from .response import (
    VolterraResponse,
    frequency_sweep,
    volterra_series_response,
)
from .theorems import (
    corollary1_residual,
    factored_property_residual,
    numerical_association_h2,
    theorem1_residual,
    theorem2_constant,
)
from .transfer import (
    apply_input_permutation,
    input_permutation,
    output_transfer,
    permutation_indices,
    volterra_h1,
    volterra_h2,
    volterra_h3,
)

__all__ = [
    "AssociatedRealization",
    "AssociatedWorkspace",
    "DecoupledH2Realization",
    "FactoredH3Realization",
    "associated_h1",
    "associated_h2",
    "associated_h2_decoupled",
    "associated_h3",
    "VolterraEvaluator",
    "volterra_evaluator",
    "VolterraResponse",
    "frequency_sweep",
    "volterra_series_response",
    "corollary1_residual",
    "factored_property_residual",
    "numerical_association_h2",
    "theorem1_residual",
    "theorem2_constant",
    "apply_input_permutation",
    "input_permutation",
    "output_transfer",
    "permutation_indices",
    "volterra_h1",
    "volterra_h2",
    "volterra_h3",
]
