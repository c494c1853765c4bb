"""Accuracy-fairness frontiers for two-group populations under the
Equalized-Odds notion of fairness: closed-form metrics, classifier sweeps,
Pareto filtering, structural checks, and Monte-Carlo oracles."""

from .classifiers import (EMPTY, FULL_LINE, GroupwiseClassifier, IntervalSet,
                          bayes_accuracy_optimal, fairness_optimal,
                          sign_region)
from .distributions import (DensityPoint, Mixture, Normal, Triangular,
                            evaluate, positive_mass, sample)
from .errors import (ComplexityError, ContractError, FairFrontierError,
                     InputError, ResourceError, ValidationError)
from .frontier import (Candidates, FamilySpec, Frontier, FrontierPoint, Jump,
                       build_frontier, classify_shape, pareto_filter, sweep)
from .metrics import (ConfusionRates, Decomposition, MetricWeights, Reference,
                      WellDefinedResult, accuracy, confusion_rates,
                      decompose_unfairness, fairness, unfairness,
                      well_defined_check)
from .oracle import McEstimate, McResult, dominance_oracle, mc_estimate
from .population import (CELLS, PRESETS, GroupConditionalModel,
                         ValidationReport, read_scenario_file, scenario,
                         validate, write_scenario_file)
from .theorems import (Condition, TheoremReport, check_accuracy_jump,
                       check_boundary_alignment, check_decomposition_bound,
                       check_simultaneous_optimality,
                       overpursuit_accuracy_bound)

__version__ = "0.1.0"

__all__ = [
    "CELLS", "Candidates", "ComplexityError", "Condition", "ConfusionRates",
    "ContractError", "Decomposition", "DensityPoint", "EMPTY",
    "FairFrontierError", "FamilySpec", "Frontier", "FrontierPoint",
    "FULL_LINE", "GroupConditionalModel", "GroupwiseClassifier", "InputError",
    "IntervalSet", "Jump", "McEstimate", "McResult", "MetricWeights",
    "Mixture", "Normal", "PRESETS", "Reference", "ResourceError",
    "TheoremReport", "Triangular", "ValidationError", "ValidationReport",
    "WellDefinedResult",
    "accuracy", "bayes_accuracy_optimal", "build_frontier",
    "check_accuracy_jump", "check_boundary_alignment",
    "check_decomposition_bound", "check_simultaneous_optimality",
    "classify_shape", "confusion_rates", "decompose_unfairness",
    "dominance_oracle", "evaluate", "fairness", "fairness_optimal",
    "mc_estimate", "overpursuit_accuracy_bound", "pareto_filter",
    "positive_mass", "read_scenario_file", "sample", "scenario", "sign_region",
    "sweep", "unfairness", "validate", "well_defined_check",
    "write_scenario_file",
]
