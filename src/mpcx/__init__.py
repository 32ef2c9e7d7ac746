"""Multipath component extraction toolkit.

Synthesizes idealized MIMO sounder frequency responses from known path
parameters, maps them to an oversampled angle-angle-delay beamspace,
extracts path parameters by greedy matching pursuit with least-squares
amplitude refitting (optional expectation-maximization refinement), and
scores estimates against ground truth with an optimal assignment and
resolution-bin metrics.
"""

from .assoc import (
    Assignment,
    AssociationResult,
    ResolutionSpec,
    assign,
    associate,
    wrap_cycles,
)
from .beamspace import (
    BeamspaceGrid,
    GridSpec,
    beamspace_transform,
    pdp_marginals,
    single_path_grid,
)
from .extract import (
    DegenerateGeometryError,
    ExtractionConfig,
    ExtractionTrace,
    greedy_extract,
    greedy_ls,
    ls_amplitudes,
    reconstruct,
    reconstruction_error,
    sage_refine,
)
from .scenario import Scenario, ScenarioSpec, generate_scenario
from .sounder import (
    FrequencyResponse,
    PathParams,
    SounderConfig,
    VirtualCoefficients,
    add_awgn,
    filter_by_dynamic_range,
    reconstruct_from_virtual,
    resolvable_delays,
    signal_space_dimension,
    spatial_frequency,
    synthesize_response,
    virtual_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "AssociationResult",
    "BeamspaceGrid",
    "DegenerateGeometryError",
    "ExtractionConfig",
    "ExtractionTrace",
    "FrequencyResponse",
    "GridSpec",
    "PathParams",
    "ResolutionSpec",
    "Scenario",
    "ScenarioSpec",
    "SounderConfig",
    "VirtualCoefficients",
    "add_awgn",
    "assign",
    "associate",
    "beamspace_transform",
    "filter_by_dynamic_range",
    "generate_scenario",
    "greedy_extract",
    "greedy_ls",
    "ls_amplitudes",
    "pdp_marginals",
    "reconstruct",
    "reconstruct_from_virtual",
    "reconstruction_error",
    "resolvable_delays",
    "sage_refine",
    "signal_space_dimension",
    "single_path_grid",
    "spatial_frequency",
    "synthesize_response",
    "virtual_coefficients",
    "wrap_cycles",
]
