"""diraclab: a numerical laboratory for Dirac spectra on warped cylinders.

The package reduces Dirac Laplacians on warped-product cylinders to
one-dimensional Dirichlet eigenproblems and verifies, at desk scale, the
eigenvalue inequalities, first-variation formulas, and neck-stretching
collapse that drive harmonic-spinor existence arguments, alongside a catalog
of the classical facts and index-theoretic bounds involved.
"""

__version__ = "0.1.0"

from .assemble import (AssembledSpectrum, BranchEigenvalue, assemble_spectrum,
                       lowest_eigenvalue_bound)
from .bracketing import BracketingReport, bracketing_check, run_random_cases
from .catalog import (ExistenceCertificate, FactRecord, berger_zero_parameter,
                      dminimal_value, existence_certificate, index_lower_bound,
                      surface_and_sphere_facts)
from .circle import (CircleDiracModel, FlowTrace, annihilation_flow,
                     bg_first_variation, circle_eigenpairs, energy_momentum,
                     scaling_check, trace_identity_check)
from .errors import (DiracLabError, DiscretizationFailureError,
                     FactNotFoundError, FlowStuckError, InvalidProfileError,
                     NotCoveredError, ResolutionError, TruncationRiskError,
                     UsageError)
from .metrics import (BlockPiece, CylinderPiece, NeckFamily, PiecewiseMetric,
                      build_neck_family, cylinder_metric, flat_cylinder,
                      pullback_cylinder_metric)
from .profiles import (CutoffSet, WarpingProfile, constant_profile,
                       exponential_profile, make_cutoffs, mean_curvature,
                       mean_curvature_prime, resolve_m, smooth_step)
from .sturm import (BranchProblem, SpectrumResult, TransformedProblem,
                    branch_potential, liouville_transform, solve_direct,
                    solve_transformed)
from .stretch import (GrowthFit, StretchReport, run_stretch_sweep,
                      sobolev_growth_fit)
from .transverse import (TransverseSpectrum, circle_spectrum,
                         discrete_circle_oracle, scale_to_slice)

__all__ = [
    "__version__",
    # profiles / geometry
    "WarpingProfile", "CutoffSet", "mean_curvature", "mean_curvature_prime",
    "make_cutoffs", "smooth_step", "exponential_profile", "constant_profile",
    "resolve_m",
    # metrics
    "CylinderPiece", "BlockPiece", "PiecewiseMetric", "NeckFamily",
    "build_neck_family", "flat_cylinder", "cylinder_metric",
    "pullback_cylinder_metric",
    # transverse spectra
    "TransverseSpectrum", "circle_spectrum", "discrete_circle_oracle",
    "scale_to_slice",
    # one-dimensional eigenproblems
    "BranchProblem", "TransformedProblem", "SpectrumResult",
    "branch_potential", "liouville_transform", "solve_transformed",
    "solve_direct",
    # assembly and bounds
    "AssembledSpectrum", "BranchEigenvalue", "assemble_spectrum",
    "lowest_eigenvalue_bound", "BracketingReport", "bracketing_check",
    "run_random_cases",
    # circle variation experiments
    "CircleDiracModel", "circle_eigenpairs", "energy_momentum",
    "trace_identity_check", "bg_first_variation", "scaling_check",
    "annihilation_flow", "FlowTrace",
    # stretching
    "StretchReport", "run_stretch_sweep", "GrowthFit", "sobolev_growth_fit",
    # catalog
    "index_lower_bound", "dminimal_value", "surface_and_sphere_facts",
    "berger_zero_parameter", "existence_certificate", "ExistenceCertificate",
    "FactRecord",
    # errors
    "DiracLabError", "UsageError", "InvalidProfileError", "ResolutionError",
    "DiscretizationFailureError", "TruncationRiskError", "FlowStuckError",
    "FactNotFoundError", "NotCoveredError",
]
