"""diraclab: a numerical laboratory for Dirac spectra on warped cylinders.

The package reduces Dirac Laplacians on warped-product cylinders to
one-dimensional Dirichlet eigenproblems and verifies, at desk scale, the
eigenvalue inequalities, first-variation formulas, and neck-stretching
collapse that drive harmonic-spinor existence arguments, alongside a catalog
of the classical facts and index-theoretic bounds involved.

Every public name is listed once, under the module that defines it, and
resolves on first access: ``import diraclab`` loads none of its modules until
one of their names is used.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "profiles": ("WarpingProfile", "CutoffSet", "mean_curvature",
                 "mean_curvature_prime", "make_cutoffs", "smooth_step",
                 "exponential_profile", "constant_profile", "resolve_m"),
    "metrics": ("CylinderPiece", "BlockPiece", "PiecewiseMetric", "NeckFamily",
                "build_neck_family", "flat_cylinder", "cylinder_metric",
                "pullback_cylinder_metric"),
    "transverse": ("TransverseSpectrum", "circle_spectrum",
                   "discrete_circle_oracle", "scale_to_slice"),
    "sturm": ("BranchProblem", "TransformedProblem", "SpectrumResult",
              "branch_potential", "liouville_transform", "solve_transformed",
              "solve_direct"),
    "assemble": ("AssembledSpectrum", "BranchEigenvalue", "assemble_spectrum",
                 "lowest_eigenvalue_bound"),
    "bracketing": ("BracketingReport", "bracketing_check", "run_random_cases"),
    "circle": ("CircleDiracModel", "circle_eigenpairs", "energy_momentum",
               "trace_identity_check", "bg_first_variation", "scaling_check",
               "annihilation_flow", "FlowTrace"),
    "stretch": ("StretchReport", "run_stretch_sweep", "GrowthFit",
                "sobolev_growth_fit"),
    "catalog": ("index_lower_bound", "dminimal_value", "surface_and_sphere_facts",
                "berger_zero_parameter", "existence_certificate",
                "ExistenceCertificate", "FactRecord"),
    "errors": ("DiracLabError", "UsageError", "InvalidProfileError",
               "ResolutionError", "DiscretizationFailureError",
               "TruncationRiskError", "FlowStuckError", "FactNotFoundError",
               "NotCoveredError"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    # PEP 562: import the defining module on first access, then cache the name
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
