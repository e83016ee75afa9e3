"""Exception types shared across the package.

The split mirrors the exit-code contract of the command line driver:
``UsageError`` maps to exit code 2, every other ``DiracLabError`` maps to
exit code 1.  Any other exception is a defect and propagates as a traceback.
"""


class DiracLabError(Exception):
    """Base class for invariant or contract violations."""


class UsageError(DiracLabError):
    """Bad user input: malformed config, out-of-domain argument, missing file."""


class InvalidProfileError(UsageError):
    """Warping profile is non-positive or otherwise unusable."""


class ResolutionError(UsageError):
    """Requested output exceeds what the mesh / sample density supports."""


class DiscretizationFailureError(DiracLabError):
    """A discrete solve left its validity regime (e.g. an advective
    finite-difference matrix that is not symmetrizable: cell Peclet
    number h|p|/2 >= 1)."""


class TruncationRiskError(DiracLabError):
    """A truncated transverse spectrum cannot guarantee the requested number
    of global eigenvalues."""


class FlowStuckError(DiracLabError):
    """The metric flow cannot take a step although the eigenvalue is nonzero."""


class NotCoveredError(UsageError):
    """Query outside the tabulated range of the fact catalog."""


class FactNotFoundError(UsageError):
    """No catalog row matches the query."""
