"""Exception types shared across the package.

Domain failures raise one of these; the CLI maps them to exit code 1,
while malformed configuration raises ConfigError and maps to exit code 2.
"""


class AomotoLabError(Exception):
    """Base class for all domain errors raised by this package."""


class ZeroKappa(AomotoLabError):
    """Specialization at kappa = 0 was requested."""


class ExhaustedRetries(AomotoLabError):
    """Random sampling failed to find an admissible point within the retry budget."""


class MissingColoring(AomotoLabError):
    """An operation needing a variable coloring got an arrangement without one."""


class OnHyperplane(AomotoLabError):
    """A point to be used for evaluation lies on one of the arrangement hyperplanes."""


class NotInSpan(AomotoLabError):
    """A top form could not be written in the logarithmic monomial basis."""


class UnsupportedAlgebra(AomotoLabError):
    """The config names an algebra other than sl2, the only one computed."""


class LevelViolation(AomotoLabError):
    """A highest weight violates the level bound of the requested fusion level."""


class DuplicatePoints(AomotoLabError):
    """Marked points on the line must be pairwise distinct."""


class WeightMismatch(AomotoLabError):
    """The simple-root decomposition does not match the prescribed weights."""


class StepUnderflow(AomotoLabError):
    """Path transport would need steps below the keep-out radius near a puncture."""


class LoopEnclosesPuncture(AomotoLabError):
    """A loop meant to circle one puncture would also enclose or touch another."""


class BranchCut(AomotoLabError):
    """A sample point lies on the branch cut of a chosen principal power."""


class TooManyMonomials(AomotoLabError):
    """An arrangement has more top-degree monomials than the cost budget admits."""


class TooManyWeightVectors(AomotoLabError):
    """A tensor product has more weight-0 basis vectors than the cost budget admits."""


class PrecisionLoss(AomotoLabError):
    """A numeric result lost too much precision to be trusted at the working tolerance."""


class ConfigError(AomotoLabError):
    """A job configuration failed validation; message points at the offending field."""
