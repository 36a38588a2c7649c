"""Exception hierarchy shared across the toolkit."""


class ConfflatError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ConfflatError):
    """The map is undefined at the evaluation point: the point lies outside
    (or too close to the boundary of) the chart box, the evaluator produced
    non-finite output, or the point projects from the cone near infinity."""


class ImmersionError(ConfflatError):
    """Differential is rank deficient at the evaluation point."""


class FrameError(ConfflatError):
    """Normal-frame construction or transport broke down."""


class NotApplicable(ConfflatError):
    """Check does not apply to the given input, e.g. below its minimal
    dimension (reported, not a failure)."""


class QuasiumbilicError(ConfflatError):
    """Frame directions fail pairwise orthogonality (input not conformally flat)."""


class ConformalStructureError(ConfflatError):
    """Immersion is not isometric for the declared conformal metric."""


class SingularTransformError(ConfflatError):
    """Ribaucour direction field is null at some point."""


class DegenerateInputError(ConfflatError):
    """Input too degenerate for a numerical decision: shape operators that
    fail to commute (normal bundle not flat), principal normals or singular
    values too close to their clustering or rank threshold, a coordinate net
    that is not orthogonal, or missing curvature-line rigidity."""


class DimensionAmbiguityError(ConfflatError):
    """No clear plateau in the singular-value spectrum."""

    def __init__(self, message, spectrum=None):
        super().__init__(message)
        self.spectrum = spectrum


class ConfigError(ConfflatError):
    """Malformed scenario configuration."""


class CurveError(ConfflatError):
    """Curve fails a construction prerequisite (e.g. not unit speed)."""


class NonProperError(ConfflatError):
    """Number of principal normals varies across the sample set."""

    def __init__(self, message, strata=None):
        super().__init__(message)
        self.strata = strata
