"""Exception types shared across the package.

Every exception carries a stable ``code`` string so callers (and the CLI)
can dispatch on failures without string-matching messages.
"""


class GeometryError(Exception):
    """Base class for all errors raised by this package."""

    code = "GEOMETRY_ERROR"


class NonUnitTangent(GeometryError):
    """A tangent vector that must be unit length is not."""

    code = "NON_UNIT_TANGENT"


class NonUnitCurve(GeometryError):
    """A curve that must be unit speed is not."""

    code = "NON_UNIT_CURVE"


class BadCurvatureFunction(GeometryError):
    """A prescribed curvature function returned a non-finite value."""

    code = "BAD_CURVATURE_FUNCTION"


class OutOfDomain(GeometryError):
    """A chart point or curve parameter lies outside the declared domain."""

    code = "OUT_OF_DOMAIN"


class InsufficientSamples(GeometryError):
    """An operation needs more samples than the input provides."""

    code = "INSUFFICIENT_SAMPLES"


class DivergenceNotReached(GeometryError):
    """The divergence search exhausted its parameter budget."""

    code = "DIVERGENCE_NOT_REACHED"


class NotImmersed(GeometryError):
    """A chart jet is degenerate (first form not positive definite)."""

    code = "NOT_IMMERSED"


class NotParabolic(GeometryError):
    """An asymptotic trace was seeded at a non-parabolic point."""

    code = "NOT_PARABOLIC"


class DegenerateDirection(GeometryError):
    """The asymptotic direction is numerically ill-conditioned."""

    code = "DEGENERATE_DIRECTION"


class PlanarSample(GeometryError):
    """A trace diagnostic that requires parabolic samples met a planar one."""

    code = "PLANAR_SAMPLE"


class EmptyIntersection(GeometryError):
    """A horizontal slice does not meet the chart."""

    code = "EMPTY_INTERSECTION"


class NumericalError(GeometryError):
    """Non-finite values or other numerical breakdown inside a computation."""

    code = "NUMERICAL_FAILURE"


class ConfigError(GeometryError):
    """A run configuration or surface description failed validation."""

    code = "BAD_CONFIG"
