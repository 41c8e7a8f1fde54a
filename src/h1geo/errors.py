"""Exception types shared across the library."""


class GeometryError(Exception):
    """Base class for all h1geo errors."""


class DegenerateCurve(GeometryError):
    """A planar curve's speed vanishes at an edge of its lift table, or its
    samples cannot make a curve."""


class DegeneratePoint(GeometryError):
    """Immersion partials are linearly dependent at the requested point."""


class SingularPoint(GeometryError):
    """Requested a regular-point quantity at/near the singular set."""


class NoSingularCurve(GeometryError):
    """Patch carries no singular boundary curve at the requested location."""


class OnSingularLocus(GeometryError):
    """Probe point lies on the vertical lines through a graph's singular
    set, where its calibrating field is undefined."""


class OrientationUnset(GeometryError):
    """Signed quantity requested from a patch without an orientation."""


class NotClosedSurface(GeometryError):
    """Operation requires a closed surface."""


class NonFinite(GeometryError):
    """A quadrature sample or a mesh vertex evaluated to NaN or infinity."""


class UnknownSurface(GeometryError):
    """Catalog lookup failed."""


class StepTooSmall(GeometryError):
    """Variation step below the supported minimum."""


class ConfigError(GeometryError):
    """Invalid run configuration (CLI exit code 2)."""
