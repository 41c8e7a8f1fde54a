"""Exception types shared across the library."""


class GeometryError(Exception):
    """Base class for all h1geo errors."""


class NotArclength(GeometryError):
    """Curve is not parameterized by arclength within tolerance."""


class DegenerateCurve(NotArclength):
    """Planar curve speed vanishes somewhere on the evaluation grid."""


class DegeneratePoint(GeometryError):
    """Immersion partials are linearly dependent at the requested point."""


class SingularPoint(GeometryError):
    """Requested a regular-point quantity at/near the singular set."""


class NoSingularCurve(GeometryError):
    """Patch carries no singular boundary curve at the requested location."""


class OnSingularLocus(GeometryError):
    """Probe point lies on the singular locus of a calibration foliation."""


class OrientationUnset(GeometryError):
    """Signed quantity requested from a patch without an orientation."""


class NotClosedSurface(GeometryError):
    """Operation requires a closed surface."""


class NonFinite(GeometryError):
    """A quadrature sample or a mesh vertex evaluated to NaN or infinity."""


class UnknownSurface(GeometryError):
    """Catalog lookup failed."""


class StepUnderflow(GeometryError):
    """Finite-difference step below the supported minimum."""


class StepTooSmall(GeometryError):
    """Variation step below the supported minimum."""


class ConfigError(GeometryError):
    """Invalid run configuration (CLI exit code 2)."""
