"""Exception types shared across the package."""


class KgmlsmError(Exception):
    """Base class for package errors."""


class ShapeError(KgmlsmError):
    """Tensor operands do not have compatible shapes."""


class NonFiniteError(KgmlsmError):
    """A primitive op produced NaN or Inf."""


class GraphError(KgmlsmError):
    """Invalid use of the computation graph (e.g. backward from a non-scalar)."""


class MissingCoverage(KgmlsmError):
    """No masked pixels available for a county/date combination."""

    def __init__(self, county_id, date):
        self.county_id = county_id
        self.date = date
        super().__init__(f"no corn-masked pixels for county {county_id} on {date}")


class SchemaError(KgmlsmError):
    """A CSV/JSON artifact does not match its declared schema."""


class ConfigError(KgmlsmError, ValueError):
    """Invalid run configuration; also a ValueError, like other bad values."""


class CheckpointMismatch(KgmlsmError):
    """Checkpoint manifest does not match the requested architecture."""


class SingularFit(KgmlsmError):
    """A least-squares fit's normal equations have no unique solution."""
