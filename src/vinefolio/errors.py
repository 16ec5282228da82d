"""Exception hierarchy shared across the package."""


class VinefolioError(Exception):
    """Base class for all package errors."""


class DegenerateSample(VinefolioError):
    """Sample is constant or too short to fit a marginal density."""


class EmptyPanel(VinefolioError):
    """A return panel with no columns or no periods was supplied."""


class InvalidParameter(VinefolioError):
    """A copula or model parameter out of range, or an inconsistent instance."""


class NonConvergence(VinefolioError):
    """Iterative inversion failed to reach the requested tolerance."""


class LengthMismatch(VinefolioError):
    """Paired series have different lengths."""


class FitFailure(VinefolioError):
    """Maximum-likelihood fit could not produce in-range parameters."""


class DimensionMismatch(VinefolioError):
    """Matrix or vector dimensions do not agree."""


class MissingRateSeries(VinefolioError):
    """An asset or currency column has no matching interest-rate series."""

    def __init__(self, currency: str):
        self.currency = currency
        super().__init__(f"no interest-rate series for currency {currency!r}")


class MissingColumn(VinefolioError):
    """A required scenario or panel column is absent."""


class CovarianceFailure(VinefolioError):
    """Covariance factorization failed even after jitter."""


class EmptyScenarios(VinefolioError):
    """CVaR requested on an empty scenario set."""


class InvalidConfig(VinefolioError, ValueError):
    """A genetic-algorithm setting out of range or of an unknown kind."""


class InvalidScenarios(VinefolioError, ValueError):
    """Scenario values are not finite or probabilities do not sum to 1."""


class ParseError(VinefolioError):
    """Input file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonNumericCell(ParseError):
    """A CSV cell that should hold a finite number does not."""
