"""Exception types shared across the package."""


class ShapeGplmError(Exception):
    """Base class for all package-specific errors."""

    def __reduce__(self):
        # rebuilt from the message and the attributes __init__ set, not by
        # calling __init__ again: an error from a worker process reads the same
        return _rebuild, (type(self), str(self), vars(self))


def _rebuild(cls, message: str, attrs: dict) -> ShapeGplmError:
    err = cls.__new__(cls)
    Exception.__init__(err, message)
    err.__dict__.update(attrs)
    return err


class InvalidArgumentError(ShapeGplmError, ValueError):
    """An argument violates a documented precondition."""


class UsageError(InvalidArgumentError):
    """Malformed input from outside the program, named in the message."""


class InputFileError(UsageError):
    """A manifest, landmark or fit-state file is malformed; the message
    names the file."""


class DegenerateConfigurationError(InvalidArgumentError):
    """All landmarks coincide; the configuration carries no shape."""


class DegenerateDatasetError(InvalidArgumentError):
    """A dataset cannot support the requested procedure (e.g. every
    cross-validation fold lost a response class)."""


class OutOfChartError(ShapeGplmError):
    """A point lies outside the tangent chart of the given pole; ``index`` is
    its position in the list of points given."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


class BandwidthTooSmallError(ShapeGplmError):
    """Kernel weights underflowed for a query point even in log domain."""

    def __init__(self, query: object, message: str | None = None):
        self.query = query
        super().__init__(message or f"kernel weights underflowed at query {query!r}; "
                                    "increase the bandwidth")


class IllConditionedError(ShapeGplmError):
    """A normal-equation solve failed even after ridge regularisation."""


class DivergenceError(ShapeGplmError):
    """An iterative fit left the numerically meaningful region."""


class NonConvergenceError(ShapeGplmError):
    """An optimiser exhausted its iteration budget without converging."""

    def __init__(self, message: str, trace: list | None = None):
        self.trace = trace or []
        super().__init__(message)
