"""Exception hierarchy shared across the package."""


class LatentPathError(Exception):
    """Base class for all domain errors raised by latentpath."""


class ModelSyntaxError(LatentPathError):
    """Malformed model-language source. Carries line/column of the offense."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)


class ModelSpecificationError(LatentPathError):
    """Structurally valid syntax that violates a model invariant.

    Duplicate indicators or latents, undeclared names, duplicate paths or
    covariances, cyclic regression graphs, a variable order that does not
    match the model's indicators, a mediator on no route of its effect,
    one hypothesis label on two paths.
    """


class DataError(LatentPathError):
    """Unusable input data: ragged rows, empty tables, missing variables, an
    unknown covariance divisor, a theta of the wrong length."""


class NotPositiveDefiniteError(LatentPathError):
    """A matrix required to be positive definite is not."""


class UnderIdentifiedError(LatentPathError):
    """More free parameters than distinct sample moments, or a singular information matrix."""


class EstimationError(LatentPathError):
    """Estimation could not produce a usable result (e.g. bootstrap
    collapse), or an estimation option is out of range."""
