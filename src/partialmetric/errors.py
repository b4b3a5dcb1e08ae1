"""Exception types shared across the package."""


class PMError(Exception):
    """Base class for all partialmetric errors."""


class StructureError(PMError):
    """A space table is malformed (shape mismatch, negative entry, bad input)."""


class DomainError(PMError):
    """A point does not belong to the space it was used with."""


class MetadataError(PMError):
    """A catalog space lacks the declared metadata an operation needs."""


class MapClosureError(PMError):
    """A self-map produced a point outside the space's domain."""


class UnsupportedSequenceError(PMError):
    """The sequence has no exact tail structure the operation can use."""


class SizeLimitError(PMError):
    """Work past a size cap was refused: exhaustive enumeration over too large a
    space, or a sequence horizon past ``analysis.MAX_HORIZON``."""


class AxiomFailureError(PMError):
    """An operation that requires a valid space was given a violating table."""


class CatalogKeyError(PMError, KeyError):
    """Unknown catalog identifier."""
