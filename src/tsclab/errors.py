"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary invalid-argument cases; the
classes below mark failure modes that callers (most notably the CLI)
need to tell apart.
"""


class ShapeError(ValueError):
    """Operand shapes do not conform; message names both shapes."""


class DataFormatError(ValueError):
    """A dataset or results file could not be parsed; message carries the line number."""


class VocabularyError(ValueError):
    """A label is not present in the dataset's label vocabulary."""


class IntegrityError(ValueError):
    """A long-format file violates its structural contract."""


class DegenerateVarianceError(ValueError):
    """A normalization layer was given too few values to estimate variance."""


class TrainingDivergenceError(ArithmeticError):
    """A gradient or the monitored (reference) loss became NaN or infinite.

    For a gradient the message names the layer parameter; for the
    monitored loss it names the epoch.
    """


class MissingCellError(ValueError):
    """A results table has (dataset, classifier) holes; message lists them."""


class UnsupportedArchitectureError(ValueError):
    """The requested analysis needs a GAP-headed architecture."""


class BlobSizeError(ValueError):
    """A model blob's byte length disagrees with its manifest's shapes."""


class ManifestError(ValueError):
    """A model manifest is malformed; message names the file and the field."""


class NumericError(ArithmeticError):
    """A numerical routine failed to produce a usable result."""
