"""Exception types shared across the package.

Grouped by how the CLI maps them to exit codes: DataError -> 3,
NumericError -> 4, ConfigError -> 2 (usage). MissingKernel is also an
ImportError; the CLI maps no other ImportError.
"""


class DataError(Exception):
    """A dataset or input file is unusable as given."""


class EmptyInput(DataError):
    """An input file contained no interactions."""


class MalformedLine(DataError):
    """An interaction line could not be parsed (carries the line number)."""

    def __init__(self, path: str, lineno: int, detail: str):
        super().__init__(f"{path}:{lineno}: {detail}")
        self.path = path
        self.lineno = lineno


class EmptyAfterFiltering(DataError):
    """k-core filtering removed every interaction."""


class NoNegativeAvailable(DataError):
    """A user has interacted with every item, so no negative can be drawn."""


class InsufficientBatch(DataError):
    """The in-batch uniformity loss needs at least two rows."""


class InsufficientData(DataError):
    """The uniformity metric needs at least two interactions."""


class NothingToEvaluate(DataError):
    """No user in the requested split has any target item."""


class NumericError(Exception):
    """Numerical degeneracy or divergence."""


class DegenerateEmbedding(NumericError):
    """A representation row has zero (or non-finite) norm and cannot be normalized."""


class DivergedGradient(NumericError):
    """A gradient contained non-finite entries."""


class ConfigError(Exception):
    """A config file or flag combination is invalid (usage error)."""


class MissingKernel(ConfigError, ImportError):
    """The graph encoder is configured where scipy's sparse kernel cannot be found."""
