"""Exception types shared across the toolkit.

Every type derives from DefmodError: bad input, a bad setting, an output
path that cannot be written or a computation that left the finite range.
The command line exits 2 on any of them.
"""


class DefmodError(Exception):
    """A fault in the input, the settings or the environment, not in the code."""


class ConfigError(DefmodError, ValueError):
    """A configuration value or an input file violates its contract."""


class ShapeError(DefmodError, ValueError):
    """Tensor or vector shapes do not agree."""


class MissingWordError(DefmodError, KeyError):
    """A word was looked up in a table that does not contain it."""


class ZeroVectorError(DefmodError, ValueError):
    """Cosine similarity requested for a zero-norm vector."""


class UnrepresentableDefinitionError(DefmodError, ValueError):
    """No token of a definition is covered by the embedding vocabulary."""


class CheckpointError(DefmodError, ValueError):
    """A checkpoint file is corrupt or does not match its vocabularies."""


class ScoringError(DefmodError, ValueError):
    """A word cannot be scored (empty generated or reference list)."""


class NonFiniteError(DefmodError, ValueError):
    """A computed value that must be finite is NaN or infinite."""


class OutputError(DefmodError, OSError):
    """An output file cannot be created at the path given."""
