"""Exception types shared across the toolkit."""


class ConfigError(ValueError):
    """A configuration value violates its contract."""


class ShapeError(ValueError):
    """Tensor or vector shapes do not agree."""


class MissingWordError(KeyError):
    """A word was looked up in a table that does not contain it."""


class ZeroVectorError(ValueError):
    """Cosine similarity requested for a zero-norm vector."""


class UnrepresentableDefinitionError(ValueError):
    """No token of a definition is covered by the embedding vocabulary."""


class LexiconFormatError(ValueError):
    """A lexicon file line does not follow the TSV format."""


class PairsFormatError(ValueError):
    """A training-pairs file line does not follow the TSV format."""


class CheckpointError(ValueError):
    """A checkpoint file is corrupt or does not match its vocabularies."""


class ScoringError(ValueError):
    """A word cannot be scored (empty generated or reference list)."""


class NonFiniteError(ValueError):
    """A computed value that must be finite is NaN or infinite."""


class OutputError(OSError):
    """An output file cannot be created at the path given."""
