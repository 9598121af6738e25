"""Exception hierarchy. The CLI maps DombertError to exit status 1."""


class DombertError(Exception):
    pass


class CorpusError(DombertError):
    """Malformed corpus, packed-corpus, vocabulary, or truth data."""


class ConfigError(DombertError):
    """Invalid configuration value or unsatisfiable precondition."""


class InputError(DombertError):
    """Out-of-range runtime input (token id, label, shape)."""


class DegenerateEmbeddingError(DombertError):
    """A domain-embedding row has zero norm; cosines are undefined."""


class CheckpointError(DombertError):
    """Unreadable, truncated, or shape-mismatched checkpoint."""


class NonFiniteGradientError(DombertError):
    """A gradient array contains NaN or infinity; training must abort."""
