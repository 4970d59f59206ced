"""Exception hierarchy shared across the toolkit."""


class DroidlensError(Exception):
    """Base class for all toolkit errors."""


class DexParseError(DroidlensError):
    """Malformed or truncated DEX input."""


class DatasetError(DroidlensError):
    """Invalid dataset contents or CSV format."""


class NoVerdictsError(DroidlensError):
    """A scan report carried no engine verdicts; the label is unknown."""


class OracleError(DroidlensError):
    """Label-oracle lookup failed (missing fixture, HTTP error, bad body)."""


class ClusterError(DroidlensError):
    """Invalid clustering input or parameters."""


class LearnError(DroidlensError):
    """Invalid classifier spec or training input."""


class EvalError(DroidlensError):
    """Evaluation pipeline failure."""


class ConfigError(DroidlensError):
    """Invalid run configuration."""
