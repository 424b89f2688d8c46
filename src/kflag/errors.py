"""Exception taxonomy shared across the engine.

Exact arithmetic doubles as an integrity monitor: a division that should
succeed but does not, a residual that should vanish but does not, or a
localization sum with a genuine pole all indicate either invalid input or
a convention bug, and are raised as distinct exception types so callers
(and the CLI exit-code mapping) can tell them apart.
"""


class KflagError(Exception):
    """Base class for all engine errors."""


class ConfigError(KflagError):
    """Invalid configuration: bad Cartan data, malformed words or weights."""


class BoundExceededError(ConfigError):
    """A configured size bound (Weyl group order, root closure) was exceeded."""


class NotDivisibleError(KflagError):
    """An exact polynomial division has no Laurent-polynomial quotient."""


class NonzeroResidualError(KflagError):
    """A basis expansion left a nonzero residual; the class is outside the span."""


class PoleAtOneError(KflagError):
    """A localization sum has a pole at t = 1; the class is not integrable."""


class IntegrityError(KflagError):
    """Two independent computation routes disagree, or internal data is corrupt."""

