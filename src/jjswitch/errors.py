"""Exception types shared across the package, each with its CLI exit code:

2: JJSwitchError, ConfigError, UnimodalSequenceError, DisjointSupportError.
3: PhysicsDomainError, NoBracketError.  4: ToleranceError, StepSizeError.
"""


class JJSwitchError(Exception):
    """Base class for all package errors."""
    exit_code = 2


class ConfigError(JJSwitchError):
    """Invalid configuration file or parameter combination."""


class PhysicsDomainError(JJSwitchError):
    """Inputs outside the physically valid domain."""
    exit_code = 3


class ToleranceError(JJSwitchError):
    """A numerical routine failed to meet its accuracy target."""
    exit_code = 4


class NoBracketError(PhysicsDomainError):
    """Root finding failed because the target is outside the attainable range."""


class StepSizeError(ToleranceError):
    """Integrator step increased the norm beyond tolerance (dt too large)."""


class UnimodalSequenceError(JJSwitchError):
    """Branch classification failed: switching currents show a single mode."""


class DisjointSupportError(JJSwitchError):
    """Histogram and reference distribution share no current range."""
