"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2, physics
domain violations exit 3, numerical tolerance failures exit 4.
"""


class JJSwitchError(Exception):
    """Base class for all package errors."""


class ConfigError(JJSwitchError):
    """Invalid configuration file or parameter combination (exit code 2)."""


class PhysicsDomainError(JJSwitchError):
    """Inputs outside the physically valid domain (exit code 3)."""


class ToleranceError(JJSwitchError):
    """A numerical routine failed to meet its accuracy target (exit code 4)."""


class NoBracketError(PhysicsDomainError):
    """Root finding failed because the target is outside the attainable range."""


class StepSizeError(ToleranceError):
    """Integrator step increased the norm beyond tolerance (dt too large)."""


class UnimodalSequenceError(JJSwitchError):
    """Branch classification failed: switching currents show a single mode."""


class DisjointSupportError(JJSwitchError):
    """Histogram and reference distribution share no current range."""
