"""Stochastic quantum-jump simulator of Josephson-junction switching currents.

The package is organized around the measurement it models: a junction biased
by a repeated current ramp escapes the washboard well at a random switching
current; coupling to a microscopic two-level defect splits the switching
current into two branches between which the system jumps like a random
telegraph.
"""

from .physics import BiasDrive, JunctionParams
from .hamiltonian import TlsParams

__all__ = ["BiasDrive", "JunctionParams", "TlsParams"]
__version__ = "0.1.0"
