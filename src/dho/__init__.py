"""Dispersion and entropy measures of D-dimensional harmonic oscillator states.

Three engines cover every quantity: closed forms (hypergeometric sums, root
sums, linearizations), a high-precision quadrature oracle, and the Rydberg /
high-dimension asymptotics, with uncertainty-relation checkers on top.
"""

from .errors import (ConvergenceError, DhoError, DomainError, ParseError,
                     UnsupportedError)
from .states import (CartesianState, HyperState, OscillatorSpec, Space, energy,
                     parse_state, state_to_dict)

__version__ = "0.1.0"

__all__ = [
    "CartesianState", "HyperState", "OscillatorSpec", "Space",
    "energy", "parse_state", "state_to_dict",
    "DhoError", "DomainError", "UnsupportedError", "ParseError",
    "ConvergenceError",
    "__version__",
]
