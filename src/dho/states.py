"""Oscillator state model: states, energies, density scales, wire format.

Hyperspherical states carry (n_r, mu_1 >= ... >= |mu_{D-1}|); Cartesian states
carry per-axis degrees (n_1..n_D).  `width` is the scale that carries omega
into a density: omega in position space, 1/omega in momentum space, so the
Cartesian Gaussian width parameter equals omega (see README for the
discrepancy note on the published exponent).  The densities themselves are
products of orthonormal members, listed by `infomeasures._factors` and
evaluated by `infomeasures._factor_density`.  `log_radial_density`, the radial
factor at one point, has no caller in the package; the benchmark's tracer
names it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import specfun
from .errors import DomainError, ParseError
from .specfun import PolySpec


class Space(Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


def _integer(value, name: str) -> int:
    """value as an int; a non-integral number is refused, never truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class OscillatorSpec:
    """Potential strength omega and dimensionality D (atomic units)."""

    omega: float
    dim: int

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise DomainError("omega must be positive and finite")
        if self.dim < 1 or int(self.dim) != self.dim:
            raise DomainError("dim must be an integer >= 1")


@dataclass(frozen=True)
class HyperState:
    """Hyperspherical state (n_r, mu); requires D >= 2.

    mu has D-1 entries with mu_1 >= mu_2 >= ... >= |mu_{D-1}|; only the last
    entry may be negative.
    """

    spec: OscillatorSpec
    n_r: int
    mu: tuple[int, ...]

    def __post_init__(self):
        D = self.spec.dim
        if D < 2:
            raise DomainError("hyperspherical states require dim >= 2")
        if self.n_r < 0 or int(self.n_r) != self.n_r:
            raise DomainError("n_r must be a nonnegative integer")
        mu = tuple(_integer(v, "mu") for v in self.mu)
        object.__setattr__(self, "mu", mu)
        if len(mu) != D - 1:
            raise DomainError(f"mu must have D-1 = {D - 1} entries")
        if D >= 3:
            if any(v < 0 for v in mu[:-1]):
                raise DomainError("only the last mu entry may be negative")
            chain = list(mu[:-1]) + [abs(mu[-1])]
            if any(chain[i] < chain[i + 1] for i in range(len(chain) - 1)):
                raise DomainError("mu must be non-increasing down to |m|")

    @property
    def l(self) -> int:
        # for D = 2 the single angular label is m; radial formulas use |m|
        return self.mu[0] if self.spec.dim >= 3 else abs(self.mu[0])

    @property
    def m(self) -> int:
        return self.mu[-1]

    @property
    def n(self) -> int:
        return 2 * self.n_r + self.l

    @property
    def alpha(self) -> float:
        return self.l + self.spec.dim / 2.0 - 1.0


@dataclass(frozen=True)
class CartesianState:
    """Cartesian state (n_1..n_D); the only state type for D = 1."""

    spec: OscillatorSpec
    n: tuple[int, ...]

    def __post_init__(self):
        n = tuple(_integer(v, "n") for v in self.n)
        object.__setattr__(self, "n", n)
        if len(n) != self.spec.dim:
            raise DomainError("n must have one entry per dimension")
        if any(v < 0 for v in n):
            raise DomainError("quantum numbers must be nonnegative")

    @property
    def total(self) -> int:
        return sum(self.n)

    @property
    def odd_count(self) -> int:
        return sum(v % 2 for v in self.n)


State = HyperState | CartesianState


def at_unit_omega(state: State) -> State:
    """The state with omega = 1, on which omega-free products are evaluated:
    their omega-scaled factors can leave the float range on their own."""
    return replace(state, spec=OscillatorSpec(1.0, state.spec.dim))


def energy(state: State) -> float:
    """(N + D/2) omega, or equivalently (2 n_r + l + D/2) omega."""
    spec = state.spec
    if isinstance(state, CartesianState):
        return (state.total + spec.dim / 2.0) * spec.omega
    return (2 * state.n_r + state.l + spec.dim / 2.0) * spec.omega


# ---------------------------------------------------------------------------
# densities


def width(state: State, space: Space) -> float:
    """Scale carrying the omega dependence of a density: omega in position
    space, 1/omega in momentum space (x = width * r^2 inside the radial
    density, t = sqrt(width) * x along a Cartesian axis)."""
    omega = state.spec.omega
    return omega if space is Space.POSITION else 1.0 / omega


def log_radial_density(state: HyperState, space: Space):
    """r -> log of the radial density factor at one float r (Jacobian
    r^(D-1) not included).

    The Laguerre recurrence coefficients are built once, here, for callers
    that ask for one point at a time.  Logarithms come from numpy, as in the
    Gauss-rule and panel kernels, since numpy's log and math.log can differ
    in the last bit.
    """
    w = width(state, space)
    l = state.l
    evaluate = specfun.scaled_evaluator(PolySpec("laguerre", state.n_r, state.alpha))
    const = math.log(2.0) + (state.spec.dim / 2.0) * math.log(w)

    def log_density(r: float) -> float:
        if r < 0:
            raise DomainError("radius must be nonnegative")
        x = w * r * r
        m, s = evaluate(x)
        log_l2 = 2.0 * ((float(np.log(abs(m))) if m != 0.0 else -math.inf) + s)
        if x > 0:
            return const + l * float(np.log(x)) - x + log_l2
        return const + log_l2 if l == 0 else const + l * -math.inf - x + log_l2

    return log_density


def angular_weight_exponent(state: HyperState, j: int) -> float:
    """alpha_j = (D - j - 1)/2, the solid-angle weight exponent for axis j."""
    D = state.spec.dim
    if not 1 <= j <= D - 2:
        raise DomainError(f"angular index must lie in 1..{D - 2}")
    return (D - j - 1) / 2.0


def _mu_abs(state: HyperState, idx: int) -> int:
    """mu_idx with the sign of the last component dropped (1-based idx)."""
    v = state.mu[idx - 1]
    return abs(v) if idx == len(state.mu) else v


def angular_factor_params(state: HyperState, j: int) -> tuple[float, int, int]:
    """(alpha_j, degree mu_j - mu_{j+1}, exponent mu_{j+1}) for factor j."""
    aj = angular_weight_exponent(state, j)
    mj1 = _mu_abs(state, j + 1)
    return aj, _mu_abs(state, j) - mj1, mj1


# ---------------------------------------------------------------------------
# serialization (exact wire format shared with the CLI)


def state_to_dict(state: State) -> dict:
    if isinstance(state, HyperState):
        return {"kind": "hyper", "D": state.spec.dim, "omega": state.spec.omega,
                "nr": state.n_r, "mu": list(state.mu)}
    return {"kind": "cartesian", "omega": state.spec.omega, "n": list(state.n)}


def _wire_number(value, name: str):
    """A JSON number as given; a bool or a string is refused, never coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"state field {name!r} must be a number, got {value!r}")
    return value


def _wire_numbers(value, name: str) -> tuple:
    """A JSON list of numbers as a tuple; any other value is refused."""
    if not isinstance(value, list):
        raise ParseError(f"state field {name!r} must be a list of numbers, got {value!r}")
    return tuple(_wire_number(v, name) for v in value)


def state_from_dict(data: dict) -> State:
    try:
        kind = data["kind"]
    except (TypeError, KeyError) as exc:
        raise ParseError("state object needs a 'kind' field") from exc
    try:
        if kind == "hyper":
            spec = OscillatorSpec(float(_wire_number(data["omega"], "omega")),
                                  _integer(_wire_number(data["D"], "D"), "D"))
            return HyperState(spec, _integer(_wire_number(data["nr"], "nr"), "nr"),
                              _wire_numbers(data["mu"], "mu"))
        if kind == "cartesian":
            n = _wire_numbers(data["n"], "n")
            spec = OscillatorSpec(float(_wire_number(data["omega"], "omega")), len(n))
            return CartesianState(spec, n)
    except (DomainError, ParseError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {kind!r} state: {exc}") from exc
    raise ParseError(f"unknown state kind {kind!r}")


def parse_state(text: str) -> State:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"state is not valid JSON: {exc}") from exc
    return state_from_dict(data)
