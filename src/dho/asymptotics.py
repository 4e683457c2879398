"""Rydberg (n_r -> inf) and high-dimension (D -> inf) closed asymptotics.

Every result returns an AsymptoticValue carrying an order note describing the
neglected terms, so callers can never mistake an asymptotic number for an
exact one.  The Bessel-tail constant of the large-q Renyi regime is integrated
zero-to-zero with an analytic envelope correction and memoized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, jv

from . import infomeasures, oracle, specfun
from .errors import DomainError, UnsupportedError
from .states import HyperState, Space

REGIME_RYDBERG = "rydberg"
REGIME_HIGH_DIM = "high_dim"

HIGH_DIM_COMFORT = 50  # below this the order notes flag the extrapolation


@dataclass(frozen=True)
class RydbergLimit:
    """Limit s of l/n_r along the excitation ladder; s = 0 for bounded l."""

    s: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.s < 1.0:
            raise DomainError("s must lie in [0, 1)")

    @property
    def a(self) -> float:
        return 2.0 * (1.0 + math.sqrt(1.0 - self.s * self.s)) / (1.0 - self.s)


@dataclass(frozen=True)
class AsymptoticValue:
    value: float
    regime: str
    order_note: str


def characteristic_length(D: float, omega: float) -> float:
    """Pseudo-classical orbit radius sqrt(D / (2 omega))."""
    return math.sqrt(D / (2.0 * omega))


# ---------------------------------------------------------------------------
# Rydberg dispersion


def rydberg_moment(k: float, n_r: int, limit: RydbergLimit = RydbergLimit(),
                   omega: float = 1.0, space: Space = Space.POSITION) -> AsymptoticValue:
    """Leading weak-* moment: (a n_r)^(k/2) 2F1(-k/2, 1/2; 1; z) omega^(-k/2).

    Valid for k > -1; the extension below is an open problem and raises.
    """
    if k <= -1.0:
        raise UnsupportedError("Rydberg moment asymptotics hold for k > -1 only")
    if limit.s == 0.0:
        lg = gammaln((1.0 + k) / 2.0) - gammaln(1.0 + k / 2.0)
        value = ((4.0 * n_r) ** (k / 2.0) * math.exp(lg) / math.sqrt(math.pi)
                 * omega ** (-k / 2.0))
    else:
        from scipy.special import hyp2f1

        s = limit.s
        # cancellation-free form of (2/s^2)(-1 + s^2 + sqrt(1 - s^2))
        root = math.sqrt(1.0 - s * s)
        z = 2.0 * root / (1.0 + root)
        f = float(hyp2f1(-k / 2.0, 0.5, 1.0, z))
        value = (limit.a * n_r) ** (k / 2.0) * f * omega ** (-k / 2.0)
    if space is Space.MOMENTUM:
        value *= omega ** k
    return AsymptoticValue(value, REGIME_RYDBERG,
                           "leading term only; relative error O(1/n_r)")


def rydberg_heisenberg(k: float, n_r: int) -> AsymptoticValue:
    """(4 n_r)^k / pi * [Gamma((1+k)/2) / Gamma(1+k/2)]^2; k = 2 gives 4 n_r^2."""
    if k <= -1.0:
        raise UnsupportedError("Rydberg product asymptotics hold for k > -1 only")
    lg = gammaln((1.0 + k) / 2.0) - gammaln(1.0 + k / 2.0)
    value = (4.0 * n_r) ** k / math.pi * math.exp(2.0 * lg)
    return AsymptoticValue(value, REGIME_RYDBERG,
                           "leading term only; relative error O(1/n_r)")


# ---------------------------------------------------------------------------
# high-D dispersion


def highdim_moment(k: float, D: int, omega: float, n_r: int = 0, l: int = 0,
                   form: str = "refined", space: Space = Space.POSITION) -> AsymptoticValue:
    """Parameter-asymptotic moment at fixed l.

    form 'refined': sqrt(2 pi) e^-alpha alpha^(alpha + n_r + (k+1)/2) /
    Gamma(n_r + l + D/2) * omega^(-k/2); form 'leading': (D / (2 omega))^(k/2).
    """
    note = "parameter asymptotics, relative error O(1/D)"
    if D < HIGH_DIM_COMFORT:
        note += f"; D = {D} is below the comfortable range (>= {HIGH_DIM_COMFORT})"
    if form == "leading":
        value = (D / (2.0 * omega)) ** (k / 2.0)
    elif form == "refined":
        alpha = l + D / 2.0 - 1.0
        logv = (0.5 * math.log(2.0 * math.pi) - alpha
                + (alpha + n_r + (k + 1.0) / 2.0) * math.log(alpha)
                - gammaln(n_r + l + D / 2.0) - (k / 2.0) * math.log(omega))
        value = math.exp(logv)
    else:
        raise DomainError(f"unknown form {form!r}")
    if space is Space.MOMENTUM:
        value *= omega ** k
    return AsymptoticValue(value, REGIME_HIGH_DIM, note)


def highdim_heisenberg(k: float, D: int) -> AsymptoticValue:
    return AsymptoticValue((D / 2.0) ** k, REGIME_HIGH_DIM,
                           "leading term; relative error O(1/D)")


# ---------------------------------------------------------------------------
# Laguerre entropy asymptotics and Rydberg Shannon


def laguerre_entropy_asymptotics(n: int, alpha: float, beta: float = 0.0) -> float:
    """n -> inf value of the beta-shifted Laguerre entropy functional
    (the same sign convention as oracle.polynomial_entropy).

    At beta = 0 this reduces to -2n + (alpha+1) ln n - alpha - 2 + ln(2 pi).
    The alpha log-2 coefficient in the general bracket is -4(alpha+1); the
    printed -4(alpha-1) variant fails the beta = 0 reduction and the
    quadrature residual test by exactly 4 ln 2.
    """
    if alpha <= -1.0:
        raise DomainError("alpha must exceed -1")
    if n < 1:
        raise DomainError("asymptotics need n >= 1")
    ln_n = math.log(n)
    t1 = (2.0 ** (2 * beta + 2) * math.exp(gammaln(beta + 1.5) - gammaln(beta + 2.0))
          / math.sqrt(math.pi) * n ** (beta + 1.0))
    t2 = (2.0 ** (2 * beta) * (alpha + 1.0)
          * math.exp(gammaln(beta + 0.5) - gammaln(beta + 1.0))
          / math.sqrt(math.pi) * n ** beta * ln_n)
    bracket = (2.0 * (alpha + 1.0) * specfun.digamma(beta + 1.0)
               - (2.0 * alpha + 1.0) * specfun.digamma(beta + 0.5)
               - 2.0 * math.log(math.pi) - 4.0 * (alpha + 1.0) * math.log(2.0)
               + specfun.EULER_GAMMA + 4.0 + 2.0 * (alpha + 2.0 * beta)
               + 4.0 * alpha * beta)
    t3 = (2.0 ** (2 * beta - 1) * math.exp(gammaln(beta + 0.5) - gammaln(beta + 1.0))
          / math.sqrt(math.pi) * bracket * n ** beta)
    return -(t1 - t2 + t3)


def rydberg_shannon(state: HyperState, space: Space = Space.POSITION,
                    tol: float | None = None) -> AsymptoticValue:
    """(D/2) ln n_r + ln pi - 1 + angular entropy, -+ (D/2) ln omega."""
    D = state.spec.dim
    if state.n_r < 1:
        raise DomainError("Rydberg asymptotics need n_r >= 1")
    ey = infomeasures.angular_shannon(state, tol=tol)
    sign = -1.0 if space is Space.POSITION else 1.0
    value = ((D / 2.0) * math.log(state.n_r) + math.log(math.pi) - 1.0 + ey
             + sign * (D / 2.0) * math.log(state.spec.omega))
    return AsymptoticValue(value, REGIME_RYDBERG, "o(1) remainder")


# ---------------------------------------------------------------------------
# Rydberg Renyi: three-regime norm asymptotics


_BESSEL_CACHE = oracle.BoundedCache(32)  # benchmark workloads use up to 2 constants


def bessel_norm_constant(alpha: float, beta: float, q: float,
                         rtol: float = 1e-8) -> float:
    """C_B = 2 int_0^inf t^(2 beta + 1) |J_alpha(2t)|^(2q) dt.

    Panels run zero-to-zero (McMahon boundaries); the truncated tail is
    restored from the envelope mean of |cos|^(2q), which leaves a relative
    error of order T^(2 beta + 1 - q).
    """
    if 2.0 * beta + 2.0 - q >= 0.0:
        raise DomainError("Bessel norm integral diverges: need q > 2 beta + 2")
    return _BESSEL_CACHE.get_or_compute((float(alpha), float(beta), float(q), rtol),
                                        lambda: _bessel_norm_integral(alpha, beta, q, rtol))


def _bessel_norm_integral(alpha: float, beta: float, q: float, rtol: float) -> float:
    def f(t):
        return 2.0 * t ** (2.0 * beta + 1.0) * abs(jv(alpha, 2.0 * t)) ** (2.0 * q)

    mean_cos = math.exp(gammaln(q + 0.5) - gammaln(q + 1.0)) / math.sqrt(math.pi)
    p = 2.0 * beta + 1.0 - q

    def tail(T):
        return 2.0 * mean_cos * math.pi ** (-q) * T ** (p + 1.0) / (-(p + 1.0))

    def compute(npanel):
        zs = [(k + alpha / 2.0 - 0.25) * math.pi / 2.0 for k in range(1, npanel + 1)]
        zs = [z for z in zs if z > 0]
        total, _ = quad(f, 0.0, zs[0], limit=200)
        for a, b in zip(zs[:-1], zs[1:]):
            v, _ = quad(f, a, b, limit=50)
            total += v
        return total + tail(zs[-1])

    value = compute(512)
    for npanel in (1024, 2048, 4096):
        prev, value = value, compute(npanel)
        if abs(value - prev) <= rtol * abs(value):
            break
    return value


def _power_regime_constant(beta: float, q: float) -> float:
    """C(beta, q) of the small-q regime, with pole detection."""
    for arg in (beta + 1.0 - q / 2.0, 1.0 - q / 2.0, q + 0.5):
        if arg <= 0.0 and arg == math.floor(arg):
            raise DomainError(
                f"C(beta, q) hits a Gamma pole at argument {arg}; the published "
                "small-q regime does not cover this (beta, q)")
    num = (gammaln(beta + 1.0 - q / 2.0) + gammaln(1.0 - q / 2.0) + gammaln(q + 0.5))
    if beta + 1.0 - q / 2.0 <= 0 or 1.0 - q / 2.0 <= 0:
        raise DomainError(
            "C(beta, q) needs positive Gamma arguments; q >= 2 is outside the "
            "small-q regime")
    den = gammaln(beta + 2.0 - q) + gammaln(1.0 + q)
    return 2.0 ** (beta + 1.0) * math.pi ** (-(q + 0.5)) * math.exp(num - den)


def rydberg_norm_asymptotic(n_r: int, l: int, D: int, q: float) -> tuple[float, str]:
    """Asymptotic weighted Laguerre norm and the regime label that produced it."""
    if D <= 2:
        raise UnsupportedError("the three-regime norm asymptotics require D > 2")
    if q <= 0 or q == 1.0:
        raise DomainError("q must be positive and different from 1")
    q_star = D / (D - 1.0)
    alpha = l + D / 2.0 - 1.0
    beta = (1.0 - q) * (D / 2.0 - 1.0)
    if abs(q - q_star) <= 1e-12:
        value = (2.0 / (math.pi ** (q + 0.5) * n_r ** (q / 2.0))
                 * math.exp(gammaln(q + 0.5) - gammaln(q + 1.0)) * math.log(n_r))
        return value, "transition q = D/(D-1); O(1) inside the log neglected"
    if q < q_star:
        c = _power_regime_constant(beta, q)
        return c * (2.0 * n_r) ** ((1.0 - q) * D / 2.0), "small-q power regime"
    c = bessel_norm_constant(alpha, beta, q)
    return c * n_r ** ((q - 1.0) * D / 2.0 - q), "Bessel-constant regime"


def rydberg_renyi(state: HyperState, q: float, space: Space = Space.POSITION,
                  tol: float | None = None) -> AsymptoticValue:
    """-ln 2 + ln N_asymp / (1-q) + angular Renyi entropy, -+ (D/2) ln omega:
    radial_renyi with the weighted Laguerre norm replaced by its asymptote."""
    D = state.spec.dim
    if state.n_r < 1:
        raise DomainError("Rydberg asymptotics need n_r >= 1")
    norm, regime = rydberg_norm_asymptotic(state.n_r, state.l, D, q)
    ang = infomeasures.angular_renyi(state, q, tol=tol)
    sign = -1.0 if space is Space.POSITION else 1.0
    value = (-math.log(2.0) + math.log(norm) / (1.0 - q) + ang
             + sign * (D / 2.0) * math.log(state.spec.omega))
    return AsymptoticValue(value, REGIME_RYDBERG,
                           f"{regime}; o(1) remainder in the radial part")


# ---------------------------------------------------------------------------
# high-D entropies

HIGHDIM_SHANNON_MODES = ("leading", "as_published")


def highdim_shannon(state: HyperState, space: Space = Space.POSITION,
                    mode: str = "leading") -> AsymptoticValue:
    """High-D Shannon entropy.

    mode 'leading' reports (D/2) ln(e pi / omega^{+-1}), the q -> 1 limit of
    the high-D Renyi result, which matches the exact ground value for every D.
    mode 'as_published' reports the (1/2) D ln D form; see the scaling report
    produced by `dho validate` before using it.
    """
    D = state.spec.dim
    omega = state.spec.omega
    sign = -1.0 if space is Space.POSITION else 1.0
    note_suffix = "" if D >= HIGH_DIM_COMFORT else f"; D = {D} is small for the regime"
    if mode == "leading":
        value = (D / 2.0) * (1.0 + math.log(math.pi) + sign * math.log(omega))
        return AsymptoticValue(value, REGIME_HIGH_DIM,
                               "O(log D) remainder at fixed quantum numbers" + note_suffix)
    if mode == "as_published":
        value = 0.5 * D * math.log(D) + sign * (D / 2.0) * math.log(omega)
        return AsymptoticValue(value, REGIME_HIGH_DIM,
                               "published radial-scale form, O(D) remainder; the "
                               "uniform-angular term cancels this growth (see "
                               "scaling report)" + note_suffix)
    raise DomainError(f"mode must be one of {HIGHDIM_SHANNON_MODES}")


def highdim_shannon_components(state: HyperState) -> dict:
    """The published component asymptotics, for the scaling report."""
    D, l, nr = state.spec.dim, state.l, state.n_r
    a2 = (D / 2.0 - l * math.log(D / 2.0) - l * (nr + l - 0.5) * 2.0 / D
          + math.log(math.exp(2 * nr + l) / 2.0))
    radial_entropy = 0.5 * D * math.log(D) - 0.5 * (math.log(2.0) + 1.0) * D
    swave_angular = infomeasures.angular_shannon_swave(D)
    return {
        "ladder_constant": a2,
        "radial_entropy_kernel": radial_entropy,
        "radial_entropy_note": "O(log D) remainder",
        "angular_uniform": swave_angular,
        "angular_note": "angular kernels add O(log D) at fixed mu",
    }


def _log_etilde(state: HyperState) -> float:
    """ln of the Gegenbauer parameter product; factors with mu_j = mu_{j+1} are 1."""
    D = state.spec.dim
    total = 0.0
    mu = [abs(state.mu[i]) if i == len(state.mu) - 1 else state.mu[i]
          for i in range(len(state.mu))]
    for j in range(1, D - 1):
        mj, mj1 = mu[j - 1], mu[j]
        if mj == mj1:
            continue
        aj = (D - j - 1) / 2.0
        total += (2.0 * (mj - mj1) * math.log(aj + mj1)
                  + gammaln(2 * aj + 2 * mj1) - gammaln(2 * aj + mj1 + mj)
                  + gammaln(aj + mj1) - gammaln(aj + mj))
    return total


def _log_mtilde(state: HyperState, q: float) -> float:
    """ln of the degree product; the pi powers of equal-mu factors cancel."""
    D = state.spec.dim
    mu = [abs(state.mu[i]) if i == len(state.mu) - 1 else state.mu[i]
          for i in range(len(state.mu))]
    nonzero = [(mu[j - 1] - mu[j]) for j in range(1, D - 1) if mu[j - 1] != mu[j]]
    total = q * (state.l - abs(state.m)) * math.log(4.0)
    total -= 0.5 * len(nonzero) * math.log(math.pi)
    for d in nonzero:
        total += gammaln(q * d + 0.5) - q * gammaln(d + 1.0)
    return total


def highdim_renyi(state: HyperState, q: float, space: Space = Space.POSITION) -> AsymptoticValue:
    """High-D Renyi entropy with the n_r log-D correction and constant term."""
    if q <= 0 or q == 1.0:
        raise DomainError("q must be positive and different from 1")
    D, nr, l = state.spec.dim, state.n_r, state.l
    omega = state.spec.omega
    lead = (D / 2.0) * math.log(q ** (1.0 / (q - 1.0)) * math.pi)
    sub = (q * nr / (1.0 - q)) * math.log(D)
    sign = -1.0 if space is Space.POSITION else 1.0
    if space is Space.MOMENTUM:
        value = lead + sub + (D / 2.0) * math.log(omega)
        return AsymptoticValue(value, REGIME_HIGH_DIM, "O(log D) remainder")
    log_chat = ((q - 1.0) * math.log(2.0) - q * gammaln(nr + 1.0)
                - q * (2 * nr + l) * math.log(q)
                + 2.0 * nr * q * math.log(abs(q - 1.0)))
    const = (q * _log_etilde(state) + _log_mtilde(state, q) + log_chat
             - q * nr * math.log(2.0)) / (1.0 - q)
    value = lead + sub + const + sign * (D / 2.0) * math.log(omega)
    return AsymptoticValue(value, REGIME_HIGH_DIM, "O(log D) remainder")


def highdim_angular_renyi_swave(D: int) -> AsymptoticValue:
    """ln(2 pi^(D/2)/Gamma(D/2)), the uniform-density value, for any order."""
    return AsymptoticValue(infomeasures.angular_shannon_swave(D), REGIME_HIGH_DIM,
                           "exact for S-wave states at every D")


def highdim_angular_renyi_circular(D: int, n: int, q: float) -> AsymptoticValue:
    """Angular Renyi entropy of the circular state (all mu = n - 1)."""
    value = (-0.5 * D * math.log(D) + 0.5 * D * math.log(2.0 * math.e * math.pi)
             + 0.5 * math.log(D)
             + (gammaln((n - 1.0) * q + 1.0) - q * gammaln(float(n))) / (1.0 - q))
    return AsymptoticValue(value, REGIME_HIGH_DIM, "O(1) remainder")
