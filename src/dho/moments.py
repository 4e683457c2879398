"""Closed-form radial expectation values, recurrence/reflection identities,
and generalized Heisenberg products.

The returned value always comes from the all-positive finite sum (stable in
log space at any n_r); the algebraically identical terminating-hypergeometric
form (an alternating 3F2 sum) is the paper's identity that validate compares
against it.

Both engines' moments scale as <r^k> = omega^(-k/2) <r^k>_(omega=1), so
_MOMENT_CACHE keeps the omega-free logarithm each engine computes (keyed on
D, l, n_r and k, or on n_r, alpha and k) and the omega factor is added in the
exponent on each call: a moment that leaves the float range through omega
alone is refused as before, and a cached value has the bits of a fresh one.
"""

from __future__ import annotations

import math

import numpy as np

from . import oracle, specfun, states
from .errors import DomainError, refuse_overflow
from .specfun import PolySpec
from .states import HyperState, Space


def _require_exists(state: HyperState, k: float) -> None:
    if not k > -state.spec.dim - 2 * state.l:
        raise DomainError(
            f"<r^k> needs k > -D - 2l = {-state.spec.dim - 2 * state.l}, got k={k}")


def _3f2_parameters(state: HyperState, k: float) -> tuple:
    """(numerators, denominators) of the moment's terminating 3F2(1)."""
    return (-state.n_r, -k / 2.0, k / 2.0 + 1.0), (state.l + state.spec.dim / 2.0, 1.0)


def moment_3f2_form(state: HyperState, k: float) -> float:
    """omega^(-k/2) Gamma(l+(D+k)/2)/Gamma(l+D/2) 3F2(-n_r,-k/2,k/2+1; l+D/2,1; 1)."""
    from scipy.special import gammaln

    _require_exists(state, k)
    D, l = state.spec.dim, state.l
    f = math.fsum(specfun.hyp_unit_terms(*_3f2_parameters(state, k)))
    lg = gammaln(l + (D + k) / 2.0) - gammaln(l + D / 2.0)
    return state.spec.omega ** (-k / 2.0) * math.exp(lg) * f


def _log_omega_factor(state: HyperState, k: float, space: Space) -> float:
    """ln of the oscillator-strength factor: omega^(-k/2) for <r^k>, omega^(k/2)
    for <p^k> = omega^k <r^k>; it is folded into the exponent, since the
    factor or the omega-free moment can leave the float range on its own."""
    return (k / 2.0 if space is Space.MOMENTUM else -k / 2.0) * math.log(state.spec.omega)


# The omega-free log parts of both engines' moments, keyed on what sets them:
# validate --preset full asks for 3357 distinct finite sums and 1485 distinct
# Gauss-rule sums.
_MOMENT_CACHE = oracle.BoundedCache(8192)


def _moment_finite_sum(state: HyperState, k: float,
                       space: Space = Space.POSITION) -> float:
    """All-positive finite-sum form, accumulated in log space."""
    D, l, nr = state.spec.dim, state.l, state.n_r
    log_scale, s = _MOMENT_CACHE.get_or_compute(
        ("sum", D, l, nr, float(k)), lambda: _finite_sum_parts(D, l, nr, k))
    return math.exp(log_scale + _log_omega_factor(state, k, space)) * s


def _finite_sum_parts(D: float, l: int, nr: int, k: float) -> tuple[float, float]:
    """(ln of prefactor times largest term, sum of the terms over the largest)
    of the omega = 1 finite sum."""
    from scipy.special import gammaln

    A = l + (D + k) / 2.0
    logs = []
    for i in range(nr + 1):
        lb, sg = specfun.log_abs_binomial(k / 2.0, nr - i)
        if sg == 0.0:
            continue
        logs.append(2.0 * lb + gammaln(A + i) - gammaln(i + 1.0))
    mx = max(logs)
    s = math.fsum(math.exp(v - mx) for v in logs)
    log_pref = gammaln(nr + 1.0) - gammaln(nr + l + D / 2.0)
    return log_pref + mx, s


def radial_moment(state: HyperState, k: float, space: Space = Space.POSITION) -> float:
    """<r^k> (or <p^k> = omega^k <r^k>) for the state; requires k > -D - 2l."""
    _require_exists(state, k)
    with refuse_overflow(f"<r^k> at k = {k!r}"):
        return _moment_finite_sum(state, k, space)


def recurrence_step(state: HyperState, k: float, m_k: float, m_km2: float) -> float:
    """<r^(k+2)> from <r^k> and <r^(k-2)> by the three-term ladder.

    The k-coefficient is k^2/4 - (l + D/2 - 1)^2, equivalently
    (k^2 - D^2)/4 - (l-1)(l+D-1); the variant with (l+k-1) in the last factor
    reproduces neither the closed moments nor the <r^-4> special value except
    at l = 1 or k = D.
    """
    if k == -2:
        raise DomainError("recurrence divides by (k+2); k = -2 is excluded")
    D, l, omega = state.spec.dim, state.l, state.spec.omega
    n = state.n
    alpha = l + D / 2.0 - 1.0
    num = ((k + 1.0) * omega * (2 * n + D) * m_k
           + k * (k * k / 4.0 - alpha * alpha) * m_km2)
    return num / ((k + 2.0) * omega * omega)


def reflection_moment(state: HyperState, k: float) -> float:
    """<r^(-k-2)> from <r^k>:

        <r^(-k-2)> = omega^(k+1) Gamma(l+(D-k)/2-1)/Gamma(l+(D+k)/2) <r^k>.

    Both exponents must satisfy the existence condition and the Gamma argument
    must be positive.
    """
    from scipy.special import gammaln

    _require_exists(state, k)
    _require_exists(state, -k - 2.0)
    D, l = state.spec.dim, state.l
    arg = l + (D - k) / 2.0 - 1.0
    if arg <= 0:
        raise DomainError(f"reflection Gamma argument {arg} <= 0")
    lg = gammaln(arg) - gammaln(l + (D + k) / 2.0)
    return state.spec.omega ** (k + 1.0) * math.exp(lg) * radial_moment(state, k)


def reflection_moment_rminus3(state: HyperState) -> float:
    """<r^-3> = 4 omega^2 <r> / ((D-1+2l)(D-3+2l)); needs D + 2l > 3."""
    D, l = state.spec.dim, state.l
    if D - 3 + 2 * l <= 0:
        raise DomainError("<r^-3> requires D + 2l > 3")
    return (4.0 * state.spec.omega ** 2 * radial_moment(state, 1.0)
            / ((D - 1.0 + 2 * l) * (D - 3.0 + 2 * l)))


def heisenberg_product(state: HyperState, k: float) -> float:
    """<r^k><p^k>; independent of the oscillator strength, so taken at omega = 1."""
    rk = radial_moment(states.at_unit_omega(state), k)
    return rk * rk


# ---------------------------------------------------------------------------
# quadrature oracle for moments


def oracle_radial_moment(state: HyperState, k: float,
                         space: Space = Space.POSITION) -> float:
    """<r^k> by Gauss quadrature on the radial density (independent of the
    hypergeometric algebra): substituting x = omega r^2 the integrand is the
    Laguerre weight of parameter alpha + k/2 times the squared orthonormal
    polynomial."""
    _require_exists(state, k)
    nr, alpha = state.n_r, state.alpha
    log_moment = _MOMENT_CACHE.get_or_compute(
        ("gauss", nr, alpha, float(k)), lambda: _log_gauss_moment(nr, alpha, k))
    with refuse_overflow(f"<r^k> at k = {k!r}"):
        return math.exp(log_moment + _log_omega_factor(state, k, space))


def _log_gauss_moment(nr: int, alpha: float, k: float) -> float:
    """ln <r^k> at omega = 1 by the Gauss-Laguerre rule of parameter alpha + k/2."""
    rule = oracle.gauss_rule("laguerre", nr + 2, alpha + k / 2.0)
    spec = PolySpec("laguerre", nr, alpha)

    def log_g(x):
        m, s = specfun.eval_poly_scaled(spec, x)
        with np.errstate(divide="ignore"):
            return 2.0 * (np.log(np.abs(m)) + s)

    return rule.log_integral(log_g)
