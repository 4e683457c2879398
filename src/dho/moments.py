"""Closed-form radial expectation values, recurrence/reflection identities,
and generalized Heisenberg products.

The returned value always comes from the all-positive finite sum (stable in
log space at any n_r); the algebraically identical terminating-hypergeometric
form (an alternating 3F2 sum) is the paper's identity that validate compares
against it.
"""

from __future__ import annotations

import math

import numpy as np

from . import oracle, specfun, states
from .errors import DomainError
from .specfun import PolySpec
from .states import HyperState, Space


def _require_exists(state: HyperState, k: float) -> None:
    if not k > -state.spec.dim - 2 * state.l:
        raise DomainError(
            f"<r^k> needs k > -D - 2l = {-state.spec.dim - 2 * state.l}, got k={k}")


def _3f2_parameters(state: HyperState, k: float) -> tuple:
    return (-state.n_r, -k / 2.0, k / 2.0 + 1.0, state.l + state.spec.dim / 2.0, 1.0)


def moment_3f2_form(state: HyperState, k: float) -> float:
    """omega^(-k/2) Gamma(l+(D+k)/2)/Gamma(l+D/2) 3F2(-n_r,-k/2,k/2+1; l+D/2,1; 1)."""
    from scipy.special import gammaln

    _require_exists(state, k)
    D, l = state.spec.dim, state.l
    f = specfun.hyp_3F2_unit(*_3f2_parameters(state, k))
    lg = gammaln(l + (D + k) / 2.0) - gammaln(l + D / 2.0)
    return state.spec.omega ** (-k / 2.0) * math.exp(lg) * f


def _moment_finite_sum(state: HyperState, k: float) -> float:
    """All-positive finite-sum form, accumulated in log space."""
    from scipy.special import gammaln

    D, l, nr = state.spec.dim, state.l, state.n_r
    A = l + (D + k) / 2.0
    logs = []
    for i in range(nr + 1):
        lb, sg = specfun.log_abs_binomial(k / 2.0, nr - i)
        if sg == 0.0:
            continue
        logs.append(2.0 * lb + gammaln(A + i) - gammaln(i + 1.0))
    if not logs:
        return 0.0
    mx = max(logs)
    s = math.fsum(math.exp(v - mx) for v in logs)
    log_pref = gammaln(nr + 1.0) - gammaln(nr + l + D / 2.0)
    return state.spec.omega ** (-k / 2.0) * math.exp(log_pref + mx) * s


def radial_moment(state: HyperState, k: float, space: Space = Space.POSITION) -> float:
    """<r^k> (or <p^k> = omega^k <r^k>) for the state; requires k > -D - 2l."""
    _require_exists(state, k)
    value = _moment_finite_sum(state, k)
    if space is Space.MOMENTUM:
        value *= state.spec.omega ** k
    return value


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
    """<r^k><p^k>; independent of the oscillator strength."""
    rk = radial_moment(state, k)
    return state.spec.omega ** k * rk * rk


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
    rule = oracle.gauss_rule("laguerre", nr + 2, alpha + k / 2.0)
    spec = PolySpec("laguerre", nr, alpha, "orthonormal")

    def log_g(x):
        m, s = specfun.eval_poly_scaled(spec, x)
        with np.errstate(divide="ignore"):
            return 2.0 * (np.log(np.abs(m)) + s)

    val = rule.integrate_log(log_g)
    omega = state.spec.omega
    out = omega ** (-k / 2.0) * val
    if space is Space.MOMENTUM:
        out *= omega ** k
    return out


def radial_density_integral(state: HyperState, space: Space, g,
                            tol: float | None = None) -> oracle.IntegralEstimate:
    """int_0^inf g(ln rho(r), ln r) dr by QUADPACK, split at the radial nodes.

    rho is the state's radial density in the space; where it vanishes (r <= 0
    or ln rho = -inf) the integrand is 0 and g is not called.
    """
    w = state.spec.omega if space is Space.POSITION else 1.0 / state.spec.omega
    spec = PolySpec("laguerre", state.n_r, state.alpha, "orthonormal")
    roots = np.sqrt(specfun.poly_roots(spec) / w) if state.n_r > 0 else np.array([])

    def f(r):
        if r <= 0.0:
            return 0.0
        lg = float(states.log_radial_density(state, space, np.array([r]))[0])
        return 0.0 if lg == -math.inf else g(lg, math.log(r))

    return oracle.integrate_adaptive(f, 0.0, math.inf, singular_points=roots, tol=tol)


def oracle_radial_moment_adaptive(state: HyperState, k: float,
                                  space: Space = Space.POSITION,
                                  tol: float | None = None) -> oracle.IntegralEstimate:
    """<r^k> = int r^k rho(r) r^(D-1) dr via the adaptive engine, in r itself."""
    _require_exists(state, k)
    D = state.spec.dim
    return radial_density_integral(
        state, space, lambda lg, lr: math.exp(lg + (k + D - 1.0) * lr), tol)
