"""Fisher information, Shannon / Renyi entropies, and disequilibrium.

Cartesian and hyperspherical Renyi and Shannon values share two oracle
kernels: `lq_integral` (exact Gauss rules for integer q, so integer-order Renyi
values are tagged `closed`) and `polynomial_entropy`.  The Shannon
decompositions are exact identities whose entropy kernels are numeric (no
closed forms exist), so Shannon values carry the `oracle` tag.  The paper's
Cartesian forms (Hermite-root sums, finite Lauricella sum) lose digits in
float64 from moderate degree; `dho validate` compares them with the served
values.  Every served route has an independent density-integral oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import oracle, specfun, states
from .errors import DomainError, UnsupportedError
from .moments import oracle_radial_moment, radial_density_integral, radial_moment
from .specfun import EULER_GAMMA, PolySpec
from .states import CartesianState, HyperState, Space

ENGINE_CLOSED = "closed"
ENGINE_ORACLE = "oracle"


@dataclass(frozen=True)
class RenyiOrder:
    """Renyi order q > 0, q != 1; conjugate defined for q > 1/2."""

    q: float

    def __post_init__(self):
        if not self.q > 0 or self.q == 1.0:
            raise DomainError("Renyi order requires q > 0, q != 1")

    @property
    def conjugate(self) -> float:
        if not self.q > 0.5:
            raise DomainError("conjugate order needs q > 1/2")
        return self.q / (2.0 * self.q - 1.0)

    def beta(self, D: float) -> float:
        return (self.q - 1.0) * (1.0 - D / 2.0)


@dataclass(frozen=True)
class MeasureValue:
    value: float
    space: Space
    engine: str
    error_estimate: float | None = None


def _width(omega: float, space: Space) -> float:
    return omega if space is Space.POSITION else 1.0 / omega


# ---------------------------------------------------------------------------
# Fisher information


def fisher(state: HyperState, space: Space = Space.POSITION,
           engine: str = ENGINE_CLOSED) -> MeasureValue:
    """4 (2 n_r + l - |m| + D/2) omega^(+-1); the oracle engine takes the moment
    combination 4<p^2> - 2|m|(2l + D - 2)<r^-2> on quadrature moments."""
    D = state.spec.dim
    w = _width(state.spec.omega, space)
    if engine == ENGINE_CLOSED:
        return MeasureValue(4.0 * (2 * state.n_r + state.l - abs(state.m) + D / 2.0) * w,
                            space, ENGINE_CLOSED)
    if engine == ENGINE_ORACLE:
        return MeasureValue(_fisher_from_moments(state, space, oracle_engine=True),
                            space, ENGINE_ORACLE, error_estimate=1e-12)
    raise DomainError(f"unknown engine {engine!r}")


def _fisher_from_moments(state: HyperState, space: Space, oracle_engine: bool) -> float:
    D, l, m = state.spec.dim, state.l, abs(state.m)
    mom = oracle_radial_moment if oracle_engine else radial_moment
    other = Space.MOMENTUM if space is Space.POSITION else Space.POSITION
    total = 4.0 * mom(state, 2.0, other)
    if m != 0:  # the |m| = 0 term vanishes before <r^-2> existence matters
        total -= 2.0 * m * (2 * l + D - 2) * mom(state, -2.0, space)
    return total


# ---------------------------------------------------------------------------
# Hermite entropy: the paper's root-sum form, compared in validate


def hermite_entropy(n: int) -> float:
    """E(H_n) = int_R H_n(x)^2 ln H_n(x)^2 e^(-x^2) dx by the paper's root sums:
    2^n n! sqrt(pi) (-n gamma - _axis_root_sums(n)).

    The alternating k-sum loses digits in float64 as n grows (the Shannon
    entropy built on it was off by 1e-8 at n = 15 and 1.8e-2 at n = 30), so
    no served value uses it; validate compares it with the oracle for n <= 8.
    """
    from scipy.special import gammaln

    if n < 0:
        raise DomainError("n must be nonnegative")
    return (-n * EULER_GAMMA - _axis_root_sums(n)) * math.exp(
        n * math.log(2.0) + gammaln(n + 1.0) + 0.5 * math.log(math.pi))


def hermite_entropy_oracle(n: int, tol: float | None = None) -> oracle.IntegralEstimate:
    spec = PolySpec("hermite", n, None, "orthogonal")
    roots = specfun.poly_roots(spec) if n > 0 else np.array([])

    def f(x):
        h = float(specfun._eval_orthogonal("hermite", n, None, np.array([x]))[0])
        h2 = h * h
        if h2 <= 0.0:
            return 0.0
        return math.exp(-x * x) * h2 * math.log(h2)

    return oracle.integrate_adaptive(f, -math.inf, math.inf,
                                     singular_points=roots, tol=tol)


@lru_cache(maxsize=256)
def _axis_root_sums(n: int) -> float:
    """The Hermite-root hypergeometric sums of E(H_n)."""
    if n == 0:
        return 0.0
    roots = [float(x) for x in specfun.poly_roots(PolySpec("hermite", n, None, "orthogonal"))]
    s22 = math.fsum(x * x * specfun.hyp_pFq([1.0, 1.0], [1.5, 2.0], -x * x)
                    for x in roots)
    s11 = math.fsum(
        specfun.binomial(n, k) * (-2.0) ** k / k
        * math.fsum(specfun.hyp_pFq([k], [0.5], -x * x) for x in roots)
        for k in range(1, n + 1))
    return -2.0 * s22 + s11


# ---------------------------------------------------------------------------
# Shannon entropy, Cartesian route


@lru_cache(maxsize=256)
def _axis_shannon_std(n: int, tol: float) -> float:
    """Oracle entropy of the unit-width 1-D density for degree n."""
    spec = PolySpec("hermite", n, None, "orthonormal")
    roots = specfun.poly_roots(spec) if n > 0 else np.array([])

    def f(t):
        m, s = specfun.eval_poly_scaled(spec, np.array([t]))
        m0, s0 = float(m[0]), float(s[0])
        if m0 == 0.0:
            return 0.0
        lg = -t * t + 2.0 * (math.log(abs(m0)) + s0)
        return -math.exp(lg) * lg

    est = oracle.integrate_adaptive(f, -math.inf, math.inf,
                                    singular_points=roots, tol=tol)
    return est.value


def shannon_cartesian(state: CartesianState, space: Space = Space.POSITION,
                      engine: str = ENGINE_CLOSED,
                      tol: float | None = None) -> MeasureValue:
    """Shannon entropy of a Cartesian state in either space.

    Per axis the unit-width entropy splits exactly as <t^2> - int rho ln y^2
    = n + 1/2 + polynomial_entropy(hermite n); like hyperspherical Shannon,
    the 'closed' engine assembles that split from the numeric entropy kernel
    and carries the oracle tag.  'oracle' integrates each axis density by
    QUADPACK.
    """
    if tol is None:
        tol = oracle.default_tolerance()
    w = _width(state.spec.omega, space)
    if engine == ENGINE_CLOSED:
        value = math.fsum(n + 0.5 + oracle.polynomial_entropy(PolySpec("hermite", n), tol=tol)
                          - 0.5 * math.log(w) for n in state.n)
        return MeasureValue(value, space, ENGINE_ORACLE,
                            error_estimate=tol * max(1.0, abs(value)))
    if engine == ENGINE_ORACLE:
        value = math.fsum(_axis_shannon_std(n, tol) - 0.5 * math.log(w)
                          for n in state.n)
        return MeasureValue(value, space, ENGINE_ORACLE, error_estimate=tol * state.spec.dim)
    raise DomainError(f"unknown engine {engine!r}")


# ---------------------------------------------------------------------------
# angular machinery shared by Shannon / Renyi / disequilibrium


def _angular_factors(state: HyperState):
    """(alpha_j, degree, mu_{j+1}) for j = 1..D-2 (|m| convention on the last)."""
    return [states.angular_factor_params(state, j)
            for j in range(1, state.spec.dim - 1)]


def angular_shannon_swave(D: int) -> float:
    """ln(2 pi^(D/2) / Gamma(D/2)): entropy of the uniform angular density."""
    from scipy.special import gammaln

    return math.log(2.0) + (D / 2.0) * math.log(math.pi) - gammaln(D / 2.0)


def _gegenbauer_entropy(degree: int, lam: float, tol: float | None) -> float:
    if degree == 0:
        # constant orthonormal polynomial: entropy is the log weight mass
        return specfun._log_weight_mass("gegenbauer", lam)
    return oracle.polynomial_entropy(PolySpec("gegenbauer", degree, lam), tol=tol)


def angular_log_moment_constant(state: HyperState) -> float:
    """B_1: ln 2 pi minus the exact <ln(1-x^2)> log-moments of the factors."""
    total = math.log(2.0 * math.pi)
    D = state.spec.dim
    for j, (aj, deg, mj1) in enumerate(_angular_factors(state), start=1):
        if mj1 == 0:
            continue
        mj = deg + mj1
        bracket = (specfun.digamma(2 * aj + mj + mj1) - specfun.digamma(aj + mj)
                   - math.log(2.0) - 1.0 / (2.0 * (aj + mj)))
        total -= 2.0 * mj1 * bracket
    return total


def angular_shannon(state: HyperState, tol: float | None = None) -> float:
    """Entropy of the angular density: B_1 plus the Gegenbauer entropy kernels."""
    D = state.spec.dim
    if D == 2:
        return math.log(2.0 * math.pi)
    total = angular_log_moment_constant(state)
    for aj, deg, mj1 in _angular_factors(state):
        total += _gegenbauer_entropy(deg, aj + mj1, tol)
    return total


def angular_shannon_direct(state: HyperState, tol: float | None = None) -> float:
    """Same quantity straight from the factor densities (independent route)."""
    D = state.spec.dim
    total = math.log(2.0 * math.pi)
    for j in range(1, D - 1):
        aj, deg, mj1 = states.angular_factor_params(state, j)
        lam = aj + mj1
        roots = (specfun.poly_roots(PolySpec("gegenbauer", deg, lam))
                 if deg > 0 else np.array([]))

        def f(x, j=j, aj=aj):
            val = float(states.angular_density_factor(state, j, x))
            if val <= 0.0:
                return 0.0
            return -(1.0 - x * x) ** (aj - 0.5) * val * math.log(val)

        pts = sorted(set([-1.0, 1.0]) | set(float(r) for r in roots))
        total += oracle.integrate_adaptive(f, -1.0, 1.0,
                                           singular_points=pts[1:-1], tol=tol).value
    return total


def angular_entropic_moment(state: HyperState, q: float,
                            tol: float | None = None) -> float:
    """Lambda_q = int |Y|^(2q) dOmega: one Gegenbauer lq_integral per factor
    (integer q exact by Gauss-Jacobi)."""
    if q <= 0:
        raise DomainError("q must be positive")
    log_val = (1.0 - q) * math.log(2.0 * math.pi)
    for aj, deg, mj1 in _angular_factors(state):
        spec = PolySpec("gegenbauer", deg, aj + mj1, "orthonormal")
        log_val += math.log(oracle.lq_integral(spec, q, q * mj1 + aj - 0.5, tol=tol))
    return math.exp(log_val)


def angular_renyi(state: HyperState, q: float, tol: float | None = None) -> float:
    return math.log(angular_entropic_moment(state, q, tol=tol)) / (1.0 - q)


# ---------------------------------------------------------------------------
# Shannon entropy, hyperspherical route


def radial_shannon_assembled(state: HyperState, space: Space,
                             tol: float | None = None) -> float:
    """Radial Shannon entropy by the exact decomposition; the Laguerre entropy
    kernel is numeric."""
    D, l, nr = state.spec.dim, state.l, state.n_r
    w = _width(state.spec.omega, space)
    ent = oracle.polynomial_entropy(PolySpec("laguerre", nr, state.alpha), tol=tol)
    return (2 * nr + l + D / 2.0 - math.log(2.0)
            - l * specfun.digamma(nr + l + D / 2.0) + ent - (D / 2.0) * math.log(w))


def radial_shannon_direct(state: HyperState, space: Space,
                          tol: float | None = None) -> float:
    """- int rho_rad ln rho_rad r^(D-1) dr, done in the radius variable."""
    D = state.spec.dim
    return radial_density_integral(
        state, space, lambda lg, lr: -math.exp(lg + (D - 1.0) * lr) * lg, tol).value


def shannon_hyperspherical(state: HyperState, space: Space = Space.POSITION,
                           engine: str = ENGINE_CLOSED,
                           tol: float | None = None) -> MeasureValue:
    """Total Shannon entropy; both routes carry the oracle tag because the
    polynomial-entropy kernels have no known closed forms.

    engine 'closed' assembles the exact decomposition (radial ladder constant
    plus entropy kernels plus angular constant); 'oracle' integrates the
    densities directly.
    """
    if tol is None:
        tol = oracle.default_tolerance() if state.n_r < 200 else oracle.RYDBERG_TOL
    if engine == ENGINE_CLOSED:
        value = (radial_shannon_assembled(state, space, tol=tol)
                 + angular_shannon(state, tol=tol))
    elif engine == ENGINE_ORACLE:
        value = (radial_shannon_direct(state, space, tol=tol)
                 + angular_shannon_direct(state, tol=tol))
    else:
        raise DomainError(f"unknown engine {engine!r}")
    return MeasureValue(value, space, ENGINE_ORACLE,
                        error_estimate=tol * max(1.0, abs(value)))


def shannon(state, space: Space = Space.POSITION, engine: str = ENGINE_CLOSED,
            tol: float | None = None) -> MeasureValue:
    if isinstance(state, CartesianState):
        return shannon_cartesian(state, space, engine, tol=tol)
    return shannon_hyperspherical(state, space, engine, tol=tol)


# ---------------------------------------------------------------------------
# Renyi entropies


def renyi_cartesian(state: CartesianState, q: float, space: Space = Space.POSITION,
                    engine: str = ENGINE_CLOSED,
                    tol: float | None = None) -> MeasureValue:
    """Renyi entropy of a Cartesian state: sum over the axes of
    ln lq_integral(hermite n, q) + (q - 1)/2 ln w, divided by 1 - q.

    Both engines compute that one value.  For integer q the Gauss-Hermite
    rule is exact, so the closed engine tags it 'closed'; real q goes through
    tanh-sinh panels and carries the oracle tag on either engine.
    """
    RenyiOrder(q)
    if engine not in (ENGINE_CLOSED, ENGINE_ORACLE):
        raise DomainError(f"unknown engine {engine!r}")
    w = _width(state.spec.omega, space)
    value = math.fsum(
        math.log(oracle.lq_integral(PolySpec("hermite", n), q, tol=tol))
        + 0.5 * (q - 1.0) * math.log(w) for n in state.n) / (1.0 - q)
    exact = float(q).is_integer()
    if engine == ENGINE_CLOSED and exact:
        return MeasureValue(value, space, ENGINE_CLOSED)
    return MeasureValue(value, space, ENGINE_ORACLE,
                        error_estimate=(0.0 if exact else
                                        (tol or oracle.default_tolerance()) * state.spec.dim))


def renyi_cartesian_lauricella(state: CartesianState, q: int,
                               space: Space = Space.POSITION) -> float:
    """The paper's integer-q form: Gamma ratios plus ln of the finite
    Lauricella-A sum per axis.

    The Lauricella sum cancels in float64 as n grows (off by 1e-5 at n = 10,
    q = 3; non-positive, so no logarithm, at n = 24, q = 2), so validate
    compares it with the served renyi_cartesian only for n <= 5.
    """
    from scipy.special import gammaln

    qi = int(q)
    sign = -1.0 if space is Space.POSITION else 1.0
    kq = math.log(math.pi ** (qi - 0.5) * qi ** 0.5) / (qi - 1.0)
    kbar = (math.log(4.0 ** qi) + gammaln(0.5 + qi)
            - 0.5 * math.log(math.pi) - qi * math.log(qi)) / (1.0 - qi)
    D = state.spec.dim
    value = sign * (D / 2.0) * math.log(state.spec.omega) + kq * D + kbar * state.odd_count
    for n in state.n:
        half = (n + 1) / 2.0
        value += (qi / (qi - 1.0)) * (-1.0) ** n * (gammaln(half + 0.5) - gammaln(half))
        value += math.log(specfun.lauricella_FA_finite(qi, n % 2, n)) / (1.0 - qi)
    return value


def radial_renyi(state: HyperState, q: float, space: Space,
                 tol: float | None = None) -> float:
    """-ln(2 w^(D/2)) + ln N(D, q) / (1 - q) with the weighted Laguerre norm."""
    D = state.spec.dim
    w = _width(state.spec.omega, space)
    norm = oracle.weighted_Lq_norm(state.n_r, state.l, D, q, tol=tol)
    return -math.log(2.0) - (D / 2.0) * math.log(w) + math.log(norm) / (1.0 - q)


def radial_renyi_direct(state: HyperState, q: float, space: Space,
                        tol: float | None = None) -> float:
    """ln int rho_rad^q r^(D-1) dr / (1-q), integrated in the radius variable."""
    D = state.spec.dim
    est = radial_density_integral(
        state, space, lambda lg, lr: math.exp(q * lg + (D - 1.0) * lr), tol)
    return math.log(est.value) / (1.0 - q)


def renyi_hyperspherical(state: HyperState, q: float, space: Space = Space.POSITION,
                         engine: str = ENGINE_CLOSED,
                         tol: float | None = None) -> MeasureValue:
    """Radial + angular Renyi entropy; integer q is exact (Gauss rules of
    sufficient order), real q goes through tanh-sinh panels."""
    RenyiOrder(q)
    if engine == ENGINE_CLOSED:
        value = (radial_renyi(state, q, space, tol=tol)
                 + angular_renyi(state, q, tol=tol))
        exact = float(q).is_integer()
        return MeasureValue(value, space,
                            ENGINE_CLOSED if exact else ENGINE_ORACLE,
                            error_estimate=None if exact else (tol or oracle.default_tolerance()))
    if engine == ENGINE_ORACLE:
        value = radial_renyi_direct(state, q, space, tol=tol)
        value += math.log(angular_entropic_moment(state, q, tol=tol)) / (1.0 - q)
        return MeasureValue(value, space, ENGINE_ORACLE,
                            error_estimate=(tol or oracle.default_tolerance()))
    raise DomainError(f"unknown engine {engine!r}")


def renyi(state, q: float, space: Space = Space.POSITION,
          engine: str = ENGINE_CLOSED, tol: float | None = None) -> MeasureValue:
    if isinstance(state, CartesianState):
        return renyi_cartesian(state, q, space, engine, tol=tol)
    return renyi_hyperspherical(state, q, space, engine, tol=tol)


# ---------------------------------------------------------------------------
# disequilibrium


# Where the paper's product forms are shown to hold to 1e-12 (D in {3, 4, 6,
# 10}); above these they raise UnsupportedError.
RADIAL_FORM_MAX_NR, RADIAL_FORM_MAX_L, RADIAL_FORM_MAX_D = 200, 80, 10
ANGULAR_FORM_MAX_L = 6


def disequilibrium_radial(state: HyperState) -> float:
    """Closed triple finite sum for int rho_rad^2 r^(D-1) dr.

    The overall power of two is 2^(1 - D/2 - 2l - 4 n_r); the variant with a
    single l in the exponent fails the quadrature oracle for every l > 0.

    Every term is positive, so the sum loses no digits to cancellation: at
    n_r = 200 it is within 2.3e-13 of a 40-digit evaluation of the same sum
    for l in {0, 40, 80}, D in {3, 4, 6, 10}.  Further out the central
    binomials overflow (n_r ~ 257), the power of two turns subnormal
    (4 n_r + 2l > ~1020) or Gamma(D/2 + 2l) overflows, so n_r > 200, l > 80
    or D > 10 raise UnsupportedError.
    """
    from scipy.special import gammaln

    nr, l, D = state.n_r, state.l, state.spec.dim
    if nr > RADIAL_FORM_MAX_NR or l > RADIAL_FORM_MAX_L or D > RADIAL_FORM_MAX_D:
        raise UnsupportedError(
            f"the radial triple sum is shown exact only for n_r <= {RADIAL_FORM_MAX_NR}, "
            f"l <= {RADIAL_FORM_MAX_L}, D <= {RADIAL_FORM_MAX_D}; "
            "the served disequilibrium covers every state")
    omega = state.spec.omega
    # binomial(x, m) is an O(m) product: tabulate every coefficient once
    central = [specfun.binomial(2 * j, j) for j in range(nr + 1)]
    outer = [specfun.binomial(1.0 - D / 2.0, j) for j in range(2 * nr + 1)]
    inner = [specfun.binomial(2 * l + D / 2.0 - 1.0 + r, r) for r in range(2 * nr + 1)]
    tot = []
    for k in range(nr + 1):
        for kp in range(nr + 1):
            base = (central[nr - k] * central[nr - kp]
                    * math.exp(gammaln(2 * k + 1.0) - gammaln(k + 1.0)
                               + gammaln(2 * kp + 1.0) - gammaln(kp + 1.0)
                               - gammaln(l + D / 2.0 + k) - gammaln(l + D / 2.0 + kp)))
            for r in range(min(2 * k, 2 * kp) + 1):
                tot.append(base * outer[2 * k - r] * outer[2 * kp - r] * inner[r])
    pref = (omega ** (D / 2.0)
            * 2.0 ** (1.0 - D / 2.0 - 2 * l - 4 * nr)
            * math.exp(gammaln(D / 2.0 + 2 * l)))
    return pref * math.fsum(tot)


def disequilibrium_angular(state: HyperState) -> float:
    """(1/2pi) prod_j sum_k b^2 over the Dougall linearization coefficients.

    The 4F3 coefficient sums lose digits as the factor degrees grow: against
    30-digit quadrature the worst mu chain with mu_1 = l is off by 1.6e-13 /
    1.8e-12 / 2.7e-10 at l = 6 / 7 / 10 (D = 4; D = 3 passes 1e-12 up to
    l = 7).  So l > 6 raises UnsupportedError for D >= 3.
    """
    D = state.spec.dim
    out = 1.0 / (2.0 * math.pi)
    if D == 2:
        return out
    if state.l > ANGULAR_FORM_MAX_L:
        raise UnsupportedError(
            f"the Dougall angular sum is shown exact only for l <= {ANGULAR_FORM_MAX_L}; "
            "the served disequilibrium covers every state")
    for aj, deg, mj1 in _angular_factors(state):
        exp_ = specfun.gegenbauer_square_linearize(deg, aj + mj1, mj1)
        out *= math.fsum(c * c for _, c in exp_.coefficients)
    return out


def disequilibrium_angular_3j(l: int, m: int) -> float:
    """D = 3 angular route through squared 3j symbols."""
    tot = []
    for lp in range(0, 2 * l + 1):
        w1 = specfun.wigner_3j_cached(l, l, lp, 0, 0, 0)
        w2 = specfun.wigner_3j_cached(l, l, lp, m, m, -2 * m)
        tot.append(((2 * l + 1.0) ** 2 * (2 * lp + 1.0) / (4.0 * math.pi))
                   * w1 * w1 * w2 * w2)
    return math.fsum(tot)


def disequilibrium(state: HyperState, engine: str = ENGINE_CLOSED,
                   tol: float | None = None) -> MeasureValue:
    """int rho^2 over position space, served as exp(-R_2[rho]) with R_2's engine
    tag and error estimate; the closed R_2 is exact (Gauss-Laguerre x
    Gauss-Jacobi).  disequilibrium_radial x disequilibrium_angular (and the 3j
    route at D = 3) are the paper's product forms, compared in validate."""
    r2 = renyi_hyperspherical(state, 2.0, Space.POSITION, engine, tol=tol)
    return MeasureValue(math.exp(-r2.value), Space.POSITION, r2.engine,
                        error_estimate=r2.error_estimate)
