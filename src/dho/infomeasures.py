"""Fisher information, Shannon / Renyi entropies, and disequilibrium.

Shannon and Renyi values of Cartesian and hyperspherical states come from one
product decomposition (`_factors`) into orthonormal Hermite, Laguerre and
Gegenbauer members, on both engines.  The closed engine (`_product_sum`)
takes two kernels per member: `lq_integral` (exact Gauss rules for integer q,
so integer-order Renyi values are tagged `closed`) and `polynomial_entropy`,
numeric (no closed forms exist), so Shannon values carry the `oracle` tag.
The oracle engine (`_oracle_sum`) integrates each member's own density by
QUADPACK in the member's own variable and uses neither kernel.  The paper's
Cartesian forms (Hermite-root sums, finite Lauricella sum) lose digits in
float64 from moderate degree; `dho validate` compares them with the served
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from . import oracle, specfun, states
from .errors import DomainError, UnsupportedError, refuse_overflow
from .moments import oracle_radial_moment, radial_moment
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


@dataclass(frozen=True)
class MeasureValue:
    value: float
    space: Space
    engine: str
    error_estimate: float | None = None


# ---------------------------------------------------------------------------
# Fisher information


def fisher(state: HyperState, space: Space = Space.POSITION,
           engine: str = ENGINE_CLOSED) -> MeasureValue:
    """4 (2 n_r + l - |m| + D/2) omega^(+-1); the oracle engine takes the moment
    combination 4<p^2> - 2|m|(2l + D - 2)<r^-2> on quadrature moments."""
    D = state.spec.dim
    w = states.width(state, space)
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
# Hermite entropy: the paper's root-sum form and its QUADPACK reference
# (with its own classical recurrence), compared in validate


def hermite_entropy(n: int) -> float:
    """E(H_n) = int_R H_n(x)^2 ln H_n(x)^2 e^(-x^2) dx by the paper's root sums:
    2^n n! sqrt(pi) (-n gamma - _axis_root_sums(n)).

    The alternating k-sum loses digits in float64 as n grows (with each pFq
    from mpmath it is 6.9e-13 relative off the oracle at n = 15, 5.9e-11 at
    n = 20 and 4.0e-6 at n = 30), so no served value uses it; validate
    compares it with the oracle for n <= 8.
    """
    from scipy.special import gammaln

    if n < 0:
        raise DomainError("n must be nonnegative")
    return (-n * EULER_GAMMA - _axis_root_sums(n)) * math.exp(
        n * math.log(2.0) + gammaln(n + 1.0) + 0.5 * math.log(math.pi))


def hermite_entropy_oracle(n: int, tol: float | None = None) -> oracle.IntegralEstimate:
    spec = PolySpec("hermite", n)
    roots = specfun.poly_roots(spec) if n > 0 else np.array([])

    def f(x):
        # the classical (orthogonal) Hermite recurrence, independent of specfun's
        # orthonormal one that the served kernels use
        h_prev, h = 0.0, 1.0
        for k in range(n):
            h_prev, h = h, 2.0 * x * h - 2.0 * k * h_prev
        h2 = h * h
        if h2 <= 0.0:
            return 0.0
        return math.exp(-x * x) * h2 * math.log(h2)

    return oracle.integrate_adaptive(f, *oracle.support(spec, 0.0, 1.0),
                                     singular_points=roots, tol=tol)


@lru_cache(maxsize=256)
def _axis_root_sums(n: int) -> float:
    """The Hermite-root hypergeometric sums of E(H_n)."""
    if n == 0:
        return 0.0
    roots = [float(x) for x in specfun.poly_roots(PolySpec("hermite", n))]
    s22 = math.fsum(x * x * specfun.hyp_pFq([1.0, 1.0], [1.5, 2.0], -x * x)
                    for x in roots)
    s11 = math.fsum(
        specfun.binomial(n, k) * (-2.0) ** k / k
        * math.fsum(specfun.hyp_pFq([k], [0.5], -x * x) for x in roots)
        for k in range(1, n + 1))
    return -2.0 * s22 + s11


# ---------------------------------------------------------------------------
# the product decomposition behind the Shannon and Renyi values of both engines


class _Factor(NamedTuple):
    """An orthonormal member, its lq_integral weight exponent(q) = a0 + a1 q - a2
    (summed in the order that keeps the bits of D/2 + l q - 1 and
    q mu_{j+1} + alpha_j - 1/2) and shift(), the exact term beside its Shannon
    entropy kernel; only Shannon requests call it (digamma loads scipy.special)."""

    spec: PolySpec
    a0: float
    a1: int
    a2: float
    shift: Callable[[], float]

    def exponent(self, q: float) -> float:
        return self.a0 + self.a1 * q - self.a2


def _factors(state) -> tuple[float, list[_Factor]]:
    """(constant, factors) of the unit-width density.  Cartesian: a Hermite
    member per axis (shift n + 1/2), constant 0.  Hyperspherical: the radial
    Laguerre member (shift 2 n_r + l + D/2 - l psi(n_r + l + D/2)), then a
    Gegenbauer member per angle j (shift -mu_{j+1} <ln(1 - x^2)>), constant
    ln pi: the azimuth's ln 2 pi less the ln 2 of the radial variable x = r^2."""
    if isinstance(state, CartesianState):
        return 0.0, [_Factor(PolySpec("hermite", n), 0.0, 0, 0.0, lambda n=n: n + 0.5)
                     for n in state.n]
    D, l, nr = state.spec.dim, state.l, state.n_r
    factors = [_Factor(PolySpec("laguerre", nr, state.alpha), D / 2.0, l, 1.0,
                       lambda: 2 * nr + l + D / 2.0 - l * specfun.digamma(nr + l + D / 2.0))]
    for j in range(1, D - 1):
        aj, deg, mj1 = states.angular_factor_params(state, j)
        factors.append(_Factor(PolySpec("gegenbauer", deg, aj + mj1), aj, mj1, 0.5,
                               partial(_angular_shift, aj, deg + mj1, mj1)))
    return math.log(math.pi), factors


def _angular_shift(aj: float, mj: int, mj1: int) -> float:
    """-mu_{j+1} <ln(1 - x^2)> of angular factor j (mu_j = mj, mu_{j+1} = mj1)."""
    return -mj1 * 2.0 * (specfun.digamma(2 * aj + mj + mj1) - specfun.digamma(aj + mj)
                         - math.log(2.0) - 1.0 / (2.0 * (aj + mj)))


def _log_lq(f: _Factor, q: float, tol: float | None) -> float:
    """ln lq_integral of the factor; one that leaves the float range is refused."""
    log_value = oracle.log_lq_integral(f.spec, q, f.exponent(q), tol=tol)
    if not math.isfinite(log_value):
        raise UnsupportedError(f"the {f.spec.family.capitalize()} lq_integral of degree "
                               f"{f.spec.degree} leaves the float range at this q")
    return log_value


def _product_sum(constant: float, factors: list[_Factor], q: float | None,
                 tol: float | None) -> float:
    """constant plus, over the factors, shift + entropy kernel (Shannon, q None)
    or ln lq_integral / (1 - q) (Renyi).  A degree-0 member is a constant, whose
    entropy kernel is exactly its log weight mass."""
    if q is None:
        return math.fsum([constant] + [
            f.shift() + (specfun._log_weight_mass(f.spec) if f.spec.degree == 0
                         else oracle.polynomial_entropy(f.spec, tol=tol)) for f in factors])
    return math.fsum([constant, math.fsum(_log_lq(f, q, tol) for f in factors) / (1.0 - q)])


def _entropy(state, space: Space, q: float | None, tol: float | None,
             factor_sum=_product_sum):
    """The Shannon (q None) or Renyi entropy: constant - (D/2) ln w plus the
    factor sum, the closed engine's _product_sum or the oracle's _oracle_sum."""
    constant, factors = _factors(state)
    w = states.width(state, space)
    return factor_sum(constant - (state.spec.dim / 2.0) * math.log(w), factors, q, tol)


# ---------------------------------------------------------------------------
# the oracle engine: each factor's own density, integrated by QUADPACK

# (term, error estimate) per factor integral, which omega and the space do not
# enter; a round of query-entropy's operations uses 135 keys
_ORACLE_CACHE = oracle.BoundedCache(256)

# per family: b(x) and decay(x) of the member's variable
_VARIABLES = {"hermite": (lambda x: 1.0, lambda x: x * x),
              "laguerre": (lambda x: x, lambda x: x),
              "gegenbauer": (lambda x: (1.0 - x) * (1.0 + x), lambda x: 0.0)}


def _oracle_sum(constant: float, factors: list[_Factor], q: float | None,
                tol: float) -> tuple[float, float]:
    """constant plus the factors' oracle terms, and the sum of their errors."""
    terms = [_ORACLE_CACHE.get_or_compute(
        (f.spec.family, f.spec.degree, f.spec.parameter, f.a0, f.a1, f.a2, q, tol),
        lambda: _factor_integral(f, q, tol)) for f in factors]
    return math.fsum([constant] + [t for t, _ in terms]), math.fsum(e for _, e in terms)


def _factor_density(f: _Factor):
    """log_parts of one factor's density in the member's own variable: a
    Hermite axis t, the radial x = w r^2 or an angle x = cos theta.

    The density is e^L against J dx = b^(a0 - a2) dx, with
    L = ln y^2 + a1 ln b - decay; b = 1, x or 1 - x^2 and decay = t^2, x or 0
    by family.  log_parts(x) is (ln J, L) at x, or None where the density
    vanishes (or x lies outside the family's domain).
    """
    y = specfun.scaled_evaluator(f.spec)
    b, decay = _VARIABLES[f.spec.family]
    jac, a1 = f.a0 - f.a2, f.a1

    def log_parts(x):
        m, s = y(x)
        bx = b(x)
        if m == 0.0 or bx <= 0.0:
            return None
        lb = math.log(bx)
        return jac * lb, 2.0 * (math.log(abs(m)) + s) + a1 * lb - decay(x)

    return log_parts


def _factor_integral(f: _Factor, q: float | None, tol: float) -> tuple[float, float]:
    """(term, error estimate) of one factor, by QUADPACK over oracle.support
    split at its roots.  Shannon (q None): ln m - int J e^L L dx / m over the
    numerical mass m = int J e^L dx, which cancels the rounding of L's log
    normalization (lgamma(401.5) is 1.25 ulp off at D = 3, l = 400).  Renyi:
    ln(int J e^(qL) dx) / (1 - q), asking QUADPACK for tol |1 - q| (clipped
    to [1e-3 tol, tol]; it stalls below), whose relative error over |1 - q|
    is the estimate.  J e^(qL) is lq_integral's integrand at f.exponent(q),
    the support's exponent (at q = 1 for Shannon).  The Renyi integrand is
    divided by its peak over a coarse grid, in log space, so that QUADPACK's
    absolute floor is relative to the integrand.
    """
    log_parts = _factor_density(f)
    roots = specfun.poly_roots(f.spec).tolist() if f.spec.degree > 0 else []
    qs, rel = (1.0, tol) if q is None else (q, tol * min(1.0, max(abs(1.0 - q), 1e-3)))
    lo, hi = oracle.support(f.spec, f.exponent(qs), qs)
    if q is None:
        density = {}  # J e^L by node: the mass integral revisits these nodes

        def moment(x):
            parts = log_parts(x) or (-math.inf, 0.0)
            rho = density[x] = math.exp(parts[0] + parts[1])
            return rho * parts[1]

        def mass_density(x):
            if x not in density:
                moment(x)
            return density[x]

        est = oracle.integrate_adaptive(moment, lo, hi, roots, tol)
        mass = oracle.integrate_adaptive(mass_density, lo, hi, roots, tol)
        m, dm = mass.value, mass.abs_error_estimate
        return (math.log(m) - est.value / m,
                (est.abs_error_estimate + dm * (1.0 + abs(est.value) / m)) / m)

    def log_integrand(x):
        parts = log_parts(x)
        return -math.inf if parts is None else parts[0] + q * parts[1]

    name = f"the {f.spec.family.capitalize()} factor integral of degree {f.spec.degree}"
    peak = max(map(log_integrand, _peak_grid(lo, hi, roots)))
    est = None
    if abs(peak) < 2.0 ** 52:  # beyond, the log integrand has no digit below the point
        with refuse_overflow(name):
            est = oracle.integrate_adaptive(lambda x: math.exp(log_integrand(x) - peak),
                                            lo, hi, singular_points=roots, tol=rel)
    if est is None or not 0.0 < est.value < math.inf:
        raise UnsupportedError(f"{name} leaves the float range at q = {q!r}")
    return ((peak + math.log(est.value)) / (1.0 - q),
            est.abs_error_estimate / est.value / abs(1.0 - q))


def _peak_grid(lo: float, hi: float, roots: list[float]) -> list[float]:
    """Coarse points at which to find an integrand's log peak: three in each
    root panel, the outer roots (or 0), and from each outer root geometric
    runs that approach its end of the support and return towards the root."""
    first, last = (roots[0], roots[-1]) if roots else (0.0, 0.0)
    points = [a + (c - a) * t for a, c in zip(roots, roots[1:]) for t in (0.25, 0.5, 0.75)]
    for start, end in ((first, lo), (last, hi)):
        points += [start + (end - start) * t
                   for k in range(1, 41) for t in (1.0 - 2.0 ** -k, 2.0 ** -k)]
    return points + [first, last]


# ---------------------------------------------------------------------------
# angular entropies and moments, from the angular factors


def angular_shannon_swave(D: int) -> float:
    """ln(2 pi^(D/2) / Gamma(D/2)): entropy of the uniform angular density."""
    from scipy.special import gammaln

    return math.log(2.0) + (D / 2.0) * math.log(math.pi) - gammaln(D / 2.0)


def angular_shannon(state: HyperState, tol: float | None = None) -> float:
    """Entropy of the angular density: ln 2 pi + the angular factors' shifts and kernels."""
    return _product_sum(math.log(2.0 * math.pi), _factors(state)[1][1:], None, tol)


def angular_shannon_direct(state: HyperState, tol: float | None = None) -> float:
    """Same quantity from the angular factors' own densities (the oracle engine)."""
    return _oracle_sum(math.log(2.0 * math.pi), _factors(state)[1][1:], None,
                       oracle.default_tolerance() if tol is None else tol)[0]


def angular_entropic_moment(state: HyperState, q: float,
                            tol: float | None = None) -> float:
    """Lambda_q = int |Y|^(2q) dOmega: one Gegenbauer lq_integral per angular
    factor (integer q exact by Gauss-Gegenbauer).  A factor or a Lambda_q that
    leaves the float range raises UnsupportedError."""
    if q <= 0:
        raise DomainError("q must be positive")
    log_val = sum((_log_lq(f, q, tol) for f in _factors(state)[1][1:]),
                  (1.0 - q) * math.log(2.0 * math.pi))
    value = math.exp(log_val)
    if value == 0.0 or value == math.inf:
        raise UnsupportedError(f"Lambda_q = {value!r} leaves the float range at this q")
    return value


def angular_renyi(state: HyperState, q: float, tol: float | None = None) -> float:
    """ln Lambda_q / (1 - q), summed in log space so that a Lambda_q beyond
    the float range is no obstacle."""
    return _product_sum(math.log(2.0 * math.pi), _factors(state)[1][1:], q, tol)


# ---------------------------------------------------------------------------
# Shannon entropies


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
    tol = oracle.default_tolerance() if tol is None else tol
    return _served(state, space, None, engine, tol, lambda v: tol * max(1.0, abs(v)))


def shannon_hyperspherical(state: HyperState, space: Space = Space.POSITION,
                           engine: str = ENGINE_CLOSED,
                           tol: float | None = None) -> MeasureValue:
    """Total Shannon entropy; both routes carry the oracle tag because the
    polynomial-entropy kernels have no known closed forms.

    engine 'closed' assembles the exact decomposition (the shifts and entropy
    kernels of the radial and angular factors); 'oracle' integrates the
    factors' densities directly.
    """
    if tol is None:
        tol = oracle.default_tolerance() if state.n_r < 200 else oracle.RYDBERG_TOL
    return _served(state, space, None, engine, tol, lambda v: tol * max(1.0, abs(v)))


def _served(state, space: Space, q: float | None, engine: str, tol: float,
            closed_error: Callable[[float], float]) -> MeasureValue:
    """The entropy on the engine.  Only an integer-q Renyi value of the closed
    engine is tagged 'closed'; its other values carry closed_error(value), the
    oracle engine its measured error."""
    if engine == ENGINE_ORACLE:
        value, error = _entropy(state, space, q, tol, _oracle_sum)
        return MeasureValue(value, space, ENGINE_ORACLE, error_estimate=error)
    if engine != ENGINE_CLOSED:
        raise DomainError(f"unknown engine {engine!r}")
    value = _entropy(state, space, q, tol)
    if q is not None and float(q).is_integer():
        return MeasureValue(value, space, ENGINE_CLOSED)
    return MeasureValue(value, space, ENGINE_ORACLE, error_estimate=closed_error(value))


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
    """Renyi entropy of a Cartesian state: -(D/2) ln w plus the sum over the
    axes of ln int rho^q / (1 - q).  The closed engine takes each axis integral
    as lq_integral(hermite n, q), exact for integer q (tagged 'closed'), by
    tanh-sinh panels for real q (the oracle tag); the oracle engine integrates
    each axis density by QUADPACK."""
    RenyiOrder(q)
    tol = oracle.default_tolerance() if tol is None else tol
    return _served(state, space, q, engine, tol, lambda v: tol * state.spec.dim)


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


def renyi_hyperspherical(state: HyperState, q: float, space: Space = Space.POSITION,
                         engine: str = ENGINE_CLOSED,
                         tol: float | None = None) -> MeasureValue:
    """Radial + angular Renyi entropy; on the closed engine integer q is
    exact (Gauss rules of sufficient order) and real q goes through
    tanh-sinh panels; the oracle engine integrates the factors' densities."""
    RenyiOrder(q)
    tol = oracle.default_tolerance() if tol is None else tol
    return _served(state, space, q, engine, tol, lambda v: tol)


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
    for f in _factors(state)[1][1:]:
        out *= math.fsum(c * c for _, c in specfun.gegenbauer_square_linearize(
            f.spec.degree, f.spec.parameter, f.a1))
    return out


def disequilibrium_angular_3j(l: int, m: int) -> float:
    """D = 3 angular route through squared 3j symbols."""
    tot = []
    for lp in range(0, 2 * l + 1):
        w1 = specfun.wigner_3j(l, l, lp, 0, 0, 0)
        w2 = specfun.wigner_3j(l, l, lp, m, m, -2 * m)
        tot.append(((2 * l + 1.0) ** 2 * (2 * lp + 1.0) / (4.0 * math.pi))
                   * w1 * w1 * w2 * w2)
    return math.fsum(tot)


def disequilibrium(state: HyperState, engine: str = ENGINE_CLOSED,
                   tol: float | None = None) -> MeasureValue:
    """int rho^2 over position space, served as exp(-R_2[rho]) with R_2's engine
    tag; an error d in R_2 is one of about exp(-R_2) d in the value, so that is
    the error estimate.  The closed R_2 is exact (Gauss-Laguerre x
    Gauss-Gegenbauer).  disequilibrium_radial x disequilibrium_angular (and the 3j
    route at D = 3) are the paper's product forms, compared in validate."""
    r2 = renyi_hyperspherical(state, 2.0, Space.POSITION, engine, tol=tol)
    value = math.exp(-r2.value)
    error = None if r2.error_estimate is None else value * r2.error_estimate
    return MeasureValue(value, Space.POSITION, r2.engine, error_estimate=error)
