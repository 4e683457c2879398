"""High-precision numerical integration engine.

Gauss rules are the Gauss-Hermite, -Laguerre and -Gegenbauer rules of the
PolySpec families, from specfun.gauss_nodes (Golub-Welsch nodes, confluent
Christoffel-Darboux log weights), so extreme Laguerre parameters (alpha up
to a few thousand) stay finite.  lq_integral, the weighted L_q integral of
an orthonormal Hermite, Laguerre or Gegenbauer member, and
polynomial_entropy share one family table: Gauss rules for integer q,
vectorized tanh-sinh panels between the roots otherwise, with the member
evaluated by specfun.panel_evaluator on one row of nodes per root panel (a
Taylor series about each interior panel's midpoint, the recurrence on the
outer panels); a member's roots and
evaluator are built once and kept in _MEMBER_CACHE, and each L_q integral
and polynomial entropy once in _LQ_CACHE and _ENTROPY_CACHE.  These
integrals are the omega-free kernels of the spreading measures (omega only
rescales the variable), so their keys hold the member, q, the weight
exponent and, for the tanh-sinh routes, the tolerance.  support() is the one
rule for where a member's weighted power lives; the tanh-sinh kernels and the
oracle engine's QUADPACK integrals both take their finite ranges from it.  The
adaptive QUADPACK integrator serves only the independent oracle routes: it
splits at supplied singular points, one QUADPACK call per panel.
"""

from __future__ import annotations

import math
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .errors import ConvergenceError, DomainError, UnsupportedError
from .specfun import PolySpec

DEFAULT_TOL = 1e-11
RYDBERG_TOL = 1e-8  # for radial quantum numbers in the hundreds and beyond
ABS_FLOOR = 1e-14
# Highest degree the tanh-sinh panel kernels accept.  Their root finding and
# Taylor start values grow as degree^2, the panel nodes as degree: with fresh
# caches the Hermite, Laguerre and Gegenbauer entropy kernels and real-q
# lq_integral take 0.05-0.10 s at 800, 0.21-0.39 s at 2000 (peak RSS 116 MB)
# and 0.6-1.0 s at 4000 (161 MB; 2-core VM, best of 3).
PANEL_MAX_DEGREE = 2000
# Highest order gauss_rule builds; weighted_Lq_norm at q = 2 takes 0.13 s at
# order 2002, 0.47 s at 4002, 1.8 s at 8002 and 4.1 s at 12000 (2-core VM,
# best of 3; the tridiagonal eigenvalues are about half of it from 4002 up).
GAUSS_MAX_ORDER = 12000


def default_tolerance() -> float:
    """The library's oracle tolerance; --tol is the one per-command setting."""
    return DEFAULT_TOL


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    log_weights: np.ndarray

    def log_integral(self, log_f) -> float:
        """ln sum w_i exp(log_f(x_i)) by a stable log-sum-exp; -inf for an
        empty sum, so a sum beyond the float range still has its logarithm."""
        lo = self.log_weights + log_f(self.nodes)
        m = np.max(lo)
        if not np.isfinite(m):
            return float(m)
        return float(m + np.log(np.sum(np.exp(lo - m))))


@dataclass(frozen=True)
class IntegralEstimate:
    value: float
    abs_error_estimate: float
    subdivisions: int


class BoundedCache(OrderedDict):
    """A map that keeps its maxsize most recently used entries.

    One lock guards lookup, store and eviction, so threads may share it; two
    that miss one key at once both compute it.  A compute that raises stores
    nothing.
    """

    def __init__(self, maxsize: int):
        super().__init__()
        self.maxsize = maxsize
        self._lock = threading.Lock()

    def get_or_compute(self, key, compute):
        """The value stored under key, else compute() stored there."""
        with self._lock:
            if key in self:
                self.move_to_end(key)
                return self[key]
        value = compute()
        with self._lock:
            self[key] = value
            self.move_to_end(key)
            while len(self) > self.maxsize:
                self.popitem(last=False)
        return value


_RULE_CACHE = BoundedCache(512)  # benchmark workloads use up to 392 rules


def gauss_rule(family: str, order: int, parameter: float | None = None) -> QuadratureRule:
    """Gauss rule of the weight of PolySpec(family, order, parameter).

    hermite: weight e^{-x^2} on R, no parameter.
    laguerre: weight x^alpha e^{-x} on [0, inf), parameter alpha > -1.
    gegenbauer: weight (1-x^2)^(lambda-1/2) on [-1, 1], parameter lambda > -1/2.
    PolySpec refuses any other family or parameter (DomainError); orders
    above GAUSS_MAX_ORDER raise UnsupportedError.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    if order > GAUSS_MAX_ORDER:
        raise UnsupportedError(
            f"Gauss rules are bounded to order <= {GAUSS_MAX_ORDER} (got "
            f"{order if order < 1e9 else 'over 1e9'}); their work grows as order^2")
    params = () if parameter is None else (float(parameter),)
    return _RULE_CACHE.get_or_compute(
        (family, params, int(order)),
        lambda: QuadratureRule(*specfun.gauss_nodes(PolySpec(family, int(order), *params),
                                                    weights=True)))


# ---------------------------------------------------------------------------
# adaptive integration


def quad(f, a: float, b: float, **kwargs):
    """scipy's QUADPACK quad, imported at call time: the Gauss-rule and
    tanh-sinh routes never load scipy.integrate.  _panel_quad calls it by
    this module-level name, so instrumentation can rebind it."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(f, a, b, **kwargs)


def _panel_quad(f, a: float, b: float, epsabs: float, epsrel: float):
    from scipy.integrate import IntegrationWarning

    # per-panel warnings are expected near log singularities; the caller
    # enforces the global error bound instead
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        out = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=300, full_output=1)
    return out[0], out[1], int(out[2].get("last", 1)), len(out) < 4


def integrate_adaptive(f, lo: float, hi: float, singular_points=(),
                       tol: float | None = None) -> IntegralEstimate:
    """Adaptive integral of f over [lo, hi] with interior singular points.

    The domain is split at every supplied singular point so each panel sees at
    most a one-sided integrable singularity, and each panel is one QUADPACK
    call (which maps an infinite end itself; the package passes finite
    supports, from support()).
    """
    if tol is None:
        tol = default_tolerance()
    pts = sorted(p for p in set(float(p) for p in singular_points)
                 if np.isfinite(p) and lo < p < hi)
    edges = [lo] + pts + [hi]
    total, err, panels, ok = 0.0, 0.0, 0, True
    for a, b in zip(edges[:-1], edges[1:]):
        v, e, n, k = _panel_quad(f, a, b, ABS_FLOOR, tol)
        total += v
        err += e
        panels += n
        ok = ok and k
    bound = max(tol * abs(total), ABS_FLOOR)
    if not ok and err > 10.0 * bound:
        raise ConvergenceError(
            f"adaptive integration stalled: err={err:.3e} target={bound:.3e}",
            value=total, error_estimate=err)
    return IntegralEstimate(total, err, panels)


# ---------------------------------------------------------------------------
# vectorized tanh-sinh panels (log-singular endpoints, batched integrands)


def _tanh_sinh_nodes(level: int):
    """Integer abscissae k, nodes u and weights w at t = k h, h = 2^-level."""
    h = 0.5 ** level
    t_max = 6.1
    k = np.arange(-int(t_max / h), int(t_max / h) + 1)
    t = k * h
    sinh_t = np.sinh(t)
    u = np.tanh(0.5 * math.pi * sinh_t)
    w = h * 0.5 * math.pi * np.cosh(t) / np.cosh(0.5 * math.pi * sinh_t) ** 2
    keep = w > 1e-320
    return k[keep], u[keep], w[keep]


@lru_cache(maxsize=8)  # levels 4..11, the default refinement range
def _tanh_sinh_level(level: int):
    """(u, w, odd, reuse) of one level, built once per process.

    t = k h is exact for h a power of two, so the even-k nodes of a level are
    the nodes of the level before; `odd` marks the new ones and `reuse` gives
    the position of each even-k node in the previous level's arrays.
    """
    k, u, w = _tanh_sinh_nodes(level)
    odd = k % 2 == 1
    reuse = np.searchsorted(_tanh_sinh_nodes(level - 1)[0], k[~odd] // 2)
    for a in (u, w, odd, reuse):
        a.setflags(write=False)
    return u, w, odd, reuse


def integrate_panels_vectorized(f_vec, edges, tol: float | None = None,
                                max_level: int = 11) -> IntegralEstimate:
    """Tanh-sinh composite over the panel edges; f_vec maps an ndarray of
    shape (npanel, k) whose row p lies in panel p (between the p-th and
    (p+1)-th sorted edge) to the values there, in the same shape.

    Endpoint singularities (the t^2 ln t^2 kind at polynomial roots) are
    absorbed by the double-exponential clustering; each refinement level
    roughly doubles the digits until tol is met.  Levels are nested: after
    the first, f_vec sees only the nodes the level adds, and each total is
    still summed over the full array of values.  Where tanh rounds a node to
    u = +-1 (about half of them, |t| > 3.19) its x is the panel edge
    mid +- half: at the first level each row ends in its panel's two edges,
    as two extra columns, and those values fill every such node.  A total
    that is not finite raises UnsupportedError.
    """
    if tol is None:
        tol = default_tolerance()
    edges = np.asarray(sorted(edges), dtype=float)
    if len(edges) < 2:
        raise DomainError("need at least one panel")
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    npanel = len(mid)
    prev = vals = total = None
    diff = math.inf  # no estimate until two levels have run
    for level in range(4, max_level + 1):
        u, w, odd, reuse = _tanh_sinh_level(level)
        fresh = odd if vals is not None else np.ones_like(odd)
        inner = fresh & (np.abs(u) < 1.0)
        x = mid + half * u[inner]
        if vals is None:
            x = np.concatenate([x, mid - half, mid + half], axis=1)
        fx = np.asarray(f_vec(x), dtype=float)
        if vals is None:
            lo_vals, hi_vals = fx[:, -2:-1], fx[:, -1:]
        new = np.empty((npanel, len(u)))
        new[:, inner] = fx[:, :np.count_nonzero(inner)]
        new[:, fresh & (u == -1.0)] = lo_vals
        new[:, fresh & (u == 1.0)] = hi_vals
        if vals is not None:
            new[:, ~odd] = vals[:, reuse]
        vals = new
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum((half * w) * vals))
        if not math.isfinite(total):  # tol |total| would pass any difference
            raise UnsupportedError("the tanh-sinh panel integral leaves the float range")
        diff = math.inf if prev is None else abs(total - prev)
        if diff <= max(tol * abs(total), ABS_FLOOR):
            return IntegralEstimate(total, diff, npanel * len(u))
        prev = total
    raise ConvergenceError("tanh-sinh refinement exhausted", value=total, error_estimate=diff)


# ---------------------------------------------------------------------------
# weighted L_q integrals of orthonormal family members


# (roots, panel evaluator) per PolySpec, built once for all of a member's
# kernels.  sweep-rydberg uses 12 members (Laguerre up to degree 800), the
# other workloads up to 134 small ones (degree <= 200).  A member of degree n
# holds about 425 (n + 1) bytes: 27 MB for 32 at PANEL_MAX_DEGREE.
_MEMBER_CACHE = BoundedCache(32)


def _build_member(spec: PolySpec):
    roots = specfun.poly_roots(spec) if spec.degree > 0 else np.array([])
    roots.setflags(write=False)  # shared by every kernel of the member
    return roots, specfun.panel_evaluator(spec, roots)


def support(spec: PolySpec, a: float, q: float) -> tuple[float, float]:
    """(lo, hi), the finite range over which both engines integrate w y^(2q)
    of lq_integral (weight exponent a).  Laguerre: past the last root (below
    4n + 2 alpha + 2) it is about x^(a + 2qn) e^(-qx), whose peak a/q + 2n may
    lie further out; edge is the larger, and hi adds 12 peak widths
    sqrt(edge / q) and 60 decay lengths 1/q.  Hermite: 12 widths 1/sqrt(q)
    past the last root.  Gegenbauer: [-1, 1]."""
    n = spec.degree
    if spec.family == "laguerre":
        edge = max(4.0 * n + 2.0 * spec.parameter + 2.0, a / q + 2.0 * n)
        return 0.0, edge + 12.0 * math.sqrt(edge) / math.sqrt(q) + 60.0 / q
    if spec.family == "gegenbauer":
        return -1.0, 1.0
    span = math.sqrt(2.0 * n + 1.0) + 12.0 / math.sqrt(q)
    return -span, span


def _root_panel_integral(spec: PolySpec, a: float, q: float, integrand,
                         tol: float | None) -> float:
    """int integrand(lw, ln y^2) dx over support(spec, a, q) by tanh-sinh panels.

    y = spec is an orthonormal member and lw the log weight: a ln x - q x
    (laguerre), a ln(1 - x^2) (gegenbauer), -q x^2 (hermite).  Panel edges sit
    at the roots of y and the two ends of the support.  Nodes where y or the
    weight vanishes contribute 0.  Degrees above PANEL_MAX_DEGREE raise
    UnsupportedError before any work is done.
    """
    n = spec.degree
    if n > PANEL_MAX_DEGREE:
        raise UnsupportedError(
            f"the tanh-sinh panel kernels are bounded to degree <= {PANEL_MAX_DEGREE} "
            f"(got {n}); their work grows as degree^2")
    lo, hi = support(spec, a, q)
    if spec.family == "laguerre":
        def log_weight(x):  # f_vec's errstate covers the logs here
            return np.where(x > 0, a * np.log(np.abs(x)) - q * x, -np.inf)

    elif spec.family == "gegenbauer":
        def log_weight(x):
            return np.where(x * x < 1.0, a * np.log(np.abs(1.0 - x * x)), -np.inf)

    else:
        def log_weight(x):
            return -q * (x * x)

    roots, evaluate = _MEMBER_CACHE.get_or_compute(spec, lambda: _build_member(spec))

    def f_vec(x):
        m, sc = evaluate(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ln_y2 = 2.0 * (np.log(np.abs(m)) + sc)
            lw = log_weight(x)
            out = integrand(lw, ln_y2)
        return np.where((m != 0.0) & np.isfinite(lw), out, 0.0)

    edges = np.concatenate([[lo], roots, [hi]])
    return integrate_panels_vectorized(f_vec, edges, tol=tol).value


# Each route's result, keyed on what sets it: the integral for real q (with
# the tolerance it was taken to), its logarithm for integer q (exact, so no
# tolerance).  validate --preset full asks for 349 distinct integrals.
_LQ_CACHE = BoundedCache(1024)


def lq_integral(spec: PolySpec, q: float, a: float = 0.0,
                tol: float | None = None) -> float:
    """int y(x)^(2q) w(x) dx for the orthonormal member y = spec: w is
    x^a e^(-q x) for laguerre, (1 - x^2)^a for gegenbauer and e^(-q x^2) for
    hermite (a unused).  Integer q is exact (see log_lq_integral); real q goes
    through tanh-sinh panels between the roots, which refuse degrees above
    PANEL_MAX_DEGREE (2000)."""
    if q > 0 and not float(q).is_integer():
        return _real_lq_integral(spec, q, a, tol)
    return math.exp(log_lq_integral(spec, q, a, tol))


def _real_lq_integral(spec: PolySpec, q: float, a: float, tol: float | None) -> float:
    """lq_integral at a non-integer q, by tanh-sinh panels once per key."""
    if tol is None:
        tol = default_tolerance()
    key = (spec.family, spec.degree, spec.parameter, float(q), float(a), tol)
    return _LQ_CACHE.get_or_compute(key, lambda: _root_panel_integral(
        spec, a, q, lambda lw, ln_y2: np.exp(lw + q * ln_y2), tol))


def log_lq_integral(spec: PolySpec, q: float, a: float = 0.0,
                    tol: float | None = None) -> float:
    """ln lq_integral, -inf where it vanishes.  Integer q takes it straight
    from the log-sum-exp of the Gauss rule of the weight (generalized Laguerre
    of parameter a at u/q, Gegenbauer of parameter a + 1/2, Hermite at
    u/sqrt(q)), so it exists where the integral leaves the float range;
    orders above GAUSS_MAX_ORDER (12000) are refused."""
    if not q > 0:
        raise DomainError("q must be positive")
    if not float(q).is_integer():
        value = _real_lq_integral(spec, q, a, tol)
        return math.log(value) if value > 0.0 else -math.inf
    key = (spec.family, spec.degree, spec.parameter, float(q), float(a))
    return _LQ_CACHE.get_or_compute(key, lambda: _log_gauss_lq_integral(spec, int(q), a))


def _log_gauss_lq_integral(spec: PolySpec, qi: int, a: float) -> float:
    order = qi * spec.degree + 2
    if spec.family == "laguerre":
        rule = gauss_rule("laguerre", order + int(math.ceil(abs(a))) // 2, a)
        scale, log_factor = qi, -(a + 1.0) * math.log(qi)
    elif spec.family == "gegenbauer":
        rule, scale, log_factor = gauss_rule("gegenbauer", order, a + 0.5), 1, 0.0
    else:
        rule, scale = gauss_rule("hermite", order), math.sqrt(qi)
        log_factor = -math.log(scale)

    def log_f(u):
        m, sc = specfun.eval_poly_scaled(spec, u / scale)
        with np.errstate(divide="ignore"):
            return 2.0 * qi * (np.log(np.abs(m)) + sc)

    return rule.log_integral(log_f) + log_factor


def weighted_Lq_norm(n_r: int, l: int, D: float, q: float,
                     tol: float | None = None) -> float:
    """N_{n_r,l}(D, q) = int ( [Lt_n^(alpha)]^2 w_alpha )^q x^beta dx.

    alpha = l + D/2 - 1, beta = (1-q)(D/2 - 1): the lq_integral of the
    Laguerre member with weight exponent beta + q alpha = D/2 + l q - 1.
    """
    if q <= 0:
        raise DomainError("q must be positive")
    if D < 2:
        raise DomainError("hyperspherical norms require D >= 2")
    s = D / 2.0 + l * q - 1.0  # beta + q*alpha
    if s <= -1.0:
        raise DomainError("convergence condition D/2 + l q - 1 > -1 violated")
    spec = PolySpec("laguerre", n_r, l + D / 2.0 - 1.0)
    return lq_integral(spec, q, s, tol=tol)


# ---------------------------------------------------------------------------
# polynomial entropies

_ENTROPY_CACHE = BoundedCache(256)  # benchmark workloads use up to 120 kernels


def polynomial_entropy(spec: PolySpec, beta_shift: float = 0.0,
                       tol: float | None = None) -> float:
    """- int x^beta w(x) y_n(x)^2 ln y_n(x)^2 dx for an orthonormal member.

    Panel edges sit exactly at the polynomial roots, where the t^2 ln t^2
    integrand vanishes (0 ln 0 = 0).  beta_shift applies to Laguerre only.
    Degrees above PANEL_MAX_DEGREE (2000) raise UnsupportedError.
    """
    if beta_shift != 0.0 and spec.family != "laguerre":
        raise DomainError("beta_shift applies to the laguerre weight only")
    if tol is None:
        tol = default_tolerance()
    key = (spec.family, spec.degree, spec.parameter, float(beta_shift), tol)
    return _ENTROPY_CACHE.get_or_compute(key, lambda: _entropy_kernel(spec, beta_shift, tol))


def _entropy_kernel(spec: PolySpec, beta_shift: float, tol: float) -> float:
    a = (spec.parameter - 0.5 if spec.family == "gegenbauer"
         else (spec.parameter or 0.0) + beta_shift)
    return _root_panel_integral(spec, a, 1.0,
                                lambda lw, ln_y2: -np.exp(lw + ln_y2) * ln_y2, tol)
