"""High-precision numerical integration engine.

Gauss rules come from specfun.gauss_nodes (Golub-Welsch nodes polished by
Newton, confluent Christoffel-Darboux log weights), so extreme Laguerre
parameters (alpha up to a few thousand) stay finite.  lq_integral, the
weighted L_q integral of an orthonormal Hermite, Laguerre or Gegenbauer
member, and polynomial_entropy share one family table: Gauss rules for
integer q, vectorized tanh-sinh panels between the roots otherwise.  The
adaptive QUADPACK integrator serves only the independent oracle routes: it
splits at supplied singular points and maps infinite tails by an exponential
substitution.
"""

from __future__ import annotations

import math
import os
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
# Highest degree the tanh-sinh panel kernels accept.  Their work grows about
# as degree^2: at 2000 the Hermite entropy kernel takes 8.8 s and the Laguerre
# one and real-q lq_integral ~5 s (2-core VM, peak RSS 126 MB); at 3000 they
# take 10-20 s.
PANEL_MAX_DEGREE = 2000
# Highest order gauss_rule builds; weighted_Lq_norm at q = 2 takes 0.65 s at
# order 2002, 1.1 s at 4002, 3.8 s at 8002 and 8.8 s at 12000 (2-core VM).
GAUSS_MAX_ORDER = 12000


def default_tolerance() -> float:
    """Library default, overridable through the HO_ORACLE_TOL variable."""
    raw = os.environ.get("HO_ORACLE_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise DomainError(f"HO_ORACLE_TOL is not a number: {raw!r}") from exc
    if not tol > 0.0:
        raise DomainError("HO_ORACLE_TOL must be positive")
    return tol


@dataclass(frozen=True)
class QuadratureRule:
    family: str                 # hermite | laguerre | jacobi
    parameters: tuple
    order: int
    nodes: np.ndarray
    weights: np.ndarray
    log_weights: np.ndarray

    def integrate_log(self, log_f) -> float:
        """sum w_i exp(log_f(x_i)) evaluated as a stable log-sum-exp."""
        lo = self.log_weights + log_f(self.nodes)
        m = np.max(lo)
        if not np.isfinite(m):
            return 0.0
        return float(math.exp(m) * np.sum(np.exp(lo - m)))


@dataclass(frozen=True)
class IntegralEstimate:
    value: float
    abs_error_estimate: float
    subdivisions: int


class BoundedCache(OrderedDict):
    """A map that keeps its maxsize most recently used entries, for threads.

    The lock guards the map only: threads that miss the same key each compute
    it and none waits for another's computation.
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


def gauss_rule(family: str, order: int, *parameters: float) -> QuadratureRule:
    """Gauss rule for the named weight family.

    hermite: weight e^{-x^2} on R, no parameters.
    laguerre: weight x^alpha e^{-x} on [0, inf), parameter alpha > -1.
    jacobi: weight (1-x)^a (1+x)^b on [-1, 1], parameters a, b > -1.
    Orders above GAUSS_MAX_ORDER raise UnsupportedError.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    if order > GAUSS_MAX_ORDER:
        raise UnsupportedError(
            f"Gauss rules are bounded to order <= {GAUSS_MAX_ORDER} (got "
            f"{order if order < 1e9 else 'over 1e9'}); their work grows as order^2")
    params = tuple(float(p) for p in parameters)
    return _RULE_CACHE.get_or_compute((family, params, int(order)),
                                      lambda: _build_rule(family, params, order))


def _build_rule(family: str, params: tuple, order: int) -> QuadratureRule:
    if family == "hermite":
        if params:
            raise DomainError("hermite rule takes no parameters")
        parameter = None
    elif family == "laguerre":
        (parameter,) = params
        if parameter <= -1.0:
            raise DomainError("laguerre rule requires alpha > -1")
    elif family == "jacobi":
        a, b = params
        if a <= -1.0 or b <= -1.0:
            raise DomainError("jacobi rule requires a, b > -1")
        parameter = params
    else:
        raise DomainError(f"unknown rule family {family!r}")

    nodes, log_w = specfun.gauss_nodes(family, parameter, order, weights=True)
    with np.errstate(over="ignore"):
        weights = np.exp(log_w)
    return QuadratureRule(family, params, order, nodes, weights, log_w)


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
    val, err = out[0], out[1]
    info = out[2]
    ok = len(out) < 4
    return val, err, int(info.get("last", 1)), ok


def _find_truncation(f, a: float, direction: float) -> float:
    """Walk outward until |f| has fallen below 1e-20 of the peak seen."""
    peak = 0.0
    step = 1.0
    x = a + direction * step
    last_good = x
    quiet = 0
    for _ in range(200):
        v = abs(f(x))
        peak = max(peak, v, 1e-300)
        if v < 1e-20 * peak:
            quiet += 1
            if quiet >= 2:
                return x
        else:
            quiet = 0
            last_good = x
        step *= 1.6
        x = a + direction * step
    return max(last_good + direction * step, x) if direction > 0 else x


def _tail_integral(f, a: float, sign: float, epsabs: float, epsrel: float):
    """Integral over [a, +inf) (sign=+1) or (-inf, a] (sign=-1)."""
    g = (lambda v: f(a + v)) if sign > 0 else (lambda v: f(a - v))
    V = abs(_find_truncation(g, 0.0, 1.0))
    V = max(V, 2.0)
    v1, e1, n1, ok1 = _panel_quad(g, 0.0, 1.0, epsabs, epsrel)
    # x = a +/- e^u substitution on the far part
    h = lambda u: g(math.exp(u)) * math.exp(u)
    v2, e2, n2, ok2 = _panel_quad(h, 0.0, math.log(V), epsabs, epsrel)
    return v1 + v2, e1 + e2, n1 + n2, ok1 and ok2


def integrate_adaptive(f, lo: float, hi: float, singular_points=(),
                       tol: float | None = None) -> IntegralEstimate:
    """Adaptive integral of f over [lo, hi] with interior singular points.

    The domain is split at every supplied singular point so each panel sees at
    most a one-sided integrable singularity; +-inf endpoints are handled by
    truncation plus exponential substitution.
    """
    if tol is None:
        tol = default_tolerance()
    pts = sorted(p for p in set(float(p) for p in singular_points)
                 if np.isfinite(p) and lo < p < hi)
    edges = [lo] + pts + [hi]
    total = 0.0
    err = 0.0
    panels = 0
    ok = True
    for a, b in zip(edges[:-1], edges[1:]):
        if a == b:
            continue
        if math.isinf(a) and math.isinf(b):
            v1, e1, n1, k1 = _tail_integral(f, 0.0, 1.0, ABS_FLOOR, tol)
            v2, e2, n2, k2 = _tail_integral(f, 0.0, -1.0, ABS_FLOOR, tol)
            v, e, n, k = v1 + v2, e1 + e2, n1 + n2, k1 and k2
        elif math.isinf(b):
            v, e, n, k = _tail_integral(f, a, 1.0, ABS_FLOOR, tol)
        elif math.isinf(a):
            v, e, n, k = _tail_integral(f, b, -1.0, ABS_FLOOR, tol)
        else:
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
    """Tanh-sinh composite over the panel edges; f_vec takes an ndarray.

    Endpoint singularities (the t^2 ln t^2 kind at polynomial roots) are
    absorbed by the double-exponential clustering; each refinement level
    roughly doubles the digits until tol is met.  Levels are nested: after
    the first, f_vec sees only the nodes the level adds, and each total is
    still summed over the full array of values.
    """
    if tol is None:
        tol = default_tolerance()
    edges = np.asarray(sorted(edges), dtype=float)
    if len(edges) < 2:
        raise DomainError("need at least one panel")
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    prev = vals = None
    for level in range(4, max_level + 1):
        u, w, odd, reuse = _tanh_sinh_level(level)
        fresh = odd if vals is not None else np.ones_like(odd)
        x = (mid[:, None] + half[:, None] * u[fresh][None, :]).ravel()
        new = np.empty((len(mid), len(u)))
        new[:, fresh] = np.asarray(f_vec(x), dtype=float).reshape(len(mid), -1)
        if vals is not None:
            new[:, ~odd] = vals[:, reuse]
        vals = new
        total = float(np.sum((half[:, None] * w[None, :]) * vals))
        if prev is not None and abs(total - prev) <= max(tol * abs(total), ABS_FLOOR):
            return IntegralEstimate(total, abs(total - prev), len(mid) * len(u))
        prev = total
    raise ConvergenceError("tanh-sinh refinement exhausted", value=prev,
                           error_estimate=abs(total - prev))


# ---------------------------------------------------------------------------
# weighted L_q integrals of orthonormal family members


def _root_panel_integral(spec: PolySpec, a: float, q: float, integrand,
                         tol: float | None) -> float:
    """int integrand(lw, ln y^2) dx over the family support by tanh-sinh panels.

    y = spec is an orthonormal member and lw the log weight: a ln x - q x
    (laguerre), a ln(1 - x^2) (gegenbauer), -q x^2 (hermite).  Panel edges sit
    at the roots of y; infinite supports are truncated where the weighted
    power of y has decayed below ~1e-22.  Nodes where y or the weight
    vanishes contribute 0.  Degrees above PANEL_MAX_DEGREE raise
    UnsupportedError before any work is done.
    """
    n = spec.degree
    if n > PANEL_MAX_DEGREE:
        raise UnsupportedError(
            f"the tanh-sinh panel kernels are bounded to degree <= {PANEL_MAX_DEGREE} "
            f"(got {n}); their work grows as degree^2")
    if spec.family == "laguerre":
        edge = 4.0 * n + 2.0 * spec.parameter + 2.0
        lo, hi = 0.0, edge + 12.0 * math.sqrt(edge) / math.sqrt(q) + 60.0 / q

        def log_weight(x):
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(x > 0, a * np.log(np.abs(x)) - q * x, -np.inf)

    elif spec.family == "gegenbauer":
        lo, hi = -1.0, 1.0

        def log_weight(x):
            t = 1.0 - x * x
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(t > 0, a * np.log(np.abs(t)), -np.inf)

    else:
        span = math.sqrt(2.0 * n + 1.0) + 12.0 / math.sqrt(q)
        lo, hi = -span, span

        def log_weight(x):
            return -q * (x * x)

    roots = specfun.poly_roots(spec) if n > 0 else np.array([])

    def f_vec(x):
        m, sc = specfun.eval_poly_scaled(spec, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            ln_y2 = 2.0 * (np.log(np.abs(m)) + sc)
            lw = log_weight(x)
            out = integrand(lw, ln_y2)
        return np.where((m != 0.0) & np.isfinite(lw), out, 0.0)

    edges = np.concatenate([[lo], roots, [hi]])
    return integrate_panels_vectorized(f_vec, edges, tol=tol).value


def lq_integral(spec: PolySpec, q: float, a: float = 0.0,
                tol: float | None = None) -> float:
    """int y(x)^(2q) w(x) dx for the orthonormal member y = spec.

    w is x^a e^(-q x) for laguerre, (1 - x^2)^a for gegenbauer and e^(-q x^2)
    for hermite (a unused).  Integer q is exact through the Gauss rule of the
    weight (generalized Laguerre of parameter a at u/q, Jacobi (a, a), Hermite
    at u/sqrt(q)), whose order above GAUSS_MAX_ORDER (12000) is refused; real
    q goes through tanh-sinh panels between the roots, which refuse degrees
    above PANEL_MAX_DEGREE (2000).
    """
    if not q > 0:
        raise DomainError("q must be positive")
    if not float(q).is_integer():
        return _root_panel_integral(spec, a, q,
                                    lambda lw, ln_y2: np.exp(lw + q * ln_y2), tol)
    qi = int(q)
    order = qi * spec.degree + 2
    if spec.family == "laguerre":
        rule = gauss_rule("laguerre", order + int(math.ceil(abs(a))) // 2, a)
        scale, factor = qi, math.exp(-(a + 1.0) * math.log(qi))
    elif spec.family == "gegenbauer":
        rule, scale, factor = gauss_rule("jacobi", order, a, a), 1, 1.0
    else:
        rule, scale = gauss_rule("hermite", order), math.sqrt(qi)
        factor = 1.0 / scale

    def log_f(u):
        m, sc = specfun.eval_poly_scaled(spec, u / scale)
        with np.errstate(divide="ignore"):
            return 2.0 * qi * (np.log(np.abs(m)) + sc)

    return rule.integrate_log(log_f) * factor


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
    spec = PolySpec("laguerre", n_r, l + D / 2.0 - 1.0, "orthonormal")
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
    if spec.normalization != "orthonormal":
        raise DomainError("polynomial_entropy is defined for orthonormal specs")
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
