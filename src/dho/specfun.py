"""Special functions and polynomial linearization machinery.

Hermite / Laguerre / Gegenbauer polynomials, terminating hypergeometric sums
at unit argument, the general pFq (mpmath's hyper at 30 digits, for the
validate-only Hermite root sums), the finite Lauricella-A sum of the paper's
integer-order Renyi form, the Dougall Gegenbauer square linearization, and
exact Wigner 3j symbols (cached).

Every polynomial is the orthonormal member of its family, evaluated as a
mantissa over a per-node log scale, so any degree and parameter stays finite.
The scaled three-term recurrence (`_recurrence`, one coefficient table
`_jacobi_coeffs`) costs O(n) per node.  It serves `eval_poly_scaled`, and
`gauss_nodes` for roots and the Gauss-Hermite, -Laguerre and -Gegenbauer rules
(Golub-Welsch eigenvalues; one recurrence pass gives their Newton step and,
through the confluent Christoffel-Darboux identity, their log weights).
`scaled_evaluator` repeats its steps on one float, in the same bits, for the
QUADPACK integrands that ask for one point at a time.  `panel_evaluator`
serves the tanh-sinh kernels between consecutive roots, one row of nodes per
root panel, at O(1) per node: a Taylor series about each panel's midpoint,
whose coefficients follow from the family's second-order ODE (the local
series of Glaser, Liu & Rokhlin, SIAM J. Sci. Comput. 29, 2007) and whose
start values come from one recurrence pass over the midpoints; each panel
starts afresh, so no error is carried from one panel to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .errors import DomainError, UnsupportedError

EULER_GAMMA = 0.5772156649015329

FAMILIES = ("hermite", "laguerre", "gegenbauer")

# nodes per Horner pass in panel_evaluator: each Taylor term makes two passes
# over its arrays, and blocks of whole rows up to this size keep them in L2
# cache (Laguerre 800, 801 rows of 400 or 800 nodes: 30-34% faster than one
# pass; medians of 12, 2-core VM)
RECURRENCE_BLOCK = 32768
# terms of the Taylor series panel_evaluator sums on each root panel
TAYLOR_TERMS = 48
# lowest degree at which panel_evaluator sums those series.  Entropy kernels,
# fresh caches, best of 11 (2-core VM), series / recurrence: 15.5 / 11.9 ms at
# degree 49, 34.7 / 33.6 at 80, 41.9 / 44.4 at 100, 55.2 / 70.5 at 128; end to
# end 49 and 80 are level (sweep-rydberg ops/s, medians of 10 alternating
# pairs: 49.6 at 80, 46.7 at 49; 80 faster in 5)
TAYLOR_MIN_DEGREE = 80
# largest index space ((n - nu)/2 + 1)^(2q) lauricella_FA_finite sums term by term
LAURICELLA_MAX_TERMS = 100_000


@dataclass(frozen=True)
class PolySpec:
    """One member of a classical orthogonal family.

    parameter is the Laguerre alpha (> -1) or Gegenbauer lambda (> -1/2);
    Hermite takes none.
    """

    family: str
    degree: int
    parameter: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if self.degree < 0 or self.degree != int(self.degree):
            raise DomainError("degree must be a nonnegative integer")
        if self.family == "hermite":
            if self.parameter is not None:
                raise DomainError("hermite takes no parameter")
        elif self.family == "laguerre":
            if self.parameter is None or self.parameter <= -1.0:
                raise DomainError("laguerre requires alpha > -1")
        elif self.family == "gegenbauer":
            if self.parameter is None or self.parameter <= -0.5:
                raise DomainError("gegenbauer requires lambda > -1/2")


# ---------------------------------------------------------------------------
# gamma-type scalars


def digamma(x: float) -> float:
    from scipy.special import psi

    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"digamma pole at {x}")
    return float(psi(x))


def pochhammer(a: float, j: int) -> float:
    """Rising factorial (a)_j as a direct product; exact sign handling."""
    if j < 0 or j != int(j):
        raise DomainError("pochhammer index must be a nonnegative integer")
    out = 1.0
    for t in range(int(j)):
        out *= a + t
    return out


def binomial(x: float, m: int) -> float:
    """Generalized binomial coefficient binom(x, m) for integer m >= 0."""
    if m < 0:
        return 0.0
    out = 1.0
    for t in range(1, m + 1):
        out *= (x - (m - t)) / t  # one rounding per factor: x may be tiny
    return out


def log_abs_binomial(x: float, m: int) -> tuple[float, float]:
    """(log |binom(x, m)|, sign); sign 0 means the coefficient vanishes."""
    if m < 0:
        return -math.inf, 0.0
    if m == 0:
        return 0.0, 1.0
    if x < 0.0:
        # binom(x, m) = (-1)^m binom(m - x - 1, m): no Gamma pole on the way
        return math.lgamma(m - x) - math.lgamma(m + 1.0) - math.lgamma(-x), float((-1) ** m)
    if x == math.floor(x) and x < m:
        return -math.inf, 0.0
    y = x - (m - 1.0)  # one rounding: exact at m = 1, where x may be tiny
    if y <= 0.0:
        # 1/Gamma(y) = sin(pi y) Gamma(1 - y) / pi, with sin(pi y) taken from
        # x - round(x), exact where y itself has lost x's fraction
        n = round(x)
        lg = (math.lgamma(x + 1.0) - math.lgamma(m + 1.0) + math.lgamma(m - x)
              + math.log(abs(math.sin(math.pi * (x - n)))) - math.log(math.pi))
        return lg, (-1.0) ** (m - 1 + n) * math.copysign(1.0, x - n)
    return math.lgamma(x + 1.0) - math.lgamma(m + 1.0) - math.lgamma(y), 1.0


# ---------------------------------------------------------------------------
# recurrence evaluation

def _jacobi_coeffs(spec: PolySpec, size: int):
    """Diagonal / off-diagonal of spec's family's symmetric Jacobi matrix
    (orthonormal), size x size."""
    k = np.arange(size, dtype=float)
    if spec.family == "hermite":
        diag = np.zeros(size)
        off = np.sqrt(k[1:] / 2.0)
    elif spec.family == "laguerre":
        a = float(spec.parameter)
        diag = 2.0 * k + a + 1.0
        off = np.sqrt(k[1:] * (k[1:] + a))
    else:
        lam = float(spec.parameter)
        diag = np.zeros(size)
        kk = k[1:]
        # k=1 entry written pole-free (the k+lam-1 factor cancels)
        off = np.empty(size - 1) if size > 1 else np.empty(0)
        if size > 1:
            off[0] = 0.5 * math.sqrt(2.0 / (1.0 + lam))
            if size > 2:
                kk2 = kk[1:]
                off[1:] = 0.5 * np.sqrt(kk2 * (kk2 + 2 * lam - 1.0)
                                        / ((kk2 + lam) * (kk2 + lam - 1.0)))
    return diag, off


def _log_weight_mass(spec: PolySpec) -> float:
    """log of integral of spec's family weight over its support."""
    if spec.family == "hermite":
        return 0.5 * math.log(math.pi)
    if spec.family == "laguerre":
        return math.lgamma(float(spec.parameter) + 1.0)
    lam = float(spec.parameter)
    return 0.5 * math.log(math.pi) + math.lgamma(lam + 0.5) - math.lgamma(lam + 1.0)


def _recurrence(x, diag, off, n, log_mass, derivative=False):
    """Orthonormal p_n, p_{n-1}, p_n', p_{n-1}' at x by the three-term recurrence.

    Returns the four mantissas and their one shared per-node log scale
    (value = mantissa * exp(scale)), each shaped like x.  Whenever |p_n| (or,
    with `derivative`, max(|p_n|, |p_n'|)) passes 1e120 the mantissas are
    divided down and the scale grows, so any degree and parameter stays
    finite.  Without `derivative` the derivative mantissas are the scalar 0.

    A step is a fixed handful of numpy calls written in place into buffers
    made once, since the per-call overhead, not the arithmetic, is the cost
    at the few dozen nodes of most calls.  With `derivative` one array holds
    p then p', so one call updates both (x is laid out twice to match), and
    the coefficients enter as 0-d array views, which a ufunc takes faster
    than a float.  Each node sees the operations of the textbook loop on the
    same operands in the same order, so the bits do not depend on the layout.
    """
    shape, m = x.shape, x.size
    x = x.reshape(-1)
    prev_shift = cur_shift = None
    if derivative:
        # a state block is -0.0, p, p' (m nodes each); the state is its last
        # two thirds, and its first two thirds line -0.0 up with p and p with
        # p', so one add forms [t p, t p' + p] (adding -0.0 changes no bit)
        x = np.concatenate((x, x))
        blocks = np.zeros((2, 3 * m))
        blocks[:, :m] = -0.0
        prev, cur = blocks[:, m:]
        prev_shift, cur_shift = blocks[:, :2 * m]
    else:
        prev, cur = np.zeros((2, m))
    cur[:m] = 1.0
    logs = np.full(m, -0.5 * log_mass)
    t, sizes = np.empty(x.size), np.empty(x.size)
    size = np.empty(m) if derivative else sizes
    size_p, size_d, big = sizes[:m], sizes[m:], np.empty(m, bool)
    subtract, multiply, add, divide = np.subtract, np.multiply, np.add, np.divide
    limit, b_prev = np.array(1e120), np.array(0.0)
    for k in range(n):
        b_next = off[k, ...]
        # ((x - a_k) cur (+ [0, p]) - b_{k-1} prev) / b_k, into prev's buffer
        subtract(x, diag[k, ...], t)
        multiply(t, cur, t)
        if derivative:
            add(t, cur_shift, t)
        multiply(b_prev, prev, prev)
        subtract(t, prev, t)
        divide(t, b_next, prev)
        prev, cur, prev_shift, cur_shift = cur, prev, cur_shift, prev_shift
        np.absolute(cur, sizes)
        if derivative:
            np.maximum(size_p, size_d, out=size)  # keyword: positional out is slow here
        # count_nonzero: a fifth of the call cost of .any() at one node
        if np.count_nonzero(np.greater(size, limit, big)):
            sc = np.where(big, size, 1.0)
            logs += np.log(sc)
            if derivative:
                sc = np.concatenate((sc, sc))
            prev /= sc
            cur /= sc
        b_prev = b_next
    logs = logs.reshape(shape)
    if not derivative:
        return cur.reshape(shape), prev.reshape(shape), 0.0, 0.0, logs
    return (cur[:m].reshape(shape), prev[:m].reshape(shape), cur[m:].reshape(shape),
            prev[m:].reshape(shape), logs)


def _second_derivative(spec: PolySpec, x, y, dy):
    """y'' of spec from its ODE, given y and y' at x (mantissas of one scale)."""
    n = spec.degree
    if spec.family == "hermite":
        return 2.0 * x * dy - 2.0 * n * y
    if spec.family == "laguerre":
        return ((x - spec.parameter - 1.0) * dy - n * y) / x
    lam = spec.parameter
    return ((2.0 * lam + 1.0) * x * dy - n * (n + 2.0 * lam) * y) / ((1.0 - x) * (1.0 + x))


def gauss_nodes(spec: PolySpec, weights: bool = False):
    """Zeros of spec, ascending (Golub-Welsch): the nodes of its family's
    Gauss rule of order spec.degree.

    Eigenvalues of the leading n x n Jacobi matrix take one capped Newton
    step from one derivative recurrence pass (p/p' is free of the log scale).
    The same pass gives the log Gauss weights (returned with `weights`) by
    the confluent Christoffel-Darboux identity 1/w = b_n (p_n' p_{n-1} -
    p_{n-1}' p_n), which holds at any x and never leaves log space, with p_n,
    p_n' and p_{n-1} carried to the new node to first order (p_n'' from the
    ODE).  Nodes whose step exceeded 1e-14 of |x| (those near 0, where the
    error is largest: about 50 of 2002 for Laguerre alpha = 1/2) take a
    second Newton step, and their weights come from a third pass there.
    """
    from scipy.linalg import eigh_tridiagonal

    n = spec.degree
    diag, off = _jacobi_coeffs(spec, n + 1)
    log_mass = _log_weight_mass(spec)

    def newton(x, polish=True):
        p, p1, dp, dp1, logs = _recurrence(x, diag, off, n, log_mass, derivative=True)
        step = np.where(dp != 0.0, p / np.where(dp == 0.0, 1.0, dp), 0.0)
        # Newton from eigenvalue starts is already near-converged; cap the move
        cap = 1e-6 * (1 + np.abs(x))
        step = np.clip(step, -cap, cap) if polish else 0.0
        dp_new = dp - step * _second_derivative(spec, x, p, dp)
        christoffel = dp_new * (p1 - step * dp1) - dp1 * (p - step * dp)
        return x - step, step, -(np.log(off[n - 1] * christoffel) + 2.0 * logs)

    x, step, log_w = newton(eigh_tridiagonal(diag[:n], off[:n - 1], eigvals_only=True))
    again = np.abs(step) > 1e-14 * np.abs(x)
    if again.any():
        x[again] = newton(x[again])[0]
        if weights:
            log_w[again] = newton(x[again], polish=False)[2]
    order = np.argsort(x)
    return (x[order], log_w[order]) if weights else x[order]


def eval_poly_scaled(spec: PolySpec, x):
    """Evaluate spec at x as (mantissa, log_scale): value = m * exp(s)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    diag, off = _jacobi_coeffs(spec, max(spec.degree + 1, 2))
    p, _, _, _, logs = _recurrence(x, diag, off, spec.degree, _log_weight_mass(spec))
    return p, logs


def _taylor_panels(spec: PolySpec, roots: np.ndarray):
    """Taylor coefficients of spec about the midpoint of every root panel.

    Panel p (0..n) runs from roots[p-1] to roots[p]; the two outer panels
    have no coefficients.  On an interior panel with centre c and half-width
    h, spec = sum_j t_j s^j * exp(scale) with s = (x - c)/h and
    t_j = y^(j)(c) h^j / j!: t_0 and t_1 come from one derivative recurrence
    pass over the centres, and t_{j+2} from t_{j+1} and t_j by the family's
    ODE differentiated j times,

        hermite:     y^(j+2) = 2x y^(j+1) + 2(j-n) y^(j)
        laguerre:    x y^(j+2) = -(j+a+1-x) y^(j+1) - (n-j) y^(j)
        gegenbauer:  (1-x^2) y^(j+2) = (2j+2lam+1) x y^(j+1) + (j(j+2lam) - n(n+2lam)) y^(j)

    Returns (centre, half, coeffs (TAYLOR_TERMS, n+1), scale, taylor), where
    taylor marks the panels the series serves: interior panels whose last two
    terms fall below 1e-17 of the largest, and whose half-width is at most
    half the distance from the centre to the ODE's singular point (x = 0
    for laguerre, +-1 for gegenbauer).
    """
    n, K = spec.degree, TAYLOR_TERMS
    c = 0.5 * (roots[1:] + roots[:-1])
    h = 0.5 * (roots[1:] - roots[:-1])
    hh = h * h
    diag, off = _jacobi_coeffs(spec, n + 1)
    y, _, dy, _, logs = _recurrence(c, diag, off, n, _log_weight_mass(spec),
                                    derivative=True)
    if spec.family == "hermite":
        lead, room = 1.0, np.inf

        def step(j):
            return 2.0 * (j + 1) * c * h, 2.0 * (j - n) * hh
    elif spec.family == "laguerre":
        a = float(spec.parameter)
        lead = room = c

        def step(j):
            return -(j + 1) * (j + a + 1.0 - c) * h, -(n - j) * hh
    else:
        lam = float(spec.parameter)
        lead, room = (1.0 - c) * (1.0 + c), 1.0 - np.abs(c)

        def step(j):
            return ((j + 1) * (2 * j + 2 * lam + 1.0) * c * h,
                    (j * (j + 2 * lam) - n * (n + 2 * lam)) * hh)

    t = np.empty((K, n - 1))
    t[0], t[1] = y, h * dy
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(K - 2):
            a1, a0 = step(j)
            t[j + 2] = (a1 * t[j + 1] + a0 * t[j]) / ((j + 1) * (j + 2) * lead)
        size = np.max(np.abs(t), axis=0)
        taylor = ((np.abs(t[K - 2]) + np.abs(t[K - 1]) <= 1e-17 * size)
                  & np.isfinite(size) & (h <= 0.5 * room))
    coeffs = np.zeros((K, n + 1))
    coeffs[:, 1:n] = t
    centre, half, scale = np.zeros(n + 1), np.ones(n + 1), np.zeros(n + 1)
    centre[1:n], half[1:n], scale[1:n] = c, h, logs
    return centre, half, coeffs, scale, np.concatenate([[False], taylor, [False]])


def panel_evaluator(spec: PolySpec, roots: np.ndarray):
    """x -> (mantissa, log_scale) of spec, for the root-panel kernels.

    roots are spec's roots, ascending, and x is an ndarray of shape
    (n + 1, k) whose row p lies in root panel p: (-inf, roots[0]] for p = 0,
    [roots[p-1], roots[p]] for 0 < p < n, [roots[n-1], inf) for p = n.  Rows
    of interior panels that _taylor_panels serves evaluate a
    TAYLOR_TERMS-term series about their midpoint (O(1) work per node); every
    other row, and every row below TAYLOR_MIN_DEGREE, goes through
    eval_poly_scaled.
    """
    if spec.degree < TAYLOR_MIN_DEGREE:
        return lambda x: eval_poly_scaled(spec, x)
    centre, half, coeffs, scale, taylor = _taylor_panels(spec, roots)
    served = np.flatnonzero(taylor)
    rest = np.flatnonzero(~taylor)
    centre, half, scale = centre[served, None], half[served, None], scale[served, None]
    coeffs = coeffs[:, served, None]

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] != taylor.size:
            raise DomainError(f"panel_evaluator takes one row per root panel "
                              f"({taylor.size}), got shape {x.shape}")
        m, logs = np.empty(x.shape), np.empty(x.shape)
        m[rest], logs[rest] = eval_poly_scaled(spec, x[rest])
        rows = max(1, RECURRENCE_BLOCK // max(x.shape[1], 1))
        for i in range(0, served.size, rows):
            at = slice(i, i + rows)
            s = (x[served[at]] - centre[at]) / half[at]
            acc = coeffs[-1, at] * s + coeffs[-2, at]
            for row in coeffs[-3::-1]:
                acc *= s
                acc += row[at]
            m[served[at]], logs[served[at]] = acc, scale[at]
        return m, logs

    return evaluate


def scaled_evaluator(spec: PolySpec):
    """x -> (mantissa, log_scale) of spec at one float x, in eval_poly_scaled's bits.

    The coefficient table is built once, here.  The loop repeats
    _recurrence's steps in their order, rescale rule included; the rescale
    takes its logarithm from numpy, as _recurrence does, since numpy's log
    and math.log can differ in the last bit.
    """
    n = spec.degree
    diag, off = _jacobi_coeffs(spec, max(n + 1, 2))
    diag, off = diag.tolist(), off.tolist()
    steps = tuple(zip(diag[:n], [0.0] + off[:n - 1], off[:n]))
    log_scale = -0.5 * _log_weight_mass(spec)

    def evaluate(x: float) -> tuple[float, float]:
        p_prev, p_cur, logs = 0.0, 1.0, log_scale
        for d, b_prev, b_next in steps:
            p_prev, p_cur = p_cur, ((x - d) * p_cur - b_prev * p_prev) / b_next
            if abs(p_cur) > 1e120:
                sc = abs(p_cur)
                p_prev, p_cur = p_prev / sc, p_cur / sc
                logs = logs + float(np.log(sc))
        return p_cur, logs

    return evaluate


def poly_roots(spec: PolySpec) -> np.ndarray:
    """All real roots, ascending (see gauss_nodes)."""
    n = spec.degree
    if n < 1:
        raise DomainError("roots require degree >= 1")
    roots = gauss_nodes(spec)
    if spec.family == "gegenbauer":
        roots = np.clip(roots, -1.0, 1.0)
    return roots


# ---------------------------------------------------------------------------
# hypergeometric sums


def hyp_unit_terms(numerators: Sequence[float], denominators: Sequence[float]) -> list[float]:
    """The terms of a terminating pFq at unit argument, up to the first zero one;
    math.fsum of them is the compensated sum.

    One numerator must be a non-positive integer.
    """
    tops = [a for a in numerators if a <= 0 and a == math.floor(a)]
    if not tops:
        raise UnsupportedError(f"{len(numerators)}F{len(denominators)}(1) requires a "
                               "non-positive integer numerator")
    jmax = int(-max(tops))
    terms = [1.0]
    term = 1.0
    for j in range(jmax):
        num = 1.0
        for a in numerators:
            num *= a + j
        den = 1.0
        for b in denominators:
            den *= b + j
        if den == 0.0:
            raise DomainError("pFq denominator pochhammer hits a pole")
        term *= num / (den * (j + 1.0))
        if term == 0.0:
            break
        terms.append(term)
    return terms


def hyp_pFq(numerators: Sequence[float], denominators: Sequence[float], z: float) -> float:
    """Generalized hypergeometric function pFq(num; den; z), by mpmath at 30 digits."""
    import mpmath as mp

    with mp.workdps(30):
        return float(mp.hyper(list(numerators), list(denominators), z))


def lauricella_FA_finite(q: int, nu: int, n: int) -> float:
    """The 2q-fold finite Lauricella-A sum for the Hermite-power Renyi form.

    Requires n = nu (mod 2).  The sum runs over j_1..j_{2q} in
    [0, (n - nu)/2], in fixed lexicographic order with compensated summation.
    Index spaces above LAURICELLA_MAX_TERMS raise UnsupportedError: where they
    begin the sum has already cancelled away from the Gauss-Hermite value
    (non-positive at q = 2, n = 34; 4.6e-2 off at q = 3, n = 12).
    """
    if q < 1 or int(q) != q:
        raise DomainError("q must be a positive integer")
    if nu not in (0, 1) or n < 0:
        raise DomainError("nu must be 0/1 and n nonnegative")
    if n % 2 != nu:
        raise DomainError(f"parity mismatch: n={n}, nu={nu}")
    top = (n - nu) // 2
    if top == 0:
        return 1.0
    if (top + 1) ** (2 * q) > LAURICELLA_MAX_TERMS:
        raise UnsupportedError(
            f"the finite Lauricella sum is bounded to {LAURICELLA_MAX_TERMS} index "
            f"tuples ((n - nu)/2 + 1)^(2q); q = {q}, n = {n} exceeds it")
    base = [pochhammer((nu - n) / 2.0, j)
            / (pochhammer(nu + 0.5, j) * math.factorial(j)) * (1.0 / q) ** j
            for j in range(top + 1)]
    return math.fsum(math.prod((base[j] for j in js), start=pochhammer(q * nu + 0.5, sum(js)))
                     for js in product(range(top + 1), repeat=2 * q))


def gegenbauer_square_linearize(n: int, lam: float,
                                mu_next: int) -> list[tuple[int, float]]:
    """Dougall expansion of an orthonormal Gegenbauer square, as (2k, b_k) pairs.

    [Ct_n^(lam)]^2 = sum_k b(lam, lam + mu_next, n; k) Ct_{2k}^(lam + mu_next),
    with b from the terminating 4F3(1).
    """
    from scipy.special import gammaln

    if lam <= -0.5:
        raise DomainError("lambda must exceed -1/2")
    if mu_next < 0:
        raise DomainError("mu_next must be nonnegative")
    mu = float(mu_next)
    coeffs = []
    for k in range(n + 1):
        f43 = math.fsum(hyp_unit_terms(
            (k - n, k + n + 2 * lam, k + lam, k + lam + mu + 0.5),
            (2 * k + lam + mu + 1.0, k + 2 * lam, k + lam + 0.5)))
        lpref = (math.log(n + lam) + gammaln(k + 0.5) + gammaln(k + lam)
                 + gammaln(k + n + 2 * lam) + gammaln(lam + mu)
                 - 0.5 * math.log(math.pi) - gammaln(1.0 + n - k)
                 - gammaln(k + lam + 0.5) - gammaln(k + 2 * lam)
                 - gammaln(2 * k + lam + mu))
        linner = 0.5 * ((1.0 - 2 * lam - 2 * mu) * math.log(2.0)
                        + gammaln(2 * k + 2 * lam + 2 * mu)
                        - math.log(2 * k + lam + mu) - gammaln(2 * k + 1.0)
                        - 2.0 * gammaln(lam + mu))
        coeffs.append((2 * k, math.exp(lpref + linner) * f43))
    return coeffs


# ---------------------------------------------------------------------------
# Wigner 3j


@lru_cache(maxsize=4096)
def wigner_3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """Wigner 3j symbol, exact rational Racah sum (integer arguments), cached.

    Returns 0 for selection-rule violations rather than raising.
    """
    for v in (j1, j2, j3, m1, m2, m3):
        if int(v) != v:
            raise DomainError("only integer 3j arguments are supported")
    if m1 + m2 + m3 != 0:
        return 0.0
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    f = math.factorial
    pre = Fraction(f(j1 + j2 - j3) * f(j1 - j2 + j3) * f(-j1 + j2 + j3),
                   f(j1 + j2 + j3 + 1))
    pre *= f(j1 - m1) * f(j1 + m1) * f(j2 - m2) * f(j2 + m2) * f(j3 - m3) * f(j3 + m3)
    total = Fraction(0)
    for t in range(0, j1 + j2 + j3 + 1):
        d1 = j3 - j2 + t + m1
        d2 = j3 - j1 + t - m2
        d3 = j1 + j2 - j3 - t
        d4 = j1 - t - m1
        d5 = j2 - t + m2
        if min(d1, d2, d3, d4, d5) < 0:
            continue
        total += Fraction((-1) ** t, f(t) * f(d1) * f(d2) * f(d3) * f(d4) * f(d5))
    if total == 0:
        return 0.0
    sign = (-1) ** (j1 - j2 - m3)
    # |3j|^2 = pre * total^2 is exact rational; take the root of the exact square
    mag2 = pre * total * total
    val = math.sqrt(mag2.numerator / mag2.denominator)
    return sign * (1.0 if total > 0 else -1.0) * val
