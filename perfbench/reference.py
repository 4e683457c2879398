"""Independent reference values for the output checker.

Every entropy-type value is recomputed here as a direct integral of the
state's density, the route the oracle engine takes, but with the
benchmark's own code: the orthonormal polynomials come from closed-form
recurrence coefficients and are evaluated in log space, and each panel
between consecutive polynomial roots is integrated by a Gauss-Legendre rule
under the map u -> u^3 (10 - 15 u + 6 u^2), which flattens the t^2 ln t^2 and
|t|^(2q) endpoint behaviour at the roots.  Nothing here calls the program's
quadrature, polynomial or density code, so a defect there cannot cancel
against itself.  The oracle engine itself is far too slow to serve as the
reference at Rydberg scale (13 s for one Shannon value at n_r = 50).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

NODES = 40  # Gauss-Legendre points per panel


@lru_cache(maxsize=None)
def _mapped_rule(n: int = NODES):
    t, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (t + 1.0)
    s = u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)
    ds = 30.0 * u * u * (1.0 - u) ** 2
    return s, 0.5 * w * ds


@lru_cache(maxsize=None)
def _jacobi(family: str, n: int, param: float):
    """(a_k, b_k, log mu_0) of the orthonormal recurrence
    b_{k+1} p_{k+1} = (x - a_k) p_k - b_k p_{k-1}, k = 0..n."""
    k = np.arange(n + 2, dtype=float)
    if family == "hermite":
        a = np.zeros_like(k)
        b = np.sqrt(k / 2.0)
        log_mu0 = 0.5 * math.log(math.pi)
    elif family == "laguerre":
        a = 2.0 * k + param + 1.0
        b = np.sqrt(k * (k + param))
        log_mu0 = math.lgamma(param + 1.0)
    elif family == "gegenbauer":
        lam = param
        a = np.zeros_like(k)
        with np.errstate(divide="ignore", invalid="ignore"):
            b = np.sqrt(k * (k + 2.0 * lam - 1.0)
                        / (4.0 * (k + lam) * (k + lam - 1.0)))
        b[0] = 0.0
        log_mu0 = (0.5 * math.log(math.pi) + math.lgamma(lam + 0.5)
                   - math.lgamma(lam + 1.0))
    else:
        raise ValueError(family)
    return a, b, log_mu0


def log_poly_sq(family: str, n: int, param: float, x: np.ndarray) -> np.ndarray:
    """ln p_n(x)^2 for the orthonormal polynomial (-inf at exact roots)."""
    a, b, log_mu0 = _jacobi(family, n, param)
    p_prev = np.zeros_like(x)
    p_cur = np.ones_like(x)
    log_s = np.full_like(x, -0.5 * log_mu0)
    for k in range(n):
        p_next = ((x - a[k]) * p_cur - b[k] * p_prev) / b[k + 1]
        p_prev, p_cur = p_cur, p_next
        big = np.abs(p_cur) > 1e100
        if np.any(big):
            sc = np.where(big, np.abs(p_cur), 1.0)
            p_prev, p_cur = p_prev / sc, p_cur / sc
            log_s = log_s + np.log(sc)
    with np.errstate(divide="ignore"):
        return 2.0 * (np.log(np.abs(p_cur)) + log_s)


@lru_cache(maxsize=256)
def roots(family: str, n: int, param: float) -> tuple:
    if n == 0:
        return ()
    a, b, _ = _jacobi(family, n, param)
    return tuple(eigvalsh_tridiagonal(a[:n], b[1:n]))


def _panel_nodes(edges) -> tuple[np.ndarray, np.ndarray]:
    s, w = _mapped_rule()
    edges = np.asarray(edges, dtype=float)
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return (lo + width * s).ravel(), (width * w).ravel()


def _tail_edges(start: float, decay: float, step: float) -> list[float]:
    """Panels from start out to where exp(-decay * distance) < 1e-40."""
    stop = start + 92.0 / decay
    count = max(4, int(math.ceil((stop - start) / step)))
    return list(np.linspace(start, stop, count + 1)[1:])


# ---------------------------------------------------------------------------
# one-dimensional kernels: (nodes, weights, ln density) for each factor


@lru_cache(maxsize=64)
def radial_kernel(nr: int, l: int, D: int):
    """Nodes in x = w r^2 and ln of x^alpha e^-x p^2 (the radial measure).

    The tail reaches far enough for powers q >= 1/2 of the density."""
    alpha = l + D / 2.0 - 1.0
    rts = roots("laguerre", nr, alpha)
    last = rts[-1] if rts else 0.0
    edges = [0.0, *rts] + _tail_edges(last, 0.25, 4.0 + 0.1 * last)
    x, w = _panel_nodes(edges)
    keep = x > 0
    x, w = x[keep], w[keep]
    lm = alpha * np.log(x) - x + log_poly_sq("laguerre", nr, alpha, x)
    return x, w, lm


@lru_cache(maxsize=64)
def angular_kernel(deg: int, lam: float):
    """Nodes on (-1, 1) and ln of (1-x^2)^(lam-1/2) p^2 (one angular factor)."""
    edges = [-1.0, *roots("gegenbauer", deg, lam), 1.0]
    x, w = _panel_nodes(edges)
    keep = np.abs(x) < 1.0
    x, w = x[keep], w[keep]
    lm = (lam - 0.5) * np.log1p(-x * x) + log_poly_sq("gegenbauer", deg, lam, x)
    return x, w, lm


@lru_cache(maxsize=64)
def hermite_kernel(n: int):
    """Nodes on the line and ln of e^-t^2 p^2 (one Cartesian axis)."""
    rts = roots("hermite", n, 0.0)
    tail = _tail_edges(rts[-1] if rts else 0.0, 6.0, 0.5)
    x, w = _panel_nodes(sorted({0.0, *rts, *tail, *(-t for t in tail)}))
    return x, w, -x * x + log_poly_sq("hermite", n, 0.0, x)


def _xlogx(w, lm, ln_rho):
    """-int rho ln rho with the measure exp(lm) and ln rho given at the nodes."""
    with np.errstate(invalid="ignore"):
        vals = np.where(np.isfinite(lm), np.exp(lm) * ln_rho, 0.0)
    return -float(np.dot(w, vals))


def _power(w, lm, q, extra=0.0):
    """int exp(q lm + extra) over the nodes."""
    with np.errstate(invalid="ignore"):
        vals = np.where(np.isfinite(lm), np.exp(q * lm + extra), 0.0)
    return float(np.dot(w, vals))


# ---------------------------------------------------------------------------
# states (wire-format dicts)


def _angular_factors(mu: list[int], D: int):
    """(alpha_j, degree, mu_{j+1}) for j = 1..D-2 with |m| on the last label."""
    chain = list(mu[:-1]) + [abs(mu[-1])]
    return [((D - j - 1) / 2.0, chain[j - 1] - chain[j], chain[j])
            for j in range(1, D - 1)]


def _hyper_parts(state: dict):
    D, nr, mu = int(state["D"]), int(state["nr"]), list(state["mu"])
    l = mu[0] if D >= 3 else abs(mu[0])
    return D, nr, l, _angular_factors(mu, D)


def _width(omega: float, space: str) -> float:
    return omega if space == "position" else 1.0 / omega


def shannon(state: dict, space: str) -> float:
    w = _width(float(state["omega"]), space)
    if state["kind"] == "cartesian":
        total = 0.0
        for n in state["n"]:
            x, wt, lm = hermite_kernel(int(n))
            total += _xlogx(wt, lm, lm + 0.5 * math.log(w))
        return total
    D, nr, l, factors = _hyper_parts(state)
    x, wt, lm = radial_kernel(nr, l, D)
    # rho = 2 w^(D/2) x^l e^-x p^2 = exp(lm) * 2 w^(D/2) x^(1 - D/2)
    ln_rho = lm + math.log(2.0) + (D / 2.0) * math.log(w) + (1.0 - D / 2.0) * np.log(x)
    total = _xlogx(wt, lm, ln_rho) + math.log(2.0 * math.pi)
    for aj, deg, mj1 in factors:
        xa, wa, la = angular_kernel(deg, aj + mj1)
        total += _xlogx(wa, la, la - (aj - 0.5) * np.log1p(-xa * xa))
    return total


def log_power_integral(state: dict, space: str, q: float) -> float:
    """ln int rho^q over the whole space."""
    w = _width(float(state["omega"]), space)
    if state["kind"] == "cartesian":
        total = 0.0
        for n in state["n"]:
            x, wt, lm = hermite_kernel(int(n))
            total += math.log(_power(wt, lm, q)) + 0.5 * (q - 1.0) * math.log(w)
        return total
    D, nr, l, factors = _hyper_parts(state)
    x, wt, lm = radial_kernel(nr, l, D)
    # rho^q r^(D-1) dr = exp(q lm) (2 w^(D/2) x^(1-D/2))^q x^(D/2-1) w^(-D/2) / 2 dx
    extra = ((q - 1.0) * (math.log(2.0) + (D / 2.0) * math.log(w))
             + (q - 1.0) * (1.0 - D / 2.0) * np.log(x))
    total = math.log(_power(wt, lm, q, extra)) + (1.0 - q) * math.log(2.0 * math.pi)
    for aj, deg, mj1 in factors:
        xa, wa, la = angular_kernel(deg, aj + mj1)
        # factor^q times the weight (1-x^2)^(aj-1/2)
        total += math.log(_power(wa, la, q, (1.0 - q) * (aj - 0.5) * np.log1p(-xa * xa)))
    return total


def renyi(state: dict, space: str, q: float) -> float:
    return log_power_integral(state, space, q) / (1.0 - q)


def disequilibrium(state: dict) -> float:
    return math.exp(log_power_integral(state, "position", 2.0))


def energy(state: dict) -> float:
    om = float(state["omega"])
    if state["kind"] == "cartesian":
        return (sum(state["n"]) + len(state["n"]) / 2.0) * om
    D, nr, l, _ = _hyper_parts(state)
    return (2 * nr + l + D / 2.0) * om


def heisenberg_k2(state: dict) -> float:
    D, nr, l, _ = _hyper_parts(state)
    return (2 * nr + l + D / 2.0) ** 2
