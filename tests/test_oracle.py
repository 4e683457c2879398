"""Quadrature engine: rule exactness, adaptive integrals, norms, entropies."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln

from dho import oracle, specfun
from dho.errors import DomainError, UnsupportedError
from dho.specfun import PolySpec


def _symmetric_jacobi_moment(a: float, k: int) -> float:
    # int_-1^1 x^k (1-x^2)^a dx, exact for even k
    if k % 2:
        return 0.0
    m = k // 2
    return math.exp(gammaln(m + 0.5) + gammaln(a + 1.0) - gammaln(m + a + 1.5))


class TestGaussRules:
    def test_hermite_order_1(self):
        r = oracle.gauss_rule("hermite", 1)
        assert r.nodes.tolist() == [0.0]
        assert r.weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_laguerre0_order_1(self):
        r = oracle.gauss_rule("laguerre", 1, 0.0)
        assert r.nodes[0] == pytest.approx(1.0, rel=1e-14)
        assert r.weights[0] == pytest.approx(1.0, rel=1e-14)

    def test_legendre_order_2(self):
        r = oracle.gauss_rule("jacobi", 2, 0.0, 0.0)
        assert r.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], rel=1e-14)
        assert r.weights == pytest.approx([1.0, 1.0], rel=1e-14)

    @pytest.mark.parametrize("order", [4, 13, 33])
    def test_hermite_exactness(self, order):
        r = oracle.gauss_rule("hermite", order)
        for k in range(0, 2 * order - 1):
            got = float(np.sum(r.weights * r.nodes ** k))
            exact = math.gamma((k + 1) / 2.0) if k % 2 == 0 else 0.0
            scale = float(np.sum(r.weights * np.abs(r.nodes) ** k))
            assert abs(got - exact) <= 1e-12 * max(scale, 1e-300)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 3.7])
    def test_laguerre_exactness(self, alpha):
        order = 21
        r = oracle.gauss_rule("laguerre", order, alpha)
        for k in range(0, 2 * order - 1):
            got = float(np.sum(r.weights * r.nodes ** k))
            exact = math.exp(gammaln(k + 1.0 + alpha))
            assert got == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("a", [-0.5, 0.0, 1.5])
    def test_symmetric_jacobi_exactness(self, a):
        order = 17
        r = oracle.gauss_rule("jacobi", order, a, a)
        for k in range(0, 2 * order - 1):
            got = float(np.sum(r.weights * r.nodes ** k))
            exact = _symmetric_jacobi_moment(a, k)
            scale = float(np.sum(r.weights * np.abs(r.nodes) ** k))
            assert abs(got - exact) <= 1e-12 * max(scale, 1e-300)

    def test_nodes_increasing_weights_positive(self):
        for fam, params in (("hermite", ()), ("laguerre", (2.0,)), ("jacobi", (0.3, 1.1))):
            r = oracle.gauss_rule(fam, 25, *params)
            assert np.all(np.diff(r.nodes) > 0)
            assert np.all(r.weights > 0)

    def test_rule_cache_returns_same_object(self):
        a = oracle.gauss_rule("laguerre", 9, 1.0)
        b = oracle.gauss_rule("laguerre", 9, 1.0)
        assert a is b

    def test_extreme_parameter_log_weights(self):
        r = oracle.gauss_rule("laguerre", 30, 5000.0)
        m = float(r.log_weights.max())
        mass = m + math.log(float(np.sum(np.exp(r.log_weights - m))))
        assert mass == pytest.approx(float(gammaln(5001.0)), rel=1e-10)

    @pytest.mark.parametrize("order, alpha", [(300, 0.0), (802, 3.7)])
    def test_laguerre_log_weights_match_mpmath(self, order, alpha):
        r = oracle.gauss_rule("laguerre", order, alpha)
        for i in (0, 1, order // 3, order // 2, order - 1):
            with mp.workdps(40):
                a, x = mp.mpf(alpha), mp.mpf(float(r.nodes[i]))
                for _ in range(3):  # Newton on the orthonormal recurrence
                    p_prev, p, d_prev, d = 0, 1 / mp.sqrt(mp.gamma(a + 1)), 0, 0
                    christoffel, b_prev = 0, 0
                    for k in range(order):
                        christoffel += p * p  # sum of p_k^2 for k < order
                        b = mp.sqrt((k + 1) * (k + 1 + a))
                        t = x - (2 * k + a + 1)
                        d_prev, d = d, (t * d + p - b_prev * d_prev) / b
                        p_prev, p = p, (t * p - b_prev * p_prev) / b
                        b_prev = b
                    x -= p / d
                ref = float(-mp.log(christoffel))
            assert abs(r.log_weights[i] - ref) <= 1e-11

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            oracle.gauss_rule("laguerre", 5, -1.5)
        with pytest.raises(DomainError):
            oracle.gauss_rule("hermite", 0)

    def test_orders_above_the_bound_are_refused_before_any_build(self, monkeypatch):
        def build(family, parameter, order, weights=False):
            assert order <= oracle.GAUSS_MAX_ORDER, "built a rule past the bound"
            return np.zeros(1), np.zeros(1)

        monkeypatch.setattr(specfun, "gauss_nodes", build)
        monkeypatch.setattr(oracle, "_RULE_CACHE", oracle.BoundedCache(4))
        oracle.gauss_rule("hermite", oracle.GAUSS_MAX_ORDER)
        with pytest.raises(UnsupportedError, match="order <= 12000"):
            oracle.gauss_rule("hermite", oracle.GAUSS_MAX_ORDER + 1)
        # integer-q lq_integral needs order q n + 2 (+ ceil(a) // 2 for laguerre)
        for spec, a in ((PolySpec("hermite", 5000), 0.0), (PolySpec("laguerre", 5999, 0.5), 1.5),
                        (PolySpec("gegenbauer", 4000, 1.0), 0.5)):
            with pytest.raises(UnsupportedError):
                oracle.lq_integral(spec, 3.0, a)
        with pytest.raises(UnsupportedError):
            oracle.lq_integral(PolySpec("hermite", 2), 1e308)

    def test_rules_through_a_small_cache_equal_fresh_builds(self, monkeypatch):
        small = oracle.BoundedCache(3)
        monkeypatch.setattr(oracle, "_RULE_CACHE", small)
        requests = [("laguerre", order, (0.5 * (order % 3),)) for order in range(5, 12)]
        requests += [("hermite", 7, ()), ("jacobi", 6, (0.5, -0.25))] + requests[::-1]
        for family, order, params in requests:
            rule = oracle.gauss_rule(family, order, *params)
            assert len(small) <= small.maxsize
            assert small[(family, params, order)] is rule
        assert len(small) == small.maxsize
        for (family, params, order), rule in small.items():
            nodes, log_w = specfun.gauss_nodes(family, params[0] if len(params) == 1
                                               else params or None, order, weights=True)
            assert np.array_equal(rule.nodes, nodes)
            assert np.array_equal(rule.log_weights, log_w)
            assert np.array_equal(rule.weights, np.exp(log_w))


class TestBoundedCache:
    def test_evicts_the_least_recently_used_entry(self):
        cache = oracle.BoundedCache(2)
        for key in "abc":
            assert cache.get_or_compute(key, key.upper) == key.upper()
        assert list(cache.items()) == [("b", "B"), ("c", "C")]

    def test_a_hit_refreshes_an_entry(self):
        cache = oracle.BoundedCache(2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        assert cache.get_or_compute("a", lambda: pytest.fail("a hit was recomputed")) == 1
        cache.get_or_compute("c", lambda: 3)
        assert list(cache) == ["a", "c"]

    def test_len_never_exceeds_maxsize(self):
        cache = oracle.BoundedCache(3)
        for i in range(40):
            cache.get_or_compute((i * 7) % 11, lambda i=i: (i * 7) % 11)
            assert len(cache) <= 3
        assert len(cache) == 3


class TestAdaptive:
    def test_exponential(self):
        est = oracle.integrate_adaptive(lambda x: math.exp(-x), 0.0, math.inf)
        assert est.value == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_log_moment(self):
        f = lambda x: math.exp(-x * x) * (-x * x)
        est = oracle.integrate_adaptive(f, -math.inf, math.inf)
        assert est.value == pytest.approx(-math.sqrt(math.pi) / 2.0, rel=1e-11)

    def test_entropy_integrand_self_convergence(self):
        spec = PolySpec("laguerre", 2, 0.5)
        roots = specfun.poly_roots(spec)

        def f(x):
            y = float(specfun.eval_poly(spec, np.array([x]))[0])
            y2 = y * y
            if y2 == 0.0 or x <= 0.0:
                return 0.0
            return x ** 0.5 * math.exp(-x) * y2 * math.log(y2)

        coarse = oracle.integrate_adaptive(f, 0.0, math.inf, roots, tol=1e-9)
        fine = oracle.integrate_adaptive(f, 0.0, math.inf, roots, tol=1e-12)
        assert math.isfinite(coarse.value)
        assert abs(coarse.value - fine.value) <= max(1e-9 * abs(fine.value),
                                                     coarse.abs_error_estimate * 10)

    def test_halving_tol_consistency(self):
        f = lambda x: math.exp(-x) * math.log(1.0 + x)
        a = oracle.integrate_adaptive(f, 0.0, math.inf, tol=1e-8)
        b = oracle.integrate_adaptive(f, 0.0, math.inf, tol=1e-12)
        assert abs(a.value - b.value) <= max(a.abs_error_estimate, 1e-10)

    def test_error_estimate_nonnegative(self):
        est = oracle.integrate_adaptive(lambda x: x * x, 0.0, 1.0)
        assert est.abs_error_estimate >= 0.0
        assert est.subdivisions >= 1

    def test_panels_call_through_module_quad(self, monkeypatch):
        # instrumentation rebinds oracle.quad; every QUADPACK panel must see it
        from dho import infomeasures

        calls = []
        quad = oracle.quad

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return quad(*args, **kwargs)

        monkeypatch.setattr(oracle, "quad", counted)
        est = infomeasures.hermite_entropy_oracle(2)
        assert est.value == pytest.approx(infomeasures.hermite_entropy(2), rel=1e-10)
        # two infinite tails (two substitution panels each) plus one panel
        # between the two roots of H_2
        assert len(calls) == 5


class TestWeightedNorm:
    def test_q1_is_normalization(self):
        for nr in (0, 1, 4, 9):
            for l in (0, 2):
                for D in (2, 3, 6):
                    assert oracle.weighted_Lq_norm(nr, l, D, 1.0) == pytest.approx(
                        1.0, rel=1e-12)

    def test_ground_q2_d2(self):
        # constant polynomial: int_0^inf e^{-2x} dx = 1/2
        assert oracle.weighted_Lq_norm(0, 0, 2, 2.0) == pytest.approx(0.5, rel=1e-13)

    def test_gauss_vs_adaptive(self):
        for (nr, l, D, q) in ((1, 0, 3, 2.0), (3, 1, 5, 2.0), (2, 2, 4, 3.0)):
            exact = oracle.weighted_Lq_norm(nr, l, D, q)
            # non-integer path forced through a nearby call with the adaptive engine
            adaptive = oracle.weighted_Lq_norm(nr, l, D, q + 1e-12, tol=1e-12)
            assert exact == pytest.approx(adaptive, rel=1e-9)

    def test_parameter_guards(self):
        # the integral-convergence condition itself is unviolable for D >= 2,
        # l >= 0, q > 0 (D/2 + l q - 1 > -1 always); only bad q/D can raise
        with pytest.raises(DomainError):
            oracle.weighted_Lq_norm(1, 0, 3, 0.0)
        with pytest.raises(DomainError):
            oracle.weighted_Lq_norm(1, 0, 1, 2.0)


def _mp_orthonormal(spec: PolySpec):
    """The orthonormal member as a 30-digit mpmath function."""
    n, p = spec.degree, spec.parameter
    if spec.family == "hermite":
        h = 2 ** n * mp.factorial(n) * mp.sqrt(mp.pi)
        return lambda x: mp.hermite(n, x) / mp.sqrt(h)
    if spec.family == "laguerre":
        h = mp.gamma(n + p + 1) / mp.factorial(n)
        return lambda x: mp.laguerre(n, p, x) / mp.sqrt(h)
    h = (mp.pi * mp.mpf(2) ** (1 - 2 * p) * mp.gamma(n + 2 * p)
         / (mp.factorial(n) * (n + p) * mp.gamma(p) ** 2))
    return lambda x: mp.gegenbauer(n, p, x) / mp.sqrt(h)


def _mp_lq_integral(spec: PolySpec, q: float, a: float):
    """int |y|^(2q) w dx at 30 digits with breakpoints at the roots of y."""
    support = {"hermite": (-mp.inf, mp.inf), "laguerre": (0, mp.inf),
               "gegenbauer": (-1, 1)}[spec.family]
    log_w = {"hermite": lambda x: -q * x * x,
             "laguerre": lambda x: a * mp.log(x) - q * x,
             "gegenbauer": lambda x: a * mp.log(1 - x * x)}[spec.family]
    roots = [mp.mpf(float(r)) for r in specfun.poly_roots(spec)] if spec.degree else []
    with mp.workdps(30):
        y = _mp_orthonormal(spec)
        return mp.quad(lambda x: abs(y(x)) ** (2 * mp.mpf(q)) * mp.exp(log_w(x)),
                       [support[0], *roots, support[1]])


class TestLqIntegral:
    def test_gegenbauer_degree0_closed_form(self):
        lam, a, q = 1.5, 1.3, 0.7
        with mp.workdps(30):
            mass = mp.sqrt(mp.pi) * mp.gamma(lam + 0.5) / mp.gamma(lam + 1)
            exact = float(mass ** (-q) * mp.beta(0.5, a + 1))
        got = oracle.lq_integral(PolySpec("gegenbauer", 0, lam), q, a)
        assert got == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("spec,q,a", [
        (PolySpec("gegenbauer", 3, 2.0), 2.0 / 3.0, 1.2),
        (PolySpec("hermite", 5, None), 0.6, 0.0),
        (PolySpec("hermite", 2, None), 0.1, 0.0),  # the span grows as 1/sqrt(q)
        (PolySpec("laguerre", 6, 1.5), 0.8, 1.3),
    ])
    def test_real_q_matches_mpmath(self, spec, q, a):
        exact = float(_mp_lq_integral(spec, q, a))
        assert oracle.lq_integral(spec, q, a) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("spec,q,a", [
        (PolySpec("hermite", 2, None), 2, 0.0),
        (PolySpec("hermite", 4, None), 3, 0.0),
        (PolySpec("hermite", 12, None), 2, 0.0),
        (PolySpec("hermite", 24, None), 2, 0.0),  # the paper's Lauricella sum is <= 0 here
        (PolySpec("hermite", 30, None), 3, 0.0),
        (PolySpec("laguerre", 3, 0.5), 2, 0.5),
        (PolySpec("laguerre", 4, 1.0), 3, 0.0),
        (PolySpec("laguerre", 12, 2.5), 2, 1.5),
        (PolySpec("gegenbauer", 6, 1.5), 2, 0.5),
    ])
    def test_integer_q_matches_mpmath(self, spec, q, a):
        exact = float(_mp_lq_integral(spec, q, a))
        assert oracle.lq_integral(spec, q, a) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("spec,a", [
        (PolySpec("gegenbauer", 3, 2.0), 1.2),
        (PolySpec("hermite", 5, None), 0.0),
        (PolySpec("laguerre", 6, 1.5), 2.5),
    ])
    @pytest.mark.parametrize("q", [2, 3])
    def test_integer_q_gauss_rule_matches_panels(self, spec, a, q):
        panels = oracle._root_panel_integral(
            spec, a, float(q), lambda lw, ln_y2: np.exp(lw + q * ln_y2), None)
        assert oracle.lq_integral(spec, q, a) == pytest.approx(panels, rel=1e-12)

    def test_q_must_be_positive(self):
        with pytest.raises(DomainError):
            oracle.lq_integral(PolySpec("hermite", 2, None), 0.0)


class TestPolynomialEntropy:
    def test_laguerre_degree0(self):
        for alpha in (0.5, 2.0, 7.0):
            got = oracle.polynomial_entropy(PolySpec("laguerre", 0, alpha))
            assert got == pytest.approx(float(gammaln(alpha + 1.0)), rel=1e-11, abs=1e-11)

    def test_gegenbauer_degree0(self):
        for lam in (0.5, 1.5, 4.0):
            got = oracle.polynomial_entropy(PolySpec("gegenbauer", 0, lam))
            exact = (0.5 * math.log(math.pi) + gammaln(lam + 0.5) - gammaln(lam + 1.0))
            assert got == pytest.approx(float(exact), rel=1e-11, abs=1e-11)

    def test_orthonormal_required(self):
        with pytest.raises(DomainError):
            oracle.polynomial_entropy(PolySpec("laguerre", 2, 0.5, "orthogonal"))

    @pytest.mark.parametrize("family, parameter", [("hermite", None), ("laguerre", 0.5),
                                                   ("gegenbauer", 1.5)])
    def test_panel_kernels_refuse_above_the_degree_bound(self, family, parameter,
                                                         monkeypatch):
        def kernel_work(*args, **kwargs):
            raise AssertionError("the kernel ran past its degree bound")

        monkeypatch.setattr(specfun, "poly_roots", kernel_work)
        monkeypatch.setattr(oracle, "integrate_panels_vectorized", kernel_work)
        spec = PolySpec(family, oracle.PANEL_MAX_DEGREE + 1, parameter)
        with pytest.raises(UnsupportedError, match="degree <= 2000"):
            oracle.polynomial_entropy(spec)
        with pytest.raises(UnsupportedError):
            oracle.lq_integral(spec, 0.8, 0.5)

    def test_default_tolerance_env_override(self, monkeypatch):
        monkeypatch.setenv("HO_ORACLE_TOL", "1e-6")
        assert oracle.default_tolerance() == 1e-6
        monkeypatch.setenv("HO_ORACLE_TOL", "-1")
        with pytest.raises(DomainError):
            oracle.default_tolerance()
        monkeypatch.setenv("HO_ORACLE_TOL", "zzz")
        with pytest.raises(DomainError):
            oracle.default_tolerance()


def _all_nodes_reference(f_vec, edges, tol, max_level=11):
    """The refinement loop with every level evaluating all of its nodes."""
    edges = np.asarray(sorted(edges), dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    prev = None
    for level in range(4, max_level + 1):
        u, w = _all_level_nodes(level)
        x = (mid[:, None] + half[:, None] * u[None, :]).ravel()
        vals = np.asarray(f_vec(x), dtype=float).reshape(len(mid), len(u))
        total = float(np.sum((half[:, None] * w[None, :]) * vals))
        if prev is not None and abs(total - prev) <= max(tol * abs(total), oracle.ABS_FLOOR):
            return oracle.IntegralEstimate(total, abs(total - prev), len(mid) * len(u)), x
        prev = total
    raise AssertionError("reference did not converge")


def _all_level_nodes(level):
    h = 0.5 ** level
    t = np.arange(-int(6.1 / h), int(6.1 / h) + 1) * h
    sinh_t = np.sinh(t)
    u = np.tanh(0.5 * math.pi * sinh_t)
    w = h * 0.5 * math.pi * np.cosh(t) / np.cosh(0.5 * math.pi * sinh_t) ** 2
    keep = w > 1e-320
    return u[keep], w[keep]


class TestNestedLevels:
    # the 12-, 3- and entropy cases also catch a total summed as
    # 0.5 * previous + new nodes, which moves them in the last digit
    @pytest.mark.parametrize("run", [
        lambda: oracle.weighted_Lq_norm(50, 0, 3, 0.8),
        lambda: oracle.weighted_Lq_norm(12, 0, 3, 0.8),
        lambda: oracle.lq_integral(PolySpec("hermite", 7, None), 0.6),
        lambda: oracle.lq_integral(PolySpec("hermite", 3, None), 0.6),
        lambda: oracle.polynomial_entropy(PolySpec("gegenbauer", 7, 1.5)),
    ], ids=["laguerre-50-q0.8", "laguerre-12-q0.8", "hermite-7-q0.6", "hermite-3-q0.6",
            "gegenbauer-entropy"])
    def test_bit_identical_to_all_nodes_and_each_node_evaluated_once(self, run,
                                                                      monkeypatch):
        nested = oracle.integrate_panels_vectorized
        calls = []

        def both(f_vec, edges, tol=None, max_level=11):
            seen = []

            def recording(x):
                seen.append(np.array(x))
                return f_vec(x)

            est = nested(recording, edges, tol=tol, max_level=max_level)
            tol = oracle.default_tolerance() if tol is None else tol
            calls.append((est, seen, *_all_nodes_reference(f_vec, edges, tol, max_level)))
            return est

        monkeypatch.setattr(oracle, "integrate_panels_vectorized", both)
        monkeypatch.setattr(oracle, "_ENTROPY_CACHE", oracle.BoundedCache(256))
        run()
        (est, seen, ref, final_x), = calls
        assert est == ref  # value, error estimate and node count, exactly
        assert len(seen) > 1  # refinement went past the first level
        # f_vec saw the final level's panels x nodes, each once (as a multiset:
        # tanh saturates, so many nodes of a panel sit exactly on its edges)
        got = np.concatenate(seen)
        assert got.size == est.subdivisions == final_x.size
        assert np.array_equal(np.sort(got), np.sort(final_x))


class TestConcurrency:
    def test_rule_cache_thread_safety(self):
        import concurrent.futures as cf

        import dho.oracle as orc

        def work(i):
            rule = orc.gauss_rule("laguerre", 10 + (i % 5), 0.5 + (i % 3))
            val = orc.weighted_Lq_norm(2 + (i % 3), i % 2, 3, 2.0)
            ent = orc.polynomial_entropy(
                __import__("dho.specfun", fromlist=["PolySpec"]).PolySpec(
                    "laguerre", 3 + (i % 2), 1.0))
            return (float(rule.weights.sum()), val, ent)

        with cf.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(32)))
        # identical inputs give identical outputs regardless of interleaving
        by_key = {}
        for i, res in enumerate(results):
            key = (10 + (i % 5), 0.5 + (i % 3), 2 + (i % 3), i % 2, 3 + (i % 2))
            by_key.setdefault(key, res)
            assert by_key[key] == res

    def test_bounded_cache_under_thread_contention(self):
        import concurrent.futures as cf
        import sys
        import time

        class Yielding(oracle.BoundedCache):
            """Invites a thread switch inside each membership and size test."""

            def __contains__(self, key):
                found = super().__contains__(key)
                time.sleep(0)
                return found

            def __len__(self):
                size = super().__len__()
                time.sleep(0)
                return size

        cache = Yielding(4)

        def work(i):
            key = (i * 5) % 13
            return key, cache.get_or_compute(key, lambda: key * key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with cf.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, i) for i in range(2000)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        # without the lock a key evicted between the test and the use raises
        # KeyError, and two threads that both see one entry too many both evict
        assert all(value == key * key for key, value in results)
        assert len(cache) == 4
        assert all(value == key * key for key, value in cache.items())
