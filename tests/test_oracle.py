"""Quadrature engine: rule exactness, adaptive integrals, norms, entropies."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln

from dho import oracle, specfun
from dho.errors import ConvergenceError, DomainError, UnsupportedError
from dho.specfun import PolySpec


def _gegenbauer_moment(lam: float, k: int) -> float:
    # int_-1^1 x^k (1-x^2)^(lam - 1/2) dx, exact for even k
    if k % 2:
        return 0.0
    m = k // 2
    return math.exp(gammaln(m + 0.5) + gammaln(lam + 0.5) - gammaln(m + lam + 1.0))


class TestGaussRules:
    def test_hermite_order_1(self):
        r = oracle.gauss_rule("hermite", 1)
        assert r.nodes.tolist() == [0.0]
        assert np.exp(r.log_weights)[0] == pytest.approx(math.sqrt(math.pi), rel=1e-15, abs=0.0)

    def test_laguerre0_order_1(self):
        r = oracle.gauss_rule("laguerre", 1, 0.0)
        assert r.nodes[0] == pytest.approx(1.0, rel=1e-14, abs=0.0)
        assert np.exp(r.log_weights)[0] == pytest.approx(1.0, rel=1e-14, abs=0.0)

    def test_legendre_order_2(self):
        r = oracle.gauss_rule("gegenbauer", 2, 0.5)
        assert r.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], rel=1e-14, abs=0.0)
        assert np.exp(r.log_weights) == pytest.approx([1.0, 1.0], rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("order", [4, 13, 33])
    def test_hermite_exactness(self, order):
        r = oracle.gauss_rule("hermite", order)
        for k in range(0, 2 * order - 1):
            got = float(np.sum(np.exp(r.log_weights) * r.nodes ** k))
            exact = math.gamma((k + 1) / 2.0) if k % 2 == 0 else 0.0
            scale = float(np.sum(np.exp(r.log_weights) * np.abs(r.nodes) ** k))
            assert abs(got - exact) <= 1e-12 * max(scale, 1e-300)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 3.7])
    def test_laguerre_exactness(self, alpha):
        order = 21
        r = oracle.gauss_rule("laguerre", order, alpha)
        for k in range(0, 2 * order - 1):
            got = float(np.sum(np.exp(r.log_weights) * r.nodes ** k))
            exact = math.exp(gammaln(k + 1.0 + alpha))
            assert got == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
    def test_gegenbauer_exactness(self, lam):
        order = 17
        r = oracle.gauss_rule("gegenbauer", order, lam)
        for k in range(0, 2 * order - 1):
            got = float(np.sum(np.exp(r.log_weights) * r.nodes ** k))
            exact = _gegenbauer_moment(lam, k)
            scale = float(np.sum(np.exp(r.log_weights) * np.abs(r.nodes) ** k))
            assert abs(got - exact) <= 1e-12 * max(scale, 1e-300)

    def test_nodes_increasing_weights_positive(self):
        for fam, params in (("hermite", ()), ("laguerre", (2.0,)), ("gegenbauer", (1.2,))):
            r = oracle.gauss_rule(fam, 25, *params)
            assert np.all(np.diff(r.nodes) > 0)
            assert np.all(np.exp(r.log_weights) > 0)

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

    @pytest.mark.parametrize("family, params", [("laguerre", (1.0, 2.0)),
                                                ("gegenbauer", (0.5, 0.5)),
                                                ("hermite", (0.0, 0.0))])
    def test_more_than_one_parameter_is_refused(self, family, params):
        with pytest.raises(TypeError):
            oracle.gauss_rule(family, 5, *params)

    def test_jacobi_family_is_refused(self):
        with pytest.raises(DomainError, match="unknown family 'jacobi'"):
            oracle.gauss_rule("jacobi", 6, 0.5)

    @pytest.mark.parametrize("lam", [-0.5, -0.75])
    def test_gegenbauer_lambda_at_or_below_minus_half_is_refused(self, lam):
        with pytest.raises(DomainError, match="lambda > -1/2"):
            oracle.gauss_rule("gegenbauer", 6, lam)

    def test_orders_above_the_bound_are_refused_before_any_build(self, monkeypatch):
        def build(spec, weights=False):
            assert spec.degree <= oracle.GAUSS_MAX_ORDER, "built a rule past the bound"
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
        requests += [("hermite", 7, ()), ("gegenbauer", 6, (0.25,))] + requests[::-1]
        for family, order, params in requests:
            rule = oracle.gauss_rule(family, order, *params)
            assert len(small) <= small.maxsize
            assert small[(family, params, order)] is rule
        assert len(small) == small.maxsize
        for (family, params, order), rule in small.items():
            nodes, log_w = specfun.gauss_nodes(PolySpec(family, order, *params),
                                               weights=True)
            assert np.array_equal(rule.nodes, nodes)
            assert np.array_equal(rule.log_weights, log_w)


def _mp_node_and_log_weight(spec: PolySpec, x0: float):
    """The node next to x0 and its log Gauss weight, in 40 digits: two Newton
    steps on the orthonormal recurrence (the start is within ~1e-11), the
    Christoffel sum 1/w = sum_{k<n} p_k^2 taken at the point of the second."""
    n = spec.degree
    with mp.workdps(40):
        if spec.family == "hermite":
            mass, a = mp.sqrt(mp.pi), None
        elif spec.family == "laguerre":
            a = mp.mpf(spec.parameter)
            mass = mp.gamma(a + 1)
        else:
            a = mp.mpf(spec.parameter)
            mass = mp.sqrt(mp.pi) * mp.gamma(a + 0.5) / mp.gamma(a + 1)
        table = []
        for k in range(1, n + 1):  # (diagonal of row k - 1, b_k)
            if spec.family == "hermite":
                table.append((0, mp.sqrt(mp.mpf(k) / 2)))
            elif spec.family == "laguerre":
                table.append((2 * k + a - 1, mp.sqrt(k * (k + a))))
            else:
                table.append((0, mp.sqrt(k * (k + 2 * a - 1) / ((k + a) * (k + a - 1))) / 2
                              if k > 1 else mp.sqrt(2 / (1 + a)) / 2))
        x = mp.mpf(x0)
        for _ in range(2):
            p_prev, p, d_prev, d, b_prev, christoffel = 0, 1 / mp.sqrt(mass), 0, 0, 0, 0
            for diag, b in table:
                christoffel += p * p
                t = x - diag
                d_prev, d = d, (t * d + p - b_prev * d_prev) / b
                p_prev, p = p, (t * p - b_prev * p_prev) / b
                b_prev = b
            x -= p / d
        return float(x), float(-mp.log(christoffel))


# Largest relative node error and |log w| error at the nodes that
# TestGaussNodesAgainstMpmath checks, of the rules built with two full Newton
# passes and a weights pass at the final nodes.  The forward recurrence's
# rounding grows about as n^2, and the small-x nodes carry it.
THREE_PASS_ERRORS = {
    ("laguerre", 139, 0.5): (5.2e-14, 1.14e-13), ("laguerre", 139, 3.7): (1.6e-14, 5.7e-14),
    ("laguerre", 139, 6.5): (2.1e-14, 1.12e-13), ("laguerre", 400, 0.5): (1.26e-12, 4.1e-13),
    ("laguerre", 400, 3.7): (3.7e-13, 3.23e-12), ("laguerre", 400, 6.5): (2.64e-13, 5.6e-13),
    ("laguerre", 802, 0.5): (1.15e-12, 3.18e-12), ("laguerre", 802, 3.7): (1.48e-12, 4.21e-12),
    ("laguerre", 802, 6.5): (4.0e-13, 2.72e-12), ("laguerre", 1602, 0.5): (1.14e-11, 2.09e-11),
    ("laguerre", 1602, 3.7): (4.26e-12, 3.09e-11), ("laguerre", 1602, 6.5): (4.27e-12, 5.2e-11),
    ("hermite", 400, None): (2.5e-16, 1.14e-13), ("hermite", 401, None): (0.0, 1.14e-13),
    ("gegenbauer", 400, 0.5): (2.2e-16, 2.18e-12), ("gegenbauer", 401, 1.5): (0.0, 1.12e-12),
}


class TestGaussNodesAgainstMpmath:
    @pytest.mark.parametrize("key", THREE_PASS_ERRORS, ids=lambda key: "-".join(map(str, key)))
    def test_no_worse_than_the_three_pass_rule(self, key):
        spec = PolySpec(*key)
        n = spec.degree
        nodes, log_w = specfun.gauss_nodes(spec, weights=True)
        node_err, log_w_err = THREE_PASS_ERRORS[key]
        ulp = np.finfo(float).eps
        for i in sorted({0, 1, 2, 5, n // 3, n // 2, n - 2, n - 1}):
            x, lw = _mp_node_and_log_weight(spec, float(nodes[i]))
            # a 25% margin and one rounding of the value itself
            assert abs(nodes[i] - x) <= (1.25 * node_err + ulp) * abs(x) + 1e-30, i
            assert abs(log_w[i] - lw) <= 1.25 * log_w_err + ulp * max(1.0, abs(lw)), i


class TestMemberCache:
    def test_kernels_of_one_member_find_its_roots_once(self, monkeypatch):
        built = []
        build = specfun.gauss_nodes
        monkeypatch.setattr(specfun, "gauss_nodes",
                            lambda spec, weights=False: built.append(spec) or build(spec, weights))
        monkeypatch.setattr(oracle, "_MEMBER_CACHE", oracle.BoundedCache(4))
        monkeypatch.setattr(oracle, "_ENTROPY_CACHE", oracle.BoundedCache(4))
        monkeypatch.setattr(oracle, "_LQ_CACHE", oracle.BoundedCache(4))
        spec = PolySpec("laguerre", 120, 0.5)
        entropy = oracle.polynomial_entropy(spec)
        norms = [oracle.lq_integral(spec, q, 0.5) for q in (0.8, 1.7)]
        assert built == [spec]
        # the same values as from fresh members
        monkeypatch.setattr(oracle, "_MEMBER_CACHE", oracle.BoundedCache(4))
        assert oracle._entropy_kernel(spec, 0.0, oracle.default_tolerance()) == entropy
        monkeypatch.setattr(oracle, "_MEMBER_CACHE", oracle.BoundedCache(4))
        monkeypatch.setattr(oracle, "_LQ_CACHE", oracle.BoundedCache(4))
        assert oracle.lq_integral(spec, 1.7, 0.5) == norms[1]

    def test_member_cache_is_bounded(self, monkeypatch):
        small = oracle.BoundedCache(3)
        monkeypatch.setattr(oracle, "_MEMBER_CACHE", small)
        monkeypatch.setattr(oracle, "_LQ_CACHE", oracle.BoundedCache(16))
        for n in range(1, 10):
            oracle.lq_integral(PolySpec("hermite", n), 0.7)
            assert len(small) <= 3
        assert list(small) == [PolySpec("hermite", n) for n in (7, 8, 9)]


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

    def test_a_compute_that_raises_caches_nothing(self):
        cache = oracle.BoundedCache(2)

        def failing():
            raise RuntimeError("compute failed")

        with pytest.raises(RuntimeError, match="compute failed"):
            cache.get_or_compute("k", failing)
        assert len(cache) == 0
        assert cache.get_or_compute("k", lambda: 7) == 7
        assert dict(cache) == {"k": 7}


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
        evaluate = specfun.scaled_evaluator(spec)

        def f(x):
            m, s = evaluate(x)
            y2 = (m * math.exp(s)) ** 2
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
        # two finite tails, out to the ends of the support, plus one panel
        # between the two roots of H_2
        assert len(calls) == 3


def _quadpack_lq_ratio(spec: PolySpec, q: int, a: float, stretch: float = 1.0) -> float:
    """QUADPACK of w y^(2q) over support(spec, a, q) (its ends times
    stretch), split at the roots, over exp(log_lq_integral), whose Gauss rule
    covers the whole line."""
    lo, hi = (stretch * end for end in oracle.support(spec, a, q))
    evaluate = specfun.scaled_evaluator(spec)
    log_ref = oracle.log_lq_integral(spec, q, a)

    def f(x):
        m, s = evaluate(x)
        if m == 0.0 or spec.family == "laguerre" and x <= 0.0:
            return 0.0
        lw = a * math.log(x) - q * x if spec.family == "laguerre" else -q * x * x
        return math.exp(lw + 2.0 * q * (math.log(abs(m)) + s) - log_ref)

    roots = specfun.poly_roots(spec) if spec.degree > 0 else ()
    return oracle.integrate_adaptive(f, lo, hi, roots, tol=1e-13).value


class TestSupport:
    """support() is shared by both engines, so it is checked on its own."""

    @pytest.mark.parametrize("a", [0.5, 49.0, 199.0, 499.0])
    @pytest.mark.parametrize("q", [0.05, 0.1, 0.5, 1.0, 5.0])
    def test_laguerre_tail_past_hi_is_negligible(self, a, q):
        # degree 0: w y^(2q) ~ x^a e^(-qx), whose mass past hi is Q(a + 1, q hi);
        # alpha near -1 gives the narrowest support
        lo, hi = oracle.support(PolySpec("laguerre", 0, -0.9), a, q)
        assert lo == 0.0
        assert mp.gammainc(a + 1.0, q * hi, mp.inf, regularized=True) < 1e-20

    def test_ends_by_family(self):
        assert oracle.support(PolySpec("gegenbauer", 7, 1.5), 3.0, 0.3) == (-1.0, 1.0)
        lo, hi = oracle.support(PolySpec("hermite", 12), 0.0, 4.0)
        assert lo == -hi == -(5.0 + 6.0)
        # the bound of the root panel kernels wherever a/q + 2n <= 4n + 2 alpha + 2
        edge = 4.0 * 6 + 2.0 * 2.5 + 2.0
        assert oracle.support(PolySpec("laguerre", 6, 2.5), 2.5, 1.5) == (
            0.0, edge + 12.0 * math.sqrt(edge) / math.sqrt(1.5) + 60.0 / 1.5)

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("spec, a", [
        (PolySpec("laguerre", 0, 0.5), 0.5), (PolySpec("laguerre", 0, 0.5), 49.0),
        (PolySpec("laguerre", 3, 0.5), 60.0), (PolySpec("laguerre", 7, 10.5), 20.5),
        (PolySpec("laguerre", 60, 1.5), 1.5), (PolySpec("laguerre", 200, 0.5), 0.5),
        (PolySpec("hermite", 0), 0.0), (PolySpec("hermite", 7), 0.0),
        (PolySpec("hermite", 60), 0.0), (PolySpec("hermite", 200), 0.0)])
    def test_quadpack_over_the_support_matches_gauss(self, spec, a, q):
        ratio = _quadpack_lq_ratio(spec, q, a)
        # nothing is left past the ends: doubling them moves the integral by
        # QUADPACK's rounding only (up to 1.4e-14 here)
        assert _quadpack_lq_ratio(spec, q, a, 2.0) == pytest.approx(ratio, rel=1e-13, abs=0.0)
        # the float recurrence of Laguerre degree 200 leaves the Gauss side
        # 2.6e-12 off at q = 3 (a rule 50 orders higher moves it that much)
        rel = 5e-12 if spec.family == "laguerre" and spec.degree == 200 else 1e-12
        assert ratio == pytest.approx(1.0, rel=rel, abs=0.0)


class TestWeightedNorm:
    def test_q1_is_normalization(self):
        for nr in (0, 1, 4, 9):
            for l in (0, 2):
                for D in (2, 3, 6):
                    assert oracle.weighted_Lq_norm(nr, l, D, 1.0) == pytest.approx(
                        1.0, rel=1e-12)

    def test_ground_q2_d2(self):
        # constant polynomial: int_0^inf e^{-2x} dx = 1/2
        assert oracle.weighted_Lq_norm(0, 0, 2, 2.0) == pytest.approx(0.5, rel=1e-13, abs=0.0)

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
        assert got == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("spec,q,a", [
        (PolySpec("gegenbauer", 3, 2.0), 2.0 / 3.0, 1.2),
        (PolySpec("hermite", 5, None), 0.6, 0.0),
        (PolySpec("hermite", 2, None), 0.1, 0.0),  # the span grows as 1/sqrt(q)
        (PolySpec("laguerre", 6, 1.5), 0.8, 1.3),
    ])
    def test_real_q_matches_mpmath(self, spec, q, a):
        exact = float(_mp_lq_integral(spec, q, a))
        assert oracle.lq_integral(spec, q, a) == pytest.approx(exact, rel=1e-13, abs=0.0)

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
        assert oracle.lq_integral(spec, q, a) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("spec,a", [
        (PolySpec("gegenbauer", 3, 2.0), 1.2),
        (PolySpec("hermite", 5, None), 0.0),
        (PolySpec("laguerre", 6, 1.5), 2.5),
    ])
    @pytest.mark.parametrize("q", [2, 3])
    def test_integer_q_gauss_rule_matches_panels(self, spec, a, q):
        panels = oracle._root_panel_integral(
            spec, a, float(q), lambda lw, ln_y2: np.exp(lw + q * ln_y2), None)
        assert oracle.lq_integral(spec, q, a) == pytest.approx(panels, rel=1e-12, abs=0.0)

    def test_q_must_be_positive(self):
        with pytest.raises(DomainError):
            oracle.lq_integral(PolySpec("hermite", 2, None), 0.0)


class TestTaylorPanels:
    @pytest.mark.parametrize("spec", [
        PolySpec("hermite", 200), PolySpec("laguerre", 200, 0.5),
        PolySpec("gegenbauer", 200, 1.0), PolySpec("laguerre", 800, 0.5),
        PolySpec("gegenbauer", 800, 1.0)],
        ids=lambda spec: f"{spec.family}-{spec.degree}")
    def test_kernels_match_the_recurrence_route(self, spec, monkeypatch):
        # (Hermite at 800 takes 1.7 s on the recurrence; tests/test_specfun.py
        # checks its series against 40-digit values)
        def kernels():
            out = [oracle._entropy_kernel(spec, 0.0, oracle.default_tolerance())]
            if spec.degree == 200 or spec.family == "laguerre":  # real q: the Rydberg case
                out.append(oracle.lq_integral(spec, 0.8, 0.0 if spec.family == "hermite"
                                              else 0.5))
            return out

        monkeypatch.setattr(oracle, "_MEMBER_CACHE", oracle.BoundedCache(4))
        monkeypatch.setattr(oracle, "_LQ_CACHE", oracle.BoundedCache(4))
        taylor = kernels()
        monkeypatch.setattr(oracle, "_MEMBER_CACHE", oracle.BoundedCache(4))
        monkeypatch.setattr(oracle, "_LQ_CACHE", oracle.BoundedCache(4))
        monkeypatch.setattr(specfun, "TAYLOR_MIN_DEGREE", spec.degree + 1)  # recurrence everywhere
        for got, ref in zip(taylor, kernels()):
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


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



def _all_nodes_reference(f_vec, edges, tol, max_level=11):
    """The refinement loop with every level evaluating all of its nodes."""
    edges = np.asarray(sorted(edges), dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    prev = None
    for level in range(4, max_level + 1):
        u, w = _all_level_nodes(level)
        x = mid[:, None] + half[:, None] * u[None, :]
        vals = np.asarray(f_vec(x), dtype=float)
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
            calls.append((est, seen, *_all_nodes_reference(f_vec, edges, tol, max_level),
                          len(edges) - 1))
            return est

        monkeypatch.setattr(oracle, "integrate_panels_vectorized", both)
        monkeypatch.setattr(oracle, "_ENTROPY_CACHE", oracle.BoundedCache(256))
        monkeypatch.setattr(oracle, "_LQ_CACHE", oracle.BoundedCache(4))
        run()
        (est, seen, ref, final_x, npanel), = calls
        assert est == ref  # value, error estimate and node count, exactly
        assert len(seen) > 1  # refinement went past the first level
        assert est.subdivisions == final_x.size
        # row p of every call lies in panel p, between the rows of final_x's
        # first and last columns (the panel edges)
        for x in seen:
            assert x.shape[0] == npanel
            assert np.all((x >= final_x[:, :1]) & (x <= final_x[:, -1:]))
        # f_vec saw each node inside a panel of the final level once, and each
        # panel's two edges once (as a multiset): tanh rounds about half of
        # the nodes to u = +-1, which sit exactly on the edges
        rows = final_x.reshape(npanel, -1)
        u = next(u for u, _ in map(_all_level_nodes, range(4, 12))
                 if u.size == rows.shape[1])
        assert u[0] == -1.0 and u[-1] == 1.0
        expected = np.concatenate([rows[:, np.abs(u) < 1.0].ravel(), rows[:, 0], rows[:, -1]])
        got = np.concatenate([x.ravel() for x in seen])
        assert np.array_equal(np.sort(got), np.sort(expected))
        assert got.size < 0.6 * final_x.size


# (kernel, family, degree, parameter, q, a, value.hex()), recorded before the
# root kernels took one row per panel; the degree 50 member takes the
# recurrence, the rest the Taylor panels.  Laguerre 800 (both), 300 and
# Hermite 600 and 300 were recorded again when the recurrence's scale became
# a power of two: it moves the Taylor coefficients' rounding (at most 7e-14)
KERNEL_TABLE = [
    ("entropy", "laguerre", 50, 0.5, None, None, "-0x1.7a6b5f299e4ccp+6"),
    ("entropy", "laguerre", 100, 0.5, None, None, "-0x1.8339340c94fe6p+7"),
    ("entropy", "laguerre", 800, 0.5, None, None, "-0x1.8da4678af32bap+10"),
    ("entropy", "laguerre", 300, 7.0, None, None, "-0x1.18a07c9d6abb3p+9"),
    ("entropy", "hermite", 200, None, None, None, "-0x1.8a754fb79903ap+7"),
    ("entropy", "hermite", 600, None, None, None, "-0x1.2a5c2e225693ap+9"),
    ("entropy", "gegenbauer", 150, 1.0, None, None, "-0x1.1566200aa1d96p-1"),
    ("entropy", "gegenbauer", 400, 3.5, None, None, "-0x1.fb8b51a594868p+1"),
    ("lq", "laguerre", 800, 0.5, 0.8, 0.5, "0x1.291a8cb0b7838p+3"),
    ("lq", "laguerre", 200, 3.5, 1.6, 3.5, "0x1.c15f226389c58p+1"),
    ("lq", "hermite", 300, None, 0.6, 0.0, "0x1.0e12a322743c3p+2"),
    ("lq", "gegenbauer", 200, 1.5, 1.3, 1.0, "0x1.4bee318de65e0p+1"),
]


@pytest.mark.parametrize("kernel, family, degree, parameter, q, a, recorded", KERNEL_TABLE,
                         ids=[f"{k}-{f}-{n}" for k, f, n, *_ in KERNEL_TABLE])
def test_root_kernels_keep_their_recorded_bits(kernel, family, degree, parameter, q, a,
                                               recorded, monkeypatch):
    monkeypatch.setattr(oracle, "_ENTROPY_CACHE", oracle.BoundedCache(4))
    monkeypatch.setattr(oracle, "_LQ_CACHE", oracle.BoundedCache(4))
    spec = PolySpec(family, degree, parameter)
    value = (oracle.polynomial_entropy(spec) if kernel == "entropy"
             else oracle.lq_integral(spec, q, a))
    assert value.hex() == recorded


class TestExhaustedRefinement:
    @staticmethod
    def _fail(max_level):
        # a jump inside the panel: each level gains about one binary digit
        jump = lambda x: (np.asarray(x) > 0.3).astype(float)
        with pytest.raises(ConvergenceError) as info:
            oracle.integrate_panels_vectorized(jump, [0.0, 1.0], tol=1e-15,
                                               max_level=max_level)
        return info.value

    def test_error_estimate_is_the_last_difference_between_levels(self):
        before, last = self._fail(6), self._fail(7)
        assert last.error_estimate == abs(last.value - before.value)
        assert 0.0 < last.error_estimate < 1e-2
        assert last.value == pytest.approx(0.7, abs=10 * last.error_estimate)

    def test_one_level_gives_no_estimate(self):
        assert self._fail(4).error_estimate == math.inf


class TestNonFiniteTotal:
    def test_an_infinite_total_is_refused_without_a_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnsupportedError, match="leaves the float range"):
                oracle.integrate_panels_vectorized(lambda x: np.full(np.shape(x), 1e308),
                                                   [0.0, 1e10])
            # at q = 1e-300 the Laguerre support runs out to ~6e301
            with pytest.raises(UnsupportedError, match="leaves the float range"):
                oracle.weighted_Lq_norm(2, 1, 3, 1e-300)


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls, original = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestLqCache:
    SPECS = [(PolySpec("laguerre", 30, 1.5), 0.5), (PolySpec("gegenbauer", 6, 2.5), 2.0),
             (PolySpec("hermite", 9), 0.0)]

    @pytest.mark.parametrize("q", [2, 3.0, 0.7, 2.5])
    def test_a_warm_value_has_the_bits_of_a_cold_one(self, q, monkeypatch):
        for spec, a in self.SPECS:
            monkeypatch.setattr(oracle, "_LQ_CACHE", oracle.BoundedCache(4))
            cold = oracle.lq_integral(spec, q, a), oracle.log_lq_integral(spec, q, a)
            assert len(oracle._LQ_CACHE) == 1
            assert (oracle.lq_integral(spec, q, a), oracle.log_lq_integral(spec, q, a)) == cold

    def test_integer_q_shares_one_key_and_ignores_the_tolerance(self, monkeypatch):
        monkeypatch.setattr(oracle, "_LQ_CACHE", oracle.BoundedCache(4))
        calls = _counted(monkeypatch, oracle, "_log_gauss_lq_integral")
        spec = PolySpec("laguerre", 12, 0.5)
        values = [oracle.log_lq_integral(spec, 2, 0.5), oracle.log_lq_integral(spec, 2.0, 0.5)]
        values.append(oracle.log_lq_integral(spec, 2.0, 0.5, tol=1e-3))
        assert len(calls) == 1 and len(oracle._LQ_CACHE) == 1
        assert values == [values[0]] * 3

    def test_real_q_keys_on_the_tolerance_read_per_call(self, monkeypatch):
        monkeypatch.setattr(oracle, "_LQ_CACHE", oracle.BoundedCache(4))
        calls = _counted(monkeypatch, oracle, "_root_panel_integral")
        spec = PolySpec("laguerre", 12, 0.5)
        for tol in (1e-10, 1e-10, 1e-6):
            oracle.lq_integral(spec, 0.8, 0.5, tol=tol)
        assert [c[-1] for c in calls] == [1e-10, 1e-6]
        oracle.log_lq_integral(spec, 0.8, 0.5, tol=1e-6)
        assert len(calls) == 2 and len(oracle._LQ_CACHE) == 2

    def test_a_compute_that_raises_stores_nothing(self, monkeypatch):
        monkeypatch.setattr(oracle, "_LQ_CACHE", oracle.BoundedCache(4))
        for spec, q in ((PolySpec("laguerre", 2, 1.5), 1e-300),
                        (PolySpec("hermite", oracle.PANEL_MAX_DEGREE + 1), 0.8),
                        (PolySpec("hermite", 5000), 3.0)):
            with pytest.raises(UnsupportedError):
                oracle.lq_integral(spec, q, 0.5 if spec.family == "laguerre" else 0.0)
        assert len(oracle._LQ_CACHE) == 0


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
            return (float(np.exp(rule.log_weights).sum()), val, ent)

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
