"""Special-function layer: recurrences, roots, hypergeometrics, linearizations."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dho import oracle, specfun
from dho.errors import DomainError, UnsupportedError
from dho.specfun import PolySpec, EULER_GAMMA


class TestEvalPoly:
    def test_hermite_degree0(self):
        spec = PolySpec("hermite", 0, None, "orthogonal")
        for x in (-3.0, 0.0, 1.7):
            assert specfun.eval_poly(spec, x) == 1.0

    def test_hermite_root_of_h2(self):
        spec = PolySpec("hermite", 2, None, "orthogonal")
        assert abs(specfun.eval_poly(spec, 1.0 / math.sqrt(2))) < 1e-14

    def test_laguerre_value_at_zero(self):
        # L_1^(alpha)(0) = alpha + 1, derived from the recurrence directly
        spec = PolySpec("laguerre", 1, 0.5, "orthogonal")
        assert specfun.eval_poly(spec, 0.0) == pytest.approx(1.5, rel=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            PolySpec("laguerre", 2, -1.0)
        with pytest.raises(DomainError):
            PolySpec("gegenbauer", 2, -0.5)
        with pytest.raises(DomainError):
            PolySpec("hermite", 2, 1.0)

    @pytest.mark.parametrize("family,param", [
        ("hermite", None), ("laguerre", 0.5), ("laguerre", 4.0),
        ("gegenbauer", 0.5), ("gegenbauer", 2.5)])
    def test_orthonormality_under_matching_gauss_rule(self, family, param):
        rule_family = "jacobi" if family == "gegenbauer" else family
        params = ((param - 0.5, param - 0.5) if family == "gegenbauer"
                  else ((param,) if param is not None else ()))
        rule = oracle.gauss_rule(rule_family, 40, *params)
        for n, m in ((0, 0), (3, 3), (7, 2), (30, 30), (30, 28)):
            pn = specfun.eval_poly(PolySpec(family, n, param), rule.nodes)
            pm = specfun.eval_poly(PolySpec(family, m, param), rule.nodes)
            val = float(np.sum(rule.weights * pn * pm))
            assert val == pytest.approx(1.0 if n == m else 0.0, abs=1e-11)

    def test_scaled_evaluation_matches_plain(self):
        spec = PolySpec("laguerre", 12, 1.5)
        x = np.linspace(0.1, 40.0, 17)
        mant, logs = specfun.eval_poly_scaled(spec, x)
        assert np.allclose(mant * np.exp(logs), specfun.eval_poly(spec, x),
                           rtol=1e-13)

    def test_high_degree_large_parameter_is_finite(self):
        for n, alpha, xs in ((200, 1000.0, (800.0, 1500.0)), (800, 0.5, (1.0, 3000.0))):
            mant, logs = specfun.eval_poly_scaled(PolySpec("laguerre", n, alpha),
                                                  np.array(xs))
            assert np.all(np.isfinite(mant)) and np.all(np.isfinite(logs))
            for x, got in zip(xs, np.log(np.abs(mant)) + logs):
                with mp.workdps(40):
                    # orthonormal = (-1)^n L_n^alpha sqrt(n! / Gamma(n + alpha + 1))
                    ref = float(mp.log(abs(mp.laguerre(n, alpha, x)))
                                + (mp.loggamma(n + 1) - mp.loggamma(n + alpha + 1)) / 2)
                assert got == pytest.approx(ref, rel=1e-11)


    def test_blocked_evaluation_is_bit_identical_per_node(self):
        spec = PolySpec("laguerre", 800, 0.5)
        x = np.linspace(0.0, 3400.0, 2 * specfun.RECURRENCE_BLOCK + 5001)
        mant, logs = specfun.eval_poly_scaled(spec, x)
        assert logs.max() > math.log(1e120)  # the rescale fired
        for i in range(0, x.size, 7919):  # slices that straddle block edges
            m, s = specfun.eval_poly_scaled(spec, x[i:i + 7919])
            assert np.array_equal(m, mant[i:i + 7919])
            assert np.array_equal(s, logs[i:i + 7919])
        m2, s2 = specfun.eval_poly_scaled(spec, x[:-1].reshape(2, -1))
        assert np.array_equal(m2.ravel(), mant[:-1]) and np.array_equal(s2.ravel(), logs[:-1])


class TestRoots:
    def test_hermite_n1(self):
        roots = specfun.poly_roots(PolySpec("hermite", 1))
        assert roots.tolist() == [0.0]

    def test_hermite_n2(self):
        roots = specfun.poly_roots(PolySpec("hermite", 2))
        assert roots == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], rel=1e-14)

    def test_laguerre_n2(self):
        # x^2 - 4x + 2 = 0 from the recurrence
        roots = specfun.poly_roots(PolySpec("laguerre", 2, 0.0))
        assert roots == pytest.approx([2 - math.sqrt(2), 2 + math.sqrt(2)], rel=1e-13)

    def test_residuals_small(self):
        for spec in (PolySpec("hermite", 14), PolySpec("laguerre", 9, 2.2),
                     PolySpec("gegenbauer", 11, 1.5)):
            roots = specfun.poly_roots(spec)
            assert len(roots) == spec.degree
            assert np.all(np.diff(roots) > 0)
            vals = specfun.eval_poly(spec, roots)
            scale = np.max(np.abs(specfun.eval_poly(
                spec, np.linspace(roots[0], roots[-1], 50))))
            assert np.max(np.abs(vals)) <= 1e-12 * scale


class TestGammaFamily:
    def test_digamma_at_one(self):
        assert specfun.digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-13)

    def test_poles_raise(self):
        with pytest.raises(DomainError):
            specfun.digamma(0.0)
        with pytest.raises(DomainError):
            specfun.digamma(-3.0)

    def test_against_mpmath(self):
        for x in (0.3, 1.0, 7.5, 123.4, 4001.0):
            assert specfun.digamma(x) == pytest.approx(float(mp.digamma(x)), rel=1e-13)

    @given(st.floats(-10, 10).filter(lambda a: abs(a) > 1e-6),
           st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_pochhammer_shift(self, a, j):
        # (a)_{j+1} = (a)_j (a + j)
        assert specfun.pochhammer(a, j + 1) == pytest.approx(
            specfun.pochhammer(a, j) * (a + j), rel=1e-12, abs=1e-300)

    def test_pochhammer_empty(self):
        assert specfun.pochhammer(-2.7, 0) == 1.0

    def test_gamma_sign_matches_scipy(self):
        from scipy.special import gammasgn

        # non-integer arguments only: log_abs_binomial takes integer x apart
        ys = np.concatenate([np.arange(-40, 40)[:, None] + np.array([1e-9, 0.25, 0.5, 0.9]),
                             [[-1e-9, 99.5, 170.5, -170.5]]], axis=None)
        for y in ys:
            assert specfun._gamma_sign(float(y)) == gammasgn(y), y

    def test_log_abs_binomial_sign_non_integer(self):
        for x in (-3.5, -0.25, 0.5, 2.75):
            for m in range(8):
                b = specfun.binomial(x, m)
                lg, sign = specfun.log_abs_binomial(x, m)
                assert sign == math.copysign(1.0, b)
                assert math.exp(lg) == pytest.approx(abs(b), rel=1e-13)


class TestHyp3F2:
    def test_a1_zero_is_exactly_one(self):
        assert specfun.hyp_3F2_unit(0.0, -0.5, 1.5, 1.5, 1.0) == 1.0

    def test_a2_zero_kills_sum(self):
        for nr in (1, 5, 9):
            assert specfun.hyp_3F2_unit(-nr, 0.0, 1.0, 2.3, 1.0) == 1.0

    def test_two_term_example(self):
        # moment combination for n_r=1, l=0, D=3, k=2
        val = specfun.hyp_3F2_unit(-1.0, -1.0, 2.0, 1.5, 1.0)
        assert val == pytest.approx(7.0 / 3.0, rel=1e-15)

    def test_nonterminating_rejected(self):
        with pytest.raises(UnsupportedError):
            specfun.hyp_3F2_unit(0.5, 0.3, 1.0, 2.0, 2.0)


class TestHypPFQ:
    def test_unit_at_zero(self):
        assert specfun.hyp_pFq([3.0], [0.5], 0.0) == 1.0
        assert specfun.hyp_pFq([1.0, 1.0], [1.5, 2.0], 0.0) == 1.0

    def test_1f1_against_mpmath(self):
        for k in (1, 3, 8):
            for z in (-0.5, -5.0, -50.0, 2.0):
                ref = float(mp.hyp1f1(k, 0.5, z))
                assert specfun.hyp_pFq([k], [0.5], z) == pytest.approx(ref, rel=1e-11)

    def test_2f2_against_mpmath(self):
        for z in (-0.25, -9.0, -40.0, -120.0):
            ref = float(mp.hyper([1, 1], [1.5, 2], z))
            assert specfun.hyp_pFq([1.0, 1.0], [1.5, 2.0], z) == pytest.approx(ref, rel=1e-11)


class TestLauricella:
    def test_trivial_one(self):
        for q in (1, 2, 3):
            assert specfun.lauricella_FA_finite(q, 0, 0) == 1.0
            assert specfun.lauricella_FA_finite(q, 1, 1) == 1.0

    def test_parity_mismatch(self):
        with pytest.raises(DomainError):
            specfun.lauricella_FA_finite(2, 0, 3)

    def test_frozen_value_n2_q2(self):
        # two-fold nested sum done by hand: each index in {0, 1}
        assert specfun.lauricella_FA_finite(2, 0, 2) == pytest.approx(2.5625, rel=1e-13)


class TestLinearizations:
    @pytest.mark.parametrize("n,lam,mu", [(0, 0.5, 0), (1, 0.5, 1), (2, 1.5, 1),
                                          (3, 1.0, 2), (4, 0.5, 2)])
    def test_gegenbauer_square_reconstruction(self, n, lam, mu):
        exp_ = specfun.gegenbauer_square_linearize(n, lam, mu)
        xs = np.concatenate([np.linspace(-0.95, 0.95, 20), [0.0, 0.7, -0.7]])
        target = specfun.eval_poly(PolySpec("gegenbauer", n, lam), xs) ** 2
        assert np.allclose(exp_(xs), target, rtol=1e-9,
                           atol=1e-9 * np.max(np.abs(target)))

    def test_gegenbauer_sum_b2_is_quartic_integral(self):
        # sum_k b^2 equals the quartic one-factor angular integral
        n, lam, mu = 2, 1.5, 1
        exp_ = specfun.gegenbauer_square_linearize(n, lam, mu)
        coeff_sq_sum = math.fsum(c * c for _, c in exp_.coefficients)
        a = lam + mu - 0.5
        rule = oracle.gauss_rule("jacobi", 2 * n + 4, a, a)
        quart = float(np.sum(rule.weights * specfun.eval_poly(
            PolySpec("gegenbauer", n, lam), rule.nodes) ** 4))
        assert coeff_sq_sum == pytest.approx(quart, rel=1e-11)


class TestWigner3j:
    def test_3j_trivial(self):
        assert specfun.wigner_3j(0, 0, 0, 0, 0, 0) == 1.0

    def test_3j_reference(self):
        assert specfun.wigner_3j(1, 1, 2, 0, 0, 0) == pytest.approx(
            math.sqrt(2.0 / 15.0), rel=1e-14)

    def test_3j_selection_rules_return_zero(self):
        assert specfun.wigner_3j(1, 1, 3, 0, 0, 0) == 0.0
        assert specfun.wigner_3j(1, 1, 2, 1, 0, 0) == 0.0

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 10),
           st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_3j_column_permutation_phase(self, j1, j2, j3, m1, m2):
        m3 = -m1 - m2
        base = specfun.wigner_3j(j1, j2, j3, m1, m2, m3)
        cyc = specfun.wigner_3j(j2, j3, j1, m2, m3, m1)
        swap = specfun.wigner_3j(j2, j1, j3, m2, m1, m3)
        phase = (-1.0) ** (j1 + j2 + j3)
        assert cyc == pytest.approx(base, abs=1e-12)
        assert swap == pytest.approx(phase * base, abs=1e-12)


def test_every_lru_cache_is_bounded():
    import importlib
    import pkgutil

    import dho

    for info in pkgutil.iter_modules(dho.__path__):
        module = importlib.import_module(f"dho.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                assert value.cache_info().maxsize is not None, f"{info.name}.{name}"
            if name.endswith("_CACHE"):  # a plain dict would grow without limit
                assert isinstance(value, oracle.BoundedCache), f"{info.name}.{name}"
