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


def values(spec, x):
    """spec at x, mantissa times scale, from eval_poly_scaled."""
    mant, logs = specfun.eval_poly_scaled(spec, x)
    return mant * np.exp(logs)


class TestEvalPoly:
    def test_hermite_degree0(self):
        # orthonormal H_0 is pi^(-1/4), the inverse root of the weight mass
        spec = PolySpec("hermite", 0)
        assert values(spec, [-3.0, 0.0, 1.7]).tolist() == [math.pi ** -0.25] * 3

    def test_hermite_root_of_h2(self):
        spec = PolySpec("hermite", 2)
        assert abs(values(spec, 1.0 / math.sqrt(2))[0]) < 1e-14

    def test_laguerre_value_at_zero(self):
        # L_1^(alpha)(0) = alpha + 1; orthonormal -L_1^(alpha) / sqrt(Gamma(alpha + 2))
        spec = PolySpec("laguerre", 1, 0.5)
        assert values(spec, 0.0)[0] == pytest.approx(-1.5 / math.sqrt(math.gamma(2.5)),
                                                     rel=1e-15, abs=0.0)

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
        rule = oracle.gauss_rule(family, 40, *(() if param is None else (param,)))
        for n, m in ((0, 0), (3, 3), (7, 2), (30, 30), (30, 28)):
            pn = values(PolySpec(family, n, param), rule.nodes)
            pm = values(PolySpec(family, m, param), rule.nodes)
            val = float(np.sum(np.exp(rule.log_weights) * pn * pm))
            assert val == pytest.approx(1.0 if n == m else 0.0, abs=1e-11)

    def test_scaled_evaluation_matches_plain(self):
        spec = PolySpec("laguerre", 12, 1.5)
        x = np.linspace(0.1, 40.0, 17)
        with mp.workdps(30):
            # orthonormal = (-1)^n L_n^alpha sqrt(n! / Gamma(n + alpha + 1))
            norm = mp.sqrt(mp.factorial(12) / mp.gamma(14.5))
            ref = [float(mp.laguerre(12, 1.5, v) * norm) for v in x]
        assert np.allclose(values(spec, x), ref, rtol=1e-13, atol=0.0)

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


@pytest.mark.parametrize("family, param", [
    ("hermite", None), ("laguerre", 0.5), ("laguerre", 7.0),
    ("gegenbauer", 0.5), ("gegenbauer", 3.5)])
@pytest.mark.parametrize("degree", [0, 1, 2, 8, 30, 200, 800])
def test_float_evaluator_is_bit_identical_to_eval_poly_scaled(family, param, degree):
    if family == "hermite":
        edge = math.sqrt(2.0 * degree + 1.0)
        lo, hi = -edge, edge
    elif family == "laguerre":
        lo, hi = 0.0, 4.0 * degree + 2.0 * param + 2.0
    else:
        lo, hi = -1.0, 1.0
    far = np.logspace(-3, 100, 60)  # reaches past the support until p_n passes 1e120
    x = np.concatenate([np.linspace(lo, hi, 301), lo - far, hi + far])
    spec = PolySpec(family, degree, param)
    mant, logs = specfun.eval_poly_scaled(spec, x)
    evaluate = specfun.scaled_evaluator(spec)
    got = [evaluate(v) for v in x.tolist()]
    assert all(type(m) is float and type(s) is float for m, s in got)
    assert [m for m, _ in got] == mant.tolist()
    assert [s for _, s in got] == logs.tolist()
    if degree >= 2:
        assert len(set(logs.tolist())) > 1  # the rescale fired


def _reference_recurrence(x, diag, off, n, log_mass, derivative=False):
    """The loop _recurrence replaced, one temporary per operation: the same
    operations on the same operands in the same order, with the rescale test
    made at every step.  A node whose largest value (of p_n and p_{n-1}, and
    with `derivative` their derivatives) reaches 2^400 is scaled down by the
    power of two that puts it in [0.5, 1); at the end its exponent is 0 if
    the largest stays below 2^400, otherwise the one that puts it in
    [0.5, 1)."""
    logs = np.full_like(x, -0.5 * log_mass + 0.0)
    p_cur, p_prev = np.ones_like(x), np.zeros_like(x)
    d_cur = d_prev = np.zeros_like(x)
    exps = np.zeros(x.shape, int)

    def largest():
        values = (p_cur, p_prev, d_cur, d_prev) if derivative else (p_cur, p_prev)
        return np.max(np.abs(values), axis=0)

    for k in range(n):
        b_next = off[k]
        b_prev = off[k - 1] if k > 0 else 0.0
        if derivative:
            d_prev, d_cur = d_cur, ((x - diag[k]) * d_cur + p_cur - b_prev * d_prev) / b_next
        p_prev, p_cur = p_cur, ((x - diag[k]) * p_cur - b_prev * p_prev) / b_next
        big = largest()
        shift = np.where(big >= 2.0 ** 400, np.frexp(big)[1], 0)
        p_cur, p_prev = np.ldexp(p_cur, -shift), np.ldexp(p_prev, -shift)
        d_cur, d_prev = np.ldexp(d_cur, -shift), np.ldexp(d_prev, -shift)
        exps = exps + shift
    top = np.frexp(largest())[1] + exps
    keep = np.where(top > 400, top, 0)
    p_cur, p_prev = np.ldexp(p_cur, exps - keep), np.ldexp(p_prev, exps - keep)
    d_cur, d_prev = np.ldexp(d_cur, exps - keep), np.ldexp(d_prev, exps - keep)
    logs = logs + keep * math.log(2.0)
    if not derivative:
        return p_cur, p_prev, 0.0, 0.0, logs
    return p_cur, p_prev, d_cur, d_prev, logs


def _bits(value, shape):
    """value broadcast to shape, as its 64-bit patterns (tells -0.0 from 0.0)."""
    return np.ascontiguousarray(np.broadcast_to(np.asarray(value, dtype=float),
                                                shape)).view(np.uint64)


# laguerre alpha 0 and 1 start the log scale at -0.0; degree 2000 out to
# x = 8000 and alpha = 3000 rescale at most steps
@pytest.mark.parametrize("family, param, degree", [
    ("hermite", None, 0), ("hermite", None, 1), ("hermite", None, 401),
    ("laguerre", 0.0, 1), ("laguerre", 0.0, 300), ("laguerre", 1.0, 300),
    ("laguerre", 0.5, 2000), ("laguerre", 3000.0, 400),
    ("gegenbauer", 0.5, 200), ("gegenbauer", 3.5, 801)])
@pytest.mark.parametrize("derivative", [False, True])
def test_recurrence_is_the_reference_loop_bit_for_bit(family, param, degree, derivative):
    spec = PolySpec(family, degree, param)
    if family == "hermite":
        hi = math.sqrt(2.0 * degree + 1.0) + 1.0
        lo = -hi
    elif family == "laguerre":
        lo, hi = 0.0, 4.0 * degree + 2.0 * param + 2.0
    else:
        lo, hi = -1.0, 1.0
    far = np.logspace(-3, 100, 12)
    x = np.concatenate([np.linspace(lo, hi, 41), lo - far, hi + far,
                        [-0.0, math.nan, math.inf, -math.inf]])
    diag, off = specfun._jacobi_coeffs(spec, max(degree + 1, 2))
    log_mass = specfun._log_weight_mass(spec)
    with np.errstate(invalid="ignore"):  # inf / inf at the inf nodes
        for nodes in (x, x[:-1].reshape(2, -1), x[:1], x[-4:-3], x[-3:-2], x[-2:-1], x[:0]):
            got = specfun._recurrence(nodes, diag, off, degree, log_mass, derivative)
            ref = _reference_recurrence(nodes, diag, off, degree, log_mass, derivative)
            for g, r in zip(got, ref):
                assert np.array_equal(_bits(g, nodes.shape), _bits(r, nodes.shape))
        if degree >= 300:  # the rescale fired
            assert len(set(specfun._recurrence(x, diag, off, degree, log_mass)[4][:-4])) > 1
        if derivative:
            return
        mant, logs = specfun.eval_poly_scaled(spec, x)
        evaluate = specfun.scaled_evaluator(spec)
        scalar = np.array([evaluate(v) for v in x.tolist()])
    assert np.array_equal(_bits(scalar[:, 0], x.shape), _bits(mant, x.shape))
    assert np.array_equal(_bits(scalar[:, 1], x.shape), _bits(logs, x.shape))


def test_a_node_that_passes_the_rescale_bound_and_falls_back_keeps_its_bits():
    # Hermite 600 at |x| ~ 23.58: max(|p_k|, |p_{k-1}|) passes 2^400 at steps
    # 279-288 only, near the turning point, and ends near 2^398.  Alone, these
    # nodes are tested about every 100 steps (none of them in 279-288); next
    # to x = 1e100, whose growth bound leaves no room, at every step
    spec = PolySpec("hermite", 600)
    diag, off = specfun._jacobi_coeffs(spec, 601)
    log_mass = specfun._log_weight_mass(spec)
    x = np.array([23.58, -23.585])
    start = -0.5 * log_mass
    assert np.all(_reference_recurrence(x, diag, off, 284, log_mass)[4] > start)
    assert np.all(_reference_recurrence(x, diag, off, 600, log_mass)[4] == start)
    for derivative in (False, True):
        ref = _reference_recurrence(x, diag, off, 600, log_mass, derivative)
        alone = specfun._recurrence(x, diag, off, 600, log_mass, derivative)
        beside = specfun._recurrence(np.append(x, 1e100), diag, off, 600, log_mass,
                                     derivative)
        for g, h, r in zip(alone, beside, ref):
            assert np.array_equal(_bits(g, x.shape), _bits(r, x.shape))
            assert np.array_equal(_bits(h, (3,))[:2], _bits(r, x.shape))


class TestRoots:
    def test_hermite_n1(self):
        roots = specfun.poly_roots(PolySpec("hermite", 1))
        assert roots.tolist() == [0.0]

    def test_hermite_n2(self):
        roots = specfun.poly_roots(PolySpec("hermite", 2))
        assert roots == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], rel=1e-14, abs=0.0)

    def test_laguerre_n2(self):
        # x^2 - 4x + 2 = 0 from the recurrence
        roots = specfun.poly_roots(PolySpec("laguerre", 2, 0.0))
        assert roots == pytest.approx([2 - math.sqrt(2), 2 + math.sqrt(2)], rel=1e-13, abs=0.0)

    def test_residuals_small(self):
        for spec in (PolySpec("hermite", 14), PolySpec("laguerre", 9, 2.2),
                     PolySpec("gegenbauer", 11, 1.5)):
            roots = specfun.poly_roots(spec)
            assert len(roots) == spec.degree
            assert np.all(np.diff(roots) > 0)
            vals = values(spec, roots)
            scale = np.max(np.abs(values(spec, np.linspace(roots[0], roots[-1], 50))))
            assert np.max(np.abs(vals)) <= 1e-12 * scale


class TestGammaFamily:
    def test_digamma_at_one(self):
        assert specfun.digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-13, abs=0.0)

    def test_poles_raise(self):
        with pytest.raises(DomainError):
            specfun.digamma(0.0)
        with pytest.raises(DomainError):
            specfun.digamma(-3.0)

    def test_against_mpmath(self):
        for x in (0.3, 1.0, 7.5, 123.4, 4001.0):
            assert specfun.digamma(x) == pytest.approx(float(mp.digamma(x)), rel=1e-13, abs=0.0)

    @given(st.floats(-10, 10).filter(lambda a: abs(a) > 1e-6),
           st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_pochhammer_shift(self, a, j):
        # (a)_{j+1} = (a)_j (a + j)
        assert specfun.pochhammer(a, j + 1) == pytest.approx(
            specfun.pochhammer(a, j) * (a + j), rel=1e-12, abs=1e-300)

    def test_pochhammer_empty(self):
        assert specfun.pochhammer(-2.7, 0) == 1.0

    def test_log_abs_binomial_sign_non_integer(self):
        for x in (-3.5, -0.25, 0.5, 2.75, -7.0 + 1e-9, -1e-9, 1e-9, 3.0 - 1e-9, 40.5):
            for m in range(12):
                b = specfun.binomial(x, m)
                lg, sign = specfun.log_abs_binomial(x, m)
                assert sign == math.copysign(1.0, b)
                exact = float(abs(mp.binomial(mp.mpf(x), m)))
                assert math.exp(lg) == pytest.approx(exact, rel=1e-13, abs=0.0)
                assert abs(b) == pytest.approx(exact, rel=1e-13, abs=0.0), (x, m)

    def test_log_abs_binomial_where_x_minus_m_rounds_onto_a_pole(self):
        # x - m + 1 can round to a non-positive integer, losing x's fraction
        for x in (5e-21, -5e-21, 2.0 + 2.0 ** -51, -3.0 - 2.0 ** -50):
            for m in range(1, 12):
                with mp.workdps(40):
                    b = mp.binomial(mp.mpf(x), m)
                lg, sign = specfun.log_abs_binomial(x, m)
                assert sign == mp.sign(b), (x, m)
                assert math.exp(lg) == pytest.approx(float(abs(b)), rel=1e-13, abs=0.0), (x, m)


def _hyp_3f2_unit(a1, a2, a3, b1, b2):
    return math.fsum(specfun.hyp_unit_terms((a1, a2, a3), (b1, b2)))


class TestHyp3F2:
    def test_a1_zero_is_exactly_one(self):
        assert _hyp_3f2_unit(0.0, -0.5, 1.5, 1.5, 1.0) == 1.0

    def test_a2_zero_kills_sum(self):
        for nr in (1, 5, 9):
            assert _hyp_3f2_unit(-nr, 0.0, 1.0, 2.3, 1.0) == 1.0

    def test_two_term_example(self):
        # moment combination for n_r=1, l=0, D=3, k=2
        val = _hyp_3f2_unit(-1.0, -1.0, 2.0, 1.5, 1.0)
        assert val == pytest.approx(7.0 / 3.0, rel=1e-15, abs=0.0)

    def test_nonterminating_rejected(self):
        with pytest.raises(UnsupportedError):
            _hyp_3f2_unit(0.5, 0.3, 1.0, 2.0, 2.0)


class TestHypPFQ:
    def test_unit_at_zero(self):
        assert specfun.hyp_pFq([3.0], [0.5], 0.0) == 1.0
        assert specfun.hyp_pFq([1.0, 1.0], [1.5, 2.0], 0.0) == 1.0

    def test_1f1_against_mpmath(self):
        for k in (1, 3, 8):
            for z in (-0.5, -5.0, -50.0, 2.0):
                ref = float(mp.hyp1f1(k, 0.5, z))
                assert specfun.hyp_pFq([k], [0.5], z) == pytest.approx(ref, rel=1e-11, abs=0.0)

    def test_2f2_against_mpmath(self):
        for z in (-0.25, -9.0, -40.0, -120.0):
            ref = float(mp.hyper([1, 1], [1.5, 2], z))
            assert specfun.hyp_pFq([1.0, 1.0], [1.5, 2.0], z) == pytest.approx(ref, rel=1e-11, abs=0.0)


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
        assert specfun.lauricella_FA_finite(2, 0, 2) == pytest.approx(2.5625, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("q, n", [(2, 34), (3, 12), (4, 8), (5, 6)])
    def test_index_space_above_the_bound_is_refused(self, q, n):
        # the first inputs past the bound; the sum there is non-positive or
        # already off the Gauss-Hermite value (by 4.6e-2 at q = 3, n = 12)
        with pytest.raises(UnsupportedError, match=str(specfun.LAURICELLA_MAX_TERMS)):
            specfun.lauricella_FA_finite(q, n % 2, n)

    @pytest.mark.parametrize("q, n", [(2, 32), (3, 10), (4, 6), (5, 4)])
    def test_index_space_at_the_bound_is_summed(self, q, n):
        assert math.isfinite(specfun.lauricella_FA_finite(q, n % 2, n))


class TestLinearizations:
    @pytest.mark.parametrize("n,lam,mu", [(0, 0.5, 0), (1, 0.5, 1), (2, 1.5, 1),
                                          (3, 1.0, 2), (4, 0.5, 2)])
    def test_gegenbauer_square_reconstruction(self, n, lam, mu):
        coefficients = specfun.gegenbauer_square_linearize(n, lam, mu)
        assert [k for k, _ in coefficients] == list(range(0, 2 * n + 1, 2))
        xs = np.concatenate([np.linspace(-0.95, 0.95, 20), [0.0, 0.7, -0.7]])
        dougall = sum(b * values(PolySpec("gegenbauer", k, lam + mu), xs)
                      for k, b in coefficients)
        target = values(PolySpec("gegenbauer", n, lam), xs) ** 2
        assert np.allclose(dougall, target, rtol=1e-9,
                           atol=1e-9 * np.max(np.abs(target)))

    def test_gegenbauer_sum_b2_is_quartic_integral(self):
        # sum_k b^2 equals the quartic one-factor angular integral
        n, lam, mu = 2, 1.5, 1
        coeff_sq_sum = math.fsum(
            c * c for _, c in specfun.gegenbauer_square_linearize(n, lam, mu))
        rule = oracle.gauss_rule("gegenbauer", 2 * n + 4, lam + mu)
        quart = float(np.sum(np.exp(rule.log_weights)
                             * values(PolySpec("gegenbauer", n, lam), rule.nodes) ** 4))
        assert coeff_sq_sum == pytest.approx(quart, rel=1e-11)


class TestWigner3j:
    def test_3j_trivial(self):
        assert specfun.wigner_3j(0, 0, 0, 0, 0, 0) == 1.0

    def test_3j_reference(self):
        assert specfun.wigner_3j(1, 1, 2, 0, 0, 0) == pytest.approx(
            math.sqrt(2.0 / 15.0), rel=1e-14, abs=0.0)

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


def _mp_classical(family, n, param, x):
    """The orthonormal member at x, by the classical recurrence in 40 digits."""
    with mp.workdps(40):
        x = mp.mpf(x)
        if family == "hermite":
            p0, p1 = mp.mpf(1), 2 * x
            for k in range(1, n):
                p0, p1 = p1, 2 * x * p1 - 2 * k * p0
            return p1 / mp.sqrt(mp.sqrt(mp.pi) * mp.mpf(2) ** n * mp.factorial(n))
        a = mp.mpf(param)
        if family == "laguerre":  # leading coefficient (-1)^n / n!
            p0, p1 = mp.mpf(1), 1 + a - x
            for k in range(1, n):
                p0, p1 = p1, ((2 * k + a + 1 - x) * p1 - (k + a) * p0) / (k + 1)
            return (-1) ** n * p1 / mp.sqrt(mp.gamma(n + a + 1) / mp.factorial(n))
        p0, p1 = mp.mpf(1), 2 * a * x
        for k in range(1, n):
            p0, p1 = p1, (2 * (k + a) * x * p1 - (k + 2 * a - 1) * p0) / (k + 1)
        h = (mp.pi * mp.mpf(2) ** (1 - 2 * a) * mp.gamma(n + 2 * a)
             / (mp.factorial(n) * (n + a) * mp.gamma(a) ** 2))
        return p1 / mp.sqrt(h)


class TestPanelEvaluator:
    FAMILIES = [("hermite", None), ("laguerre", 0.5), ("gegenbauer", 1.0)]

    @pytest.mark.parametrize("family, param", FAMILIES)
    def test_taylor_matches_40_digit_values(self, family, param):
        spec = PolySpec(family, 800, param)
        roots = specfun.poly_roots(spec)
        centre, half, _, _, taylor = specfun._taylor_panels(spec, roots)
        served = np.flatnonzero(taylor)
        assert served.size > 790
        evaluate = specfun.panel_evaluator(spec, roots)
        s = np.array([-0.97, -0.4, 0.0, 0.5, 0.99])
        rows = centre[:, None] + half[:, None] * s
        m, logs = evaluate(rows)
        rm, rlogs = specfun.eval_poly_scaled(spec, rows)
        for p in (served[0], served[served.size // 2], served[-1]):
            x = rows[p]
            with mp.workdps(40):
                ref = [_mp_classical(family, 800, param, v) for v in x.tolist()]
                amp = max(abs(r) for r in ref)
                for i, r in enumerate(ref):
                    err = abs(mp.mpf(float(m[p, i])) * mp.exp(float(logs[p, i])) - r)
                    rec = abs(mp.mpf(float(rm[p, i])) * mp.exp(float(rlogs[p, i])) - r)
                    assert err <= max(10 * rec, 1e-10 * amp), (p, s[i])

    def test_wide_panel_near_the_turning_point_takes_the_recurrence(self):
        spec = PolySpec("laguerre", 800, 0.5)
        roots = specfun.poly_roots(spec)
        centre, half, coeffs, _, taylor = specfun._taylor_panels(spec, roots)
        widest = int(np.argmax(half[1:-1])) + 1
        assert widest == 799 and not taylor[widest]
        # the series is cut, not the distance to x = 0
        assert half[widest] <= 0.5 * centre[widest]
        x = centre[:, None] + half[:, None] * np.linspace(-0.9, 0.9, 11)
        got = specfun.panel_evaluator(spec, roots)(x)
        ref = specfun.eval_poly_scaled(spec, x)
        assert np.array_equal(got[0][widest], ref[0][widest])
        assert np.array_equal(got[1][widest], ref[1][widest])

    def test_row_blocks_are_bit_identical(self, monkeypatch):
        spec = PolySpec("laguerre", 300, 0.5)
        roots = specfun.poly_roots(spec)
        centre, half, _, _, _ = specfun._taylor_panels(spec, roots)
        x = centre[:, None] + half[:, None] * np.linspace(-1.0, 1.0, 7)
        whole = specfun.panel_evaluator(spec, roots)(x)
        monkeypatch.setattr(specfun, "RECURRENCE_BLOCK", 50)  # 7 rows a block
        blocked = specfun.panel_evaluator(spec, roots)(x)
        assert np.array_equal(whole[0], blocked[0]) and np.array_equal(whole[1], blocked[1])

    def test_panel_next_to_the_singular_point_takes_the_recurrence(self):
        for spec in (PolySpec("laguerre", 800, 0.5), PolySpec("gegenbauer", 800, 1.0)):
            _, _, _, _, taylor = specfun._taylor_panels(spec, specfun.poly_roots(spec))
            assert not taylor[1] and taylor[2]  # the first panel is too wide for |c|

    @pytest.mark.parametrize("family, param", FAMILIES)
    def test_small_degrees_are_the_recurrence_bit_for_bit(self, family, param):
        spec = PolySpec(family, specfun.TAYLOR_MIN_DEGREE - 1, param)
        roots = specfun.poly_roots(spec)
        # one row per root panel; the outer ones reach a unit past the roots
        edges = np.concatenate([[roots[0] - 1.0], roots, [roots[-1] + 1.0]])
        x = np.linspace(edges[:-1], edges[1:], 13, axis=1)
        got = specfun.panel_evaluator(spec, roots)(x)
        ref = specfun.eval_poly_scaled(spec, x)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    def test_nodes_on_roots_and_outer_panels(self):
        spec = PolySpec("hermite", 200)
        roots = specfun.poly_roots(spec)
        # each root is the last node of one row and the first of the next
        edges = np.concatenate([[roots[0] - 1.0], roots, [roots[-1] + 1.0]])
        x = np.stack([edges[:-1], edges[1:]], axis=1)
        evaluate = specfun.panel_evaluator(spec, roots)
        m, logs = evaluate(x)
        rm, rlogs = specfun.eval_poly_scaled(spec, x)
        peak = np.max(np.abs(rm * np.exp(rlogs)))
        assert np.max(np.abs(m * np.exp(logs) - rm * np.exp(rlogs))) < 1e-12 * peak
        # outer panels: the recurrence
        assert np.array_equal(m[0], rm[0]) and np.array_equal(m[-1], rm[-1])
        with pytest.raises(DomainError, match="one row per root panel"):
            evaluate(x.ravel())
