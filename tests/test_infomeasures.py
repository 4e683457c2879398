"""Fisher, Shannon, Renyi, disequilibrium: closed forms vs quadrature."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from dho import infomeasures as im
from dho import cli, moments, oracle, specfun, validation
from dho.errors import DomainError, UnsupportedError
from dho.infomeasures import ENGINE_CLOSED, ENGINE_ORACLE, RenyiOrder
from dho.specfun import EULER_GAMMA
from dho.states import CartesianState, HyperState, OscillatorSpec, Space

LN_PI = math.log(math.pi)


def hyper(omega, D, nr, *mu):
    return HyperState(OscillatorSpec(omega, D), nr, tuple(mu))


def cart(omega, *n):
    return CartesianState(OscillatorSpec(omega, len(n)), tuple(n))


class TestRenyiOrder:
    def test_validation(self):
        with pytest.raises(DomainError):
            RenyiOrder(1.0)
        with pytest.raises(DomainError):
            RenyiOrder(0.0)

    def test_conjugate(self):
        assert RenyiOrder(2.0).conjugate == pytest.approx(2.0 / 3.0)
        assert RenyiOrder(0.75).conjugate == pytest.approx(1.5)
        with pytest.raises(DomainError):
            RenyiOrder(0.4).conjugate


class TestFisher:
    def test_ground_stam_values(self):
        g = hyper(1.0, 3, 0, 0, 0)
        assert im.fisher(g, Space.POSITION).value == pytest.approx(6.0, rel=1e-14, abs=0.0)
        assert im.fisher(g, Space.MOMENTUM).value == pytest.approx(6.0, rel=1e-14, abs=0.0)

    def test_excited_example(self):
        st_ = hyper(2.0, 3, 1, 1, 1)
        assert im.fisher(st_, Space.POSITION).value == pytest.approx(28.0, rel=1e-14, abs=0.0)

    def test_product_omega_free(self):
        for om in (0.5, 1.0, 2.0):
            st_ = hyper(om, 3, 1, 1, 1)
            prod = (im.fisher(st_, Space.POSITION).value
                    * im.fisher(st_, Space.MOMENTUM).value)
            assert prod == pytest.approx(16.0 * 3.5 ** 2, rel=1e-12)

    def test_oracle_engine(self):
        st_ = hyper(1.0, 4, 2, 2, 1, 1)
        closed = im.fisher(st_, Space.POSITION).value
        orc = im.fisher(st_, Space.POSITION, engine=ENGINE_ORACLE).value
        assert orc == pytest.approx(closed, rel=1e-11)

    def test_validate_compares_the_closed_moment_form(self, monkeypatch):
        from_moments = im._fisher_from_moments
        monkeypatch.setattr(im, "_fisher_from_moments", lambda st_, sp, oracle_engine:
                            from_moments(st_, sp, oracle_engine) * (1.0 + 1e-9))
        check = validation.CHECKS["fisher_closed_and_moment_form"]
        assert check("quick").status == validation.FAIL


class TestHermiteEntropy:
    def test_n0(self):
        assert im.hermite_entropy(0) == 0.0

    def test_n1_closed_value(self):
        target = math.sqrt(math.pi) * (4.0 - 2.0 * EULER_GAMMA)
        assert im.hermite_entropy(1) == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_vs_full_line_oracle(self, n):
        closed = im.hermite_entropy(n)
        orc = im.hermite_entropy_oracle(n, tol=1e-12).value
        if n == 0:
            assert abs(closed - orc) < 1e-12
        else:
            assert closed == pytest.approx(orc, rel=1e-8)


class TestShannonCartesian:
    def test_ground_any_d(self):
        for D in (1, 2, 3, 6):
            st_ = cart(1.0, *([0] * D))
            assert im.shannon_cartesian(st_).value == pytest.approx(
                (D / 2.0) * (1.0 + LN_PI), rel=1e-13, abs=0.0)

    def test_one_dim_excited(self):
        got = im.shannon_cartesian(cart(1.0, 1)).value
        oracle_val = im.shannon_cartesian(cart(1.0, 1), engine=ENGINE_ORACLE,
                                          tol=1e-11).value
        assert got == pytest.approx(oracle_val, abs=1e-8)
        assert got == pytest.approx(1.3427280, abs=5e-7)

    def test_bbm_sum_structure(self):
        # S_pos + S_mom = 2 sum (n + 1/2 + ln N_n - E(H_n)/N_n), N_n = 2^n n! sqrt(pi)
        st_ = cart(1.7, 2, 0, 1)
        total = (im.shannon_cartesian(st_, Space.POSITION).value
                 + im.shannon_cartesian(st_, Space.MOMENTUM).value)
        expected = 0.0
        for n in st_.n:
            log_norm = n * math.log(2.0) + gammaln(n + 1.0) + 0.5 * LN_PI
            expected += 2 * (n + 0.5 + log_norm - im.hermite_entropy(n) / math.exp(log_norm))
        assert total == pytest.approx(expected, rel=1e-12)
        assert total >= 3 * (1 + LN_PI) - 1e-12

    @pytest.mark.parametrize("ns", [(1, 2), (5, 0, 3), (15,)])
    def test_closed_matches_quadpack_engine(self, ns):
        st_ = cart(1.0, *ns)
        closed = im.shannon_cartesian(st_, tol=1e-12)
        quadpack = im.shannon_cartesian(st_, engine=ENGINE_ORACLE, tol=1e-12)
        assert closed.value == pytest.approx(quadpack.value, abs=1e-10)

    def test_omega_covariance(self):
        st1 = cart(1.0, 2, 1)
        st2 = cart(3.0, 2, 1)
        s1 = im.shannon_cartesian(st1, Space.POSITION).value
        s2 = im.shannon_cartesian(st2, Space.POSITION).value
        assert s2 == pytest.approx(s1 - 1.0 * math.log(3.0), rel=1e-12)
        m1 = im.shannon_cartesian(st1, Space.MOMENTUM).value
        m2 = im.shannon_cartesian(st2, Space.MOMENTUM).value
        assert m2 == pytest.approx(m1 + 1.0 * math.log(3.0), rel=1e-12)


def _axis_quadpack(n, g):
    """QUADPACK integral of g(ln rho) over the unit-width axis density of degree n."""
    spec = specfun.PolySpec("hermite", n)
    evaluate = specfun.scaled_evaluator(spec)  # eval_poly_scaled's bits, one float at a time

    def f(t):
        m, s = evaluate(t)
        if m == 0.0:
            return 0.0
        return g(-t * t + 2.0 * (math.log(abs(m)) + s))

    return oracle.integrate_adaptive(f, -math.inf, math.inf,
                                     singular_points=specfun.poly_roots(spec), tol=1e-12).value


@pytest.mark.parametrize("n", [16, 20, 24, 30, 40])
def test_closed_cartesian_entropies_match_quadpack(n):
    # the paper's float64 forms were off by 1e-8 .. 400 here (or had no logarithm)
    st_ = cart(1.3, n)
    shannon = im.shannon_cartesian(st_)
    exact = _axis_quadpack(n, lambda lr: -math.exp(lr) * lr) - 0.5 * math.log(1.3)
    assert shannon.value == pytest.approx(exact, abs=1e-10)
    assert shannon.engine == ENGINE_ORACLE and shannon.error_estimate > 0
    for q in (2, 3):
        renyi = im.renyi(st_, q)
        exact = (math.log(_axis_quadpack(n, lambda lr: math.exp(q * lr))) / (1 - q)
                 - 0.5 * math.log(1.3))
        assert renyi.value == pytest.approx(exact, abs=1e-10)
        assert renyi.engine == ENGINE_CLOSED


@pytest.mark.parametrize("n, q", [(3, 0.5), (7, 1.5), (12, 2.5)])
def test_real_q_cartesian_renyi_matches_quadpack(n, q):
    st_ = cart(0.8, n)
    renyi = im.renyi(st_, q)
    exact = (math.log(_axis_quadpack(n, lambda lr: math.exp(q * lr))) / (1 - q)
             - 0.5 * math.log(0.8))
    assert renyi.value == pytest.approx(exact, abs=1e-10)
    assert renyi.engine == ENGINE_ORACLE and renyi.error_estimate > 0


@pytest.mark.parametrize("q", [None, 2, 3, 1.5])
def test_cartesian_momentum_entropy_is_position_at_inverse_omega(q):
    # the momentum density is the position density with omega -> 1/omega
    st_ = cart(1.7, 2, 0, 5)

    def entropy(space):
        if q is None:
            return im.shannon_cartesian(st_, space).value
        return im.renyi_cartesian(st_, q, space).value

    assert entropy(Space.MOMENTUM) - entropy(Space.POSITION) == pytest.approx(
        3.0 * math.log(1.7), abs=1e-12)


class TestShannonHyperspherical:
    def test_ground_matches_cartesian(self):
        for (D, om) in ((2, 1.0), (3, 0.5), (6, 2.0)):
            h = hyper(om, D, 0, *([0] * (D - 1)))
            c = cart(om, *([0] * D))
            for space in (Space.POSITION, Space.MOMENTUM):
                hv = im.shannon_hyperspherical(h, space, tol=1e-12).value
                cv = im.shannon_cartesian(c, space).value
                assert hv == pytest.approx(cv, abs=1e-10)

    def test_assembled_vs_direct(self):
        for st_ in (hyper(1.0, 3, 2, 1, 0), hyper(2.0, 4, 1, 2, 1, 1),
                    hyper(1.0, 2, 3, 2)):
            a = im.shannon_hyperspherical(st_, engine=ENGINE_CLOSED, tol=1e-11).value
            d = im.shannon_hyperspherical(st_, engine=ENGINE_ORACLE, tol=1e-11).value
            assert a == pytest.approx(d, abs=1e-9)

    def test_engine_tag_is_oracle(self):
        mv = im.shannon_hyperspherical(hyper(1.0, 3, 1, 0, 0))
        assert mv.engine == ENGINE_ORACLE

    def test_position_momentum_relation(self):
        st_ = hyper(2.0, 3, 1, 1, 0)
        pos = im.shannon_hyperspherical(st_, Space.POSITION, tol=1e-11).value
        mom = im.shannon_hyperspherical(st_, Space.MOMENTUM, tol=1e-11).value
        assert mom - pos == pytest.approx(3.0 * math.log(2.0), abs=1e-10)

    def test_swave_angular_values(self):
        assert im.angular_shannon_swave(2) == pytest.approx(math.log(2 * math.pi))
        assert im.angular_shannon_swave(3) == pytest.approx(math.log(4 * math.pi))
        assert im.angular_shannon_swave(3) == pytest.approx(2.5310242469692907)


class TestRenyi:
    def test_cartesian_ground(self):
        for q in (2, 3, 5):
            for D in (1, 3):
                st_ = cart(1.0, *([0] * D))
                assert im.renyi_cartesian(st_, q).value == pytest.approx(
                    (D / 2.0) * math.log(math.pi * q ** (1.0 / (q - 1))), rel=1e-13, abs=0.0)

    def test_ground_d1_q2_reference(self):
        assert im.renyi_cartesian(cart(1.0, 0), 2).value == pytest.approx(
            0.5 * math.log(2 * math.pi), rel=1e-13, abs=0.0)

    def test_closed_requires_integer_q(self):
        # real q has no closed form: the closed engine's panel value carries the
        # oracle tag, and the oracle engine computes a value of its own
        closed = im.renyi_cartesian(cart(1.0, 1), 1.5, engine=ENGINE_CLOSED)
        orc = im.renyi_cartesian(cart(1.0, 1), 1.5, engine=ENGINE_ORACLE)
        assert closed.engine == orc.engine == ENGINE_ORACLE
        assert closed.error_estimate > 0 and orc.error_estimate > 0
        assert abs(closed.value - orc.value) <= closed.error_estimate + orc.error_estimate

    def test_cartesian_closed_vs_oracle(self):
        # the paper's Lauricella form against the served value, n <= 5
        for (q, ns) in ((2, (1,)), (2, (2, 1)), (3, (3, 0, 2)), (2, (5,)), (3, (4, 5))):
            for space in (Space.POSITION, Space.MOMENTUM):
                st_ = cart(1.3, *ns)
                served = im.renyi_cartesian(st_, q, space)
                assert served.engine == ENGINE_CLOSED and served.error_estimate is None
                assert im.renyi_cartesian_lauricella(st_, q, space) == pytest.approx(
                    served.value, abs=1e-8)

    def test_validate_compares_the_lauricella_form(self, monkeypatch):
        form = im.renyi_cartesian_lauricella
        monkeypatch.setattr(im, "renyi_cartesian_lauricella",
                            lambda st_, q: form(st_, q) + 1e-7)
        check = validation.CHECKS["renyi_cartesian_vs_oracle"]
        assert check("quick").status == validation.FAIL

    def test_hyper_ground_q2_total(self):
        st_ = hyper(1.0, 3, 0, 0, 0)
        r2 = im.renyi_hyperspherical(st_, 2.0).value
        assert math.exp(-r2) == pytest.approx((2 * math.pi) ** -1.5, rel=1e-10)

    def test_cross_engine_ground(self):
        for D in (2, 3, 5):
            h = hyper(1.0, D, 0, *([0] * (D - 1)))
            c = cart(1.0, *([0] * D))
            assert im.renyi_hyperspherical(h, 2.0).value == pytest.approx(
                im.renyi_cartesian(c, 2).value, abs=1e-10)

    def test_swave_angular_any_q(self):
        for q in (0.5, 2.0, 3.7):
            st_ = hyper(1.0, 4, 1, 0, 0, 0)
            assert im.angular_renyi(st_, q) == pytest.approx(
                im.angular_shannon_swave(4), rel=1e-11)

    def test_position_momentum_relation(self):
        st_ = hyper(0.7, 3, 2, 1, 1)
        pos = im.renyi_hyperspherical(st_, 2.0, Space.POSITION).value
        mom = im.renyi_hyperspherical(st_, 2.0, Space.MOMENTUM).value
        assert pos + 1.5 * math.log(0.7) == pytest.approx(
            mom - 1.5 * math.log(0.7), rel=1e-11)

    def test_q_to_one_brackets_shannon(self):
        st_ = hyper(1.0, 3, 1, 1, 0)
        s = im.shannon_hyperspherical(st_, tol=1e-11).value
        lo = im.renyi_hyperspherical(st_, 1.001, tol=1e-10).value
        hi = im.renyi_hyperspherical(st_, 0.999, tol=1e-10).value
        assert lo <= s <= hi
        assert abs(lo - s) < 1e-3 and abs(hi - s) < 1e-3

    @pytest.mark.parametrize("ns", [(0,), (3,), (1, 4)])
    def test_cartesian_q_to_one_brackets_shannon(self, ns):
        st_ = cart(1.0, *ns)
        s = im.shannon_cartesian(st_, tol=1e-11).value
        lo = im.renyi_cartesian(st_, 1.001, tol=1e-10).value
        hi = im.renyi_cartesian(st_, 0.999, tol=1e-10).value
        assert lo <= s <= hi
        assert abs(lo - s) < 1e-3 and abs(hi - s) < 1e-3

    def test_hyper_real_q_engines_agree(self):
        st_ = hyper(1.0, 3, 1, 2, 1)
        a = im.renyi_hyperspherical(st_, 1.7, engine=ENGINE_CLOSED, tol=1e-11).value
        b = im.renyi_hyperspherical(st_, 1.7, engine=ENGINE_ORACLE, tol=1e-11).value
        assert a == pytest.approx(b, abs=1e-9)


class TestDisequilibrium:
    def test_d2_angular(self):
        for (l, m) in ((0, 0), (2, 2), (3, -3)):
            st_ = HyperState(OscillatorSpec(1.0, 2), 1, (m if l == abs(m) else l,))
            assert im.disequilibrium_angular(st_) == pytest.approx(
                1.0 / (2 * math.pi), rel=1e-14, abs=0.0)

    def test_ground_d3(self):
        st_ = hyper(1.0, 3, 0, 0, 0)
        assert im.disequilibrium_radial(st_) == pytest.approx(
            2.0 ** -0.5 / math.gamma(1.5), rel=1e-13, abs=0.0)
        assert im.disequilibrium_angular(st_) == pytest.approx(
            1.0 / (4 * math.pi), rel=1e-13, abs=0.0)
        assert im.disequilibrium(st_).value == pytest.approx(
            (2 * math.pi) ** -1.5, rel=1e-12, abs=0.0)

    def test_swave_angular_is_quarter_pi_not_zero(self):
        assert im.disequilibrium_angular_3j(0, 0) == pytest.approx(
            1.0 / (4 * math.pi), rel=1e-14, abs=0.0)

    def test_closed_vs_oracle_grid(self):
        for (nr, l, D) in ((0, 0, 2), (2, 1, 3), (4, 3, 5), (6, 4, 5)):
            mu = [l] + [0] * (D - 2) if D > 2 else [l]
            st_ = hyper(1.0, D, nr, *mu)
            c = im.disequilibrium(st_).value
            o = im.disequilibrium(st_, engine=ENGINE_ORACLE, tol=1e-12).value
            assert c == pytest.approx(o, rel=1e-9)

    def test_exp_minus_r2_identity(self):
        for st_ in (hyper(2.0, 3, 1, 1, 0), hyper(1.0, 5, 2, 2, 1, 0, 0)):
            d = im.disequilibrium(st_).value
            r2 = im.renyi_hyperspherical(st_, 2.0).value
            assert math.exp(-r2) == pytest.approx(d, rel=1e-9)

    @pytest.mark.parametrize("omega", [1.0, 50.0])
    def test_error_estimate_is_carried_through_the_exponential(self, omega):
        st_ = hyper(omega, 3, 2, 1, 0)
        d = im.disequilibrium(st_, engine=ENGINE_ORACLE)
        r2 = im.renyi_hyperspherical(st_, 2.0, engine=ENGINE_ORACLE)
        assert r2.error_estimate > 0.0
        assert d.error_estimate == d.value * r2.error_estimate

    def test_omega_scaling(self):
        base = im.disequilibrium(hyper(1.0, 3, 1, 1, 1)).value
        scaled = im.disequilibrium(hyper(2.0, 3, 1, 1, 1)).value
        assert scaled == pytest.approx(base * 2.0 ** 1.5, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("l", [10, 12, 16, 20])
    def test_high_l_d3_matches_3j_product(self, l):
        # the Dougall angular sum drifts from 3j by 2.7e-10 .. 1.4e-3 over these l
        for m in (0, l // 2, -l):
            st_ = hyper(1.0, 3, 2, l, m)
            product = im.disequilibrium_radial(st_) * im.disequilibrium_angular_3j(l, m)
            assert im.disequilibrium(st_).value == pytest.approx(product, rel=1e-12, abs=0.0)

    def test_nr150_matches_triple_sum_product(self):
        st_ = hyper(1.0, 3, 150, 2, 1)
        product = im.disequilibrium_radial(st_) * im.disequilibrium_angular(st_)
        assert im.disequilibrium(st_).value == pytest.approx(product, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nr", [260, 1000])
    def test_rydberg_nr_matches_panel_route(self, nr):
        # the triple sum overflows here; the served exp(-R2) = 2 omega^(D/2) N Lambda_2
        # with N the Laguerre (alpha = l + D/2 - 1) L_2 norm at x^(D/2 + 2l - 1)
        st_ = hyper(1.0, 3, nr, 2, 1)
        spec = specfun.PolySpec("laguerre", nr, 2.5)
        norm = oracle._root_panel_integral(spec, 4.5, 2.0,
                                           lambda lw, ln_y2: np.exp(lw + 2.0 * ln_y2), None)
        expected = 2.0 * norm * im.angular_entropic_moment(st_, 2.0)
        served = im.disequilibrium(st_)
        assert served.value == pytest.approx(expected, rel=1e-10, abs=0.0)
        assert served.engine == ENGINE_CLOSED and served.error_estimate is None

    @pytest.mark.parametrize("name", ["disequilibrium_radial", "disequilibrium_angular"])
    def test_validate_compares_the_product_form(self, name, monkeypatch):
        form = getattr(im, name)
        monkeypatch.setattr(im, name, lambda st_: form(st_) * (1.0 + 1e-8))
        check = validation.CHECKS["disequilibrium_closed_vs_oracle"]
        assert check("quick").status == validation.FAIL


    @pytest.mark.parametrize("name, st_", [
        ("disequilibrium_radial", hyper(1.0, 3, 201, 0, 0)),
        ("disequilibrium_radial", hyper(1.0, 3, 260, 2, 1)),  # overflowed before
        ("disequilibrium_radial", hyper(1.0, 4, 0, 81, 0, 0)),
        ("disequilibrium_radial", hyper(1.0, 11, 1, *[0] * 10)),
        ("disequilibrium_angular", hyper(1.0, 3, 0, 7, 0)),
        ("disequilibrium_angular", hyper(1.0, 6, 0, 12, 3, 2, 1, 0)),
    ])
    def test_product_forms_refuse_beyond_their_bounds(self, name, st_):
        with pytest.raises(UnsupportedError):
            getattr(im, name)(st_)
        # the served value is not bounded by them
        assert im.disequilibrium(st_).engine == ENGINE_CLOSED

    def test_product_forms_at_their_bounds(self):
        st_ = hyper(1.0, 10, 200, 80, *[0] * 8)
        exact = 2.0 * oracle.weighted_Lq_norm(200, 80, 10, 2.0)
        assert im.disequilibrium_radial(st_) == pytest.approx(exact, rel=1e-12, abs=0.0)
        for mu in ((6, 0), (6, 6)):
            st_ = hyper(1.0, 3, 0, *mu)
            assert im.disequilibrium_angular(st_) == pytest.approx(
                im.angular_entropic_moment(st_, 2.0), rel=1e-12, abs=0.0)
        st_ = hyper(1.0, 4, 0, 6, 3, -1)
        assert im.disequilibrium_angular(st_) == pytest.approx(
            im.angular_entropic_moment(st_, 2.0), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("D", [2, 3, 5])
    @pytest.mark.parametrize("l", [0, 2])
    def test_radial_tables_keep_the_triple_sum_bits(self, D, l):
        def triple_sum(nr):  # every binomial evaluated inside the loops
            tot = []
            for k in range(nr + 1):
                for kp in range(nr + 1):
                    base = (specfun.binomial(2 * nr - 2 * k, nr - k)
                            * specfun.binomial(2 * nr - 2 * kp, nr - kp)
                            * math.exp(gammaln(2 * k + 1.0) - gammaln(k + 1.0)
                                       + gammaln(2 * kp + 1.0) - gammaln(kp + 1.0)
                                       - gammaln(l + D / 2.0 + k)
                                       - gammaln(l + D / 2.0 + kp)))
                    for r in range(min(2 * k, 2 * kp) + 1):
                        tot.append(base
                                   * specfun.binomial(1.0 - D / 2.0, 2 * k - r)
                                   * specfun.binomial(1.0 - D / 2.0, 2 * kp - r)
                                   * specfun.binomial(2 * l + D / 2.0 - 1.0 + r, r))
            return (1.3 ** (D / 2.0) * 2.0 ** (1.0 - D / 2.0 - 2 * l - 4 * nr)
                    * math.exp(gammaln(D / 2.0 + 2 * l)) * math.fsum(tot))

        mu = [l] + [0] * (D - 2)
        for nr in range(11):
            assert im.disequilibrium_radial(hyper(1.3, D, nr, *mu)) == triple_sum(nr)


class TestAngularShannonAssembly:
    def test_b1_matches_direct_for_mu_states(self):
        # states with mu_{j+1} > 0 exercise the log-moment constant
        for (D, mu) in ((4, (2, 1, 1)), (5, (3, 2, 1, 1)), (3, (2, 2))):
            st_ = hyper(1.0, D, 0, *mu)
            assembled = im.angular_shannon(st_, tol=1e-12)
            direct = im.angular_shannon_direct(st_, tol=1e-12)
            assert assembled == pytest.approx(direct, abs=1e-10)


def test_quadpack_integrands_evaluate_no_ndarray_per_point(monkeypatch, capsys):
    # a QUADPACK integrand runs once per point; the ndarray recurrence costs
    # ~150 us a call there, so inside one it must not run at all (roots, Gauss
    # rules and the float evaluators are built outside the integrands and
    # do not count)
    inside, calls, evals = [False], [], [0]
    quad = oracle.quad

    def counted_quad(f, *args, **kwargs):
        def g(x, *a):
            inside[0] = True
            evals[0] += 1
            try:
                return f(x, *a)
            finally:
                inside[0] = False

        return quad(g, *args, **kwargs)

    def counted(name):
        original = getattr(specfun, name)

        def wrapper(*args, **kwargs):
            if inside[0]:
                calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(specfun, name, wrapper)

    monkeypatch.setattr(oracle, "quad", counted_quad)
    for name in ("_recurrence", "eval_poly_scaled", "scaled_evaluator"):
        counted(name)
    im._ORACLE_CACHE.clear()  # a cached factor integral runs no integrand
    for state in ('{"kind":"hyper","D":4,"omega":1.3,"nr":3,"mu":[2,1,-1]}',
                  '{"kind":"cartesian","omega":0.8,"n":[3,0,5]}'):
        for extra in ([], ["--quantity", "renyi", "--q", "2"],
                      ["--quantity", "renyi", "--q", "2.5"]):
            assert cli.main(["compute", "--state", state, "--quantity", "shannon",
                             "--engine", "oracle", "--space", "momentum", *extra]) == 0
    capsys.readouterr()
    im.hermite_entropy_oracle(4)
    assert evals[0] > 1000
    assert calls == []


# ---------------------------------------------------------------------------
# the oracle engine: one QUADPACK integral per factor of _factors


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"the oracle engine called {name}")

    return refuse


@pytest.mark.parametrize("state", [cart(0.8, 3, 0, 5), cart(1.7, 7, 3),
                                   hyper(1.3, 4, 3, 2, 1, -1), hyper(0.6, 3, 2, 1, 0),
                                   hyper(2.0, 2, 1, -3)])
def test_oracle_engine_uses_none_of_the_closed_kernels(state, monkeypatch):
    # the closed engine's kernels (Gauss rules, tanh-sinh panels, the entropy
    # kernel and the L_q integral) may not serve an oracle value
    closed = {q: im.renyi(state, q) if q else im.shannon(state) for q in (None, 2, 3, 2.5)}
    for name in ("lq_integral", "log_lq_integral", "polynomial_entropy", "gauss_rule",
                 "integrate_panels_vectorized"):
        monkeypatch.setattr(oracle, name, _refuse(name))
    im._ORACLE_CACHE.clear()
    for q, c in closed.items():
        o = (im.renyi(state, q, engine=ENGINE_ORACLE) if q
             else im.shannon(state, engine=ENGINE_ORACLE))
        assert o.engine == ENGINE_ORACLE and 0.0 < o.error_estimate < 1e-9
        assert o.value == pytest.approx(c.value, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("D", [6, 10, 15, 20])
@pytest.mark.parametrize("omega", [1.0, 0.1])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_oracle_renyi_of_small_integrals_matches_closed(D, omega, q):
    # the radial integrals reach 1e-28 here; below QUADPACK's absolute floor
    # the oracle was off by up to 2.3e-7 before its integrands were scaled
    mu = [8, 8] + [0] * (D - 3) if D == 15 else [8] + [0] * (D - 2)
    st_ = hyper(omega, D, 5, *mu)
    closed = im.renyi(st_, q)
    orc = im.renyi(st_, q, engine=ENGINE_ORACLE)
    assert orc.value == pytest.approx(closed.value, rel=1e-12)
    assert orc.error_estimate < 1e-10


def _mp_orthonormal(spec, x):
    """spec's orthonormal member at x, in mpmath."""
    n, p = spec.degree, spec.parameter
    if spec.family == "hermite":
        return mp.hermite(n, x) / mp.sqrt(2 ** n * mp.factorial(n) * mp.sqrt(mp.pi))
    if spec.family == "laguerre":
        return mp.laguerre(n, p, x) * mp.sqrt(mp.factorial(n) / mp.gamma(n + p + 1))
    norm = (mp.pi * mp.mpf(2) ** (1 - 2 * p) * mp.gamma(n + 2 * p)
            / (mp.factorial(n) * (n + p) * mp.gamma(p) ** 2))
    return mp.gegenbauer(n, p, x) / mp.sqrt(norm)


@pytest.mark.parametrize("state, index, points", [
    (cart(1.0, 7), 0, (-3.1, -0.4, 0.05, 1.7, 4.2)),
    (hyper(1.0, 5, 6, 3, 1, 1, 0), 0, (0.02, 0.9, 3.3, 11.0, 27.0)),
    (hyper(1.0, 5, 6, 3, 1, 1, 0), 1, (-0.97, -0.3, 0.2, 0.66, 0.999)),
    (hyper(1.0, 6, 0, 7, 4, 2, 2, -1), 2, (-0.8, -0.1, 0.45, 0.93)),
])
def test_factor_log_density_matches_mpmath(state, index, points):
    # L = ln y^2 + a1 ln b - decay and ln J = (a0 - a2) ln b, per family
    f = im._factors(state)[1][index]
    b, decay = {"hermite": (lambda x: 1, lambda x: x * x),
                "laguerre": (lambda x: x, lambda x: x),
                "gegenbauer": (lambda x: 1 - x * x, lambda x: 0)}[f.spec.family]
    log_parts = im._factor_density(f)
    for x in points:
        with mp.workdps(40):
            xm = mp.mpf(x)
            ln_j = (f.a0 - f.a2) * mp.log(b(xm))
            ref = (mp.log(_mp_orthonormal(f.spec, xm) ** 2) + f.a1 * mp.log(b(xm))
                   - decay(xm))
        got_j, got = log_parts(x)
        assert got_j == pytest.approx(float(ln_j), rel=1e-13, abs=1e-13)
        assert got == pytest.approx(float(ref), rel=1e-12, abs=1e-12)


@st.composite
def served_states(draw, cartesian=True):
    """States from the parser's domain, sized for Tier-1: D <= 12 (Cartesian
    D <= 6), n_r and axis degrees <= 30, l <= 12, omega in [1e-2, 1e2];
    hyperspherical only unless cartesian."""
    omega = draw(st.floats(1e-2, 1e2))
    if cartesian and draw(st.booleans()):
        n = draw(st.lists(st.integers(0, 30), min_size=1, max_size=6))
        return CartesianState(OscillatorSpec(omega, len(n)), tuple(n))
    D = draw(st.integers(2, 12))
    mu = sorted(draw(st.lists(st.integers(0, 12), min_size=D - 1, max_size=D - 1)),
                reverse=True)
    if draw(st.booleans()):
        mu[-1] = -mu[-1]
    return HyperState(OscillatorSpec(omega, D), draw(st.integers(0, 30)), tuple(mu))


def _stated(measure):
    """The printed error estimate; a null one counts as 1e-12 relative."""
    if measure.error_estimate is None:
        return 1e-12 * abs(measure.value)
    return measure.error_estimate


@settings(max_examples=60, deadline=None)
@given(state=served_states(),
       q=st.one_of(st.none(), st.sampled_from([2, 3, 4, 5]),
                   st.floats(0.2, 5.0).filter(lambda q: abs(q - 1.0) > 1e-3)),
       space=st.sampled_from(list(Space)))
def test_closed_and_oracle_agree_within_their_stated_errors(state, q, space):
    if q is None:
        closed, orc = (im.shannon(state, space, engine) for engine in (ENGINE_CLOSED,
                                                                          ENGINE_ORACLE))
    else:
        closed, orc = (im.renyi(state, q, space, engine) for engine in (ENGINE_CLOSED,
                                                                           ENGINE_ORACLE))
    assert abs(closed.value - orc.value) <= _stated(closed) + _stated(orc)


@pytest.mark.parametrize("omega", [1.0, 1.7])
@pytest.mark.parametrize("D", [50, 200, 400, 1000])
def test_high_dimensional_ground_state_closed_forms_on_both_engines(D, omega):
    # the mass sits near x = D/2 (x = a/q at small q), far past the one
    # (degree-0) root panel: R_q = (D/2) ln(pi q^(1/(q-1)) / omega),
    # S = (D/2)(1 + ln pi - ln omega).  The rounding of the 999 factors' log
    # normalizations, which the oracle's Shannon terms cancel over their
    # numerical mass, leaves its q = 2 value 1.1e-13 off at D = 1000.
    st_ = hyper(omega, D, 0, *[0] * (D - 1))
    for engine in (ENGINE_CLOSED, ENGINE_ORACLE):
        rel = 1.5e-13 if engine == ENGINE_ORACLE and D == 1000 else 1e-13
        shannon = im.shannon(st_, Space.POSITION, engine)
        exact = (D / 2.0) * (1.0 + LN_PI - math.log(omega))
        assert shannon.value == pytest.approx(exact, rel=1e-13, abs=0.0)
        for q in (0.1, 0.2, 0.5, 2, 5):
            exact = (D / 2.0) * math.log(math.pi * q ** (1.0 / (q - 1.0)) / omega)
            try:
                value = im.renyi(st_, q, Space.POSITION, engine).value
            except UnsupportedError as refusal:
                # only the closed real-q kernel refuses, where its exp overflows
                assert engine == ENGINE_CLOSED and q < 1 and D >= 300, (D, q)
                assert "leaves the float range" in str(refusal)
                continue
            assert value == pytest.approx(exact, rel=rel, abs=0.0), (engine, q)


@pytest.mark.parametrize("D, q, miss", [(3, 2000.0, 0.01), (1000, 1.0, 25.0),
                                        (1000, 2.0, 20.0), (300, 0.2, 3.0)])
def test_peak_grid_scales_near_the_radial_peak(D, q, miss):
    # ground-state radial integrand x^a e^(-qx), a = D/2 - 1, peaks at a/q
    # (2.5e-4 at q = 2000, about 500 at D = 1000); the grid's best point lies
    # within miss nats of it, so the scaled integrand stays far inside the
    # float range (e^709)
    a = D / 2.0 - 1.0
    lo, hi = oracle.support(specfun.PolySpec("laguerre", 0, a), a, q)
    log_f = lambda x: a * math.log(x) - q * x if x > 0.0 else -math.inf
    assert 0.0 <= log_f(a / q) - max(map(log_f, im._peak_grid(lo, hi, []))) < miss
    if D == 3:
        exact = (D / 2.0) * math.log(math.pi * q ** (1.0 / (q - 1.0)))
        value = im.renyi(hyper(1.0, D, 0, 0, 0), q, Space.POSITION, ENGINE_ORACLE).value
        assert value == pytest.approx(exact, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("mu, q", [((400, 0), None), ((400, 0), 2.0), ((400, 400), None),
                                   ((400, 400), 0.7), ((400, 400), 2.0)])
def test_far_peak_radial_member_engines_agree(mu, q):
    # D = 3, l = 400: x^400.5 e^(-x) peaks at x = 400, far past the origin,
    # where the oracle's outward walk once stopped at x = 1.6 (1.29 for 8.70).
    # mu_2 = 400 has the same radial member and a degree-0 angular one, so
    # its oracle skips the 7 s QUADPACK pass over the 401 Legendre panels
    st_ = hyper(1.0, 3, 0, *mu)
    if q is None:
        closed, orc = (im.shannon(st_, Space.POSITION, e) for e in (ENGINE_CLOSED, ENGINE_ORACLE))
    else:
        closed, orc = (im.renyi(st_, q, Space.POSITION, e) for e in (ENGINE_CLOSED, ENGINE_ORACLE))
    assert orc.engine == ENGINE_ORACLE
    assert abs(closed.value - orc.value) <= _stated(closed) + _stated(orc)
    assert orc.error_estimate <= oracle.DEFAULT_TOL * max(1.0, abs(orc.value))
    if q is None:
        # the radial term over its numerical mass: lgamma(401.5)'s 1.25 ulp
        # left the oracle 1.8e-13 relative off, 1.5e-12 against 1.4e-12 printed
        assert orc.value == pytest.approx(closed.value, rel=1e-13, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(state=served_states(cartesian=False), space=st.sampled_from(list(Space)),
       data=st.data())
def test_closed_and_oracle_moments_fisher_and_disequilibrium_agree(state, space, data):
    # the oracle moment's Gauss-Laguerre rule is exact for its polynomial, so
    # the moments, and the Fisher value built on them, agree to rounding
    k = data.draw(st.floats(-state.spec.dim - 2 * state.l, 10.0, exclude_min=True),
                  label="k")
    assert moments.oracle_radial_moment(state, k, space) == pytest.approx(
        moments.radial_moment(state, k, space), rel=1e-12, abs=0.0)
    closed, orc = (im.fisher(state, space, engine) for engine in (ENGINE_CLOSED,
                                                                  ENGINE_ORACLE))
    assert orc.value == pytest.approx(closed.value, rel=1e-12, abs=0.0)
    closed, orc = (im.disequilibrium(state, engine) for engine in (ENGINE_CLOSED,
                                                                   ENGINE_ORACLE))
    assert abs(closed.value - orc.value) <= orc.error_estimate + 1e-12 * closed.value


# ---------------------------------------------------------------------------
# the omega-free L_q kernels are computed once per state, not per omega or space


def test_lq_kernels_run_once_across_omega_and_space(monkeypatch):
    monkeypatch.setattr(oracle, "_LQ_CACHE", oracle.BoundedCache(64))
    calls = []
    for name in ("_log_gauss_lq_integral", "_root_panel_integral"):
        original = getattr(oracle, name)
        monkeypatch.setattr(oracle, name,
                            lambda *args, f=original: calls.append(args) or f(*args))
    values = {}
    for omega in (0.5, 1.0, 2.0):
        state = hyper(omega, 4, 3, 2, 1, -1)
        for space in Space:
            for q in (2, 2.5):
                values[omega, space, q] = im.renyi(state, q, space).value
        values[omega, "disequilibrium"] = im.disequilibrium(state).value
    assert len(calls) == len(oracle._LQ_CACHE) > 0
    # the cached route gives the bits of the uncached one
    monkeypatch.setattr(oracle, "_LQ_CACHE", oracle.BoundedCache(0))
    for omega in (0.5, 2.0):
        state = hyper(omega, 4, 3, 2, 1, -1)
        for q in (2, 2.5):
            assert im.renyi(state, q, Space.MOMENTUM).value == values[omega, Space.MOMENTUM, q]
        assert im.disequilibrium(state).value == values[omega, "disequilibrium"]
