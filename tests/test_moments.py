"""Radial expectation values: closed forms, identities, quadrature agreement."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dho import moments, oracle, validation
from dho.errors import DomainError, UnsupportedError
from dho.states import HyperState, OscillatorSpec, Space


def hyper(omega, D, nr, l, m=None):
    if D == 2:
        return HyperState(OscillatorSpec(omega, D), nr, (l,))
    mu = [l] + [0] * (D - 2)
    if m is not None:
        mu = [l] + [m] * (D - 2)
    return HyperState(OscillatorSpec(omega, D), nr, tuple(mu))


class TestClosedForm:
    def test_k0_is_one(self):
        for st_ in (hyper(1.0, 3, 0, 0), hyper(2.0, 6, 4, 3), hyper(0.5, 2, 2, 1)):
            assert moments.radial_moment(st_, 0.0) == pytest.approx(1.0, rel=1e-14, abs=0.0)

    def test_r2_reference(self):
        st_ = hyper(1.0, 3, 1, 2)
        assert moments.radial_moment(st_, 2.0) == pytest.approx(5.5, rel=1e-14, abs=0.0)

    def test_rminus2_reference(self):
        # omega / (L + 1/2) with L = l + (D-3)/2
        for nr in (0, 2, 5):
            st_ = hyper(2.0, 3, nr, 1)
            assert moments.radial_moment(st_, -2.0) == pytest.approx(4.0 / 3.0, rel=1e-13, abs=0.0)

    def test_r4_ground(self):
        st_ = hyper(1.0, 3, 0, 0)
        assert moments.radial_moment(st_, 4.0) == pytest.approx(3.75, rel=1e-14, abs=0.0)

    def test_existence_condition(self):
        with pytest.raises(DomainError):
            moments.radial_moment(hyper(1.0, 3, 1, 0), -3.0)
        with pytest.raises(DomainError):
            moments.radial_moment(hyper(1.0, 2, 0, 0), -2.0)

    def test_momentum_space_scaling(self):
        st_ = hyper(2.0, 5, 2, 1)
        for k in (-2.0, 1.0, 2.0, 3.5):
            assert moments.radial_moment(st_, k, Space.MOMENTUM) == pytest.approx(
                2.0 ** k * moments.radial_moment(st_, k), rel=1e-14, abs=0.0)

    @given(st.integers(0, 8), st.integers(0, 4), st.sampled_from([2, 3, 6]),
           st.sampled_from([-1.0, 1.0, 2.0, 3.0]), st.floats(0.2, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_omega_scaling_property(self, nr, l, D, k, omega):
        if not k > -D - 2 * l:
            return
        ref = moments.radial_moment(hyper(1.0, D, nr, l), k)
        val = moments.radial_moment(hyper(omega, D, nr, l), k)
        assert val == pytest.approx(omega ** (-k / 2.0) * ref, rel=1e-12, abs=0.0)

    def test_dual_form_agreement(self):
        for (nr, l, D, k) in ((10, 0, 3, 1.0), (10, 5, 12, 3.0), (8, 2, 6, -1.0)):
            a = moments.moment_3f2_form(hyper(1.0, D, nr, l), k)
            b = moments.radial_moment(hyper(1.0, D, nr, l), k)
            assert a == pytest.approx(b, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nr", [22, 26, 28, 30, 31, 32])
    @pytest.mark.parametrize("k", [-1.5, -1.0, 0.5, 1.0])
    def test_dual_form_cancellation_does_not_raise(self, nr, k):
        # the alternating 3F2 loses up to ~1e-10 here; the finite sum does not
        st_ = hyper(1.0, 3, nr, 0)
        assert moments.radial_moment(st_, k) == pytest.approx(
            moments.oracle_radial_moment(st_, k), rel=1e-12, abs=0.0)

    def test_dual_form_still_catches_a_wrong_sum(self, monkeypatch):
        # the served value is the finite sum alone; validate holds the 3F2 check
        st_ = hyper(1.0, 3, 5, 0)
        exact = moments._moment_finite_sum(st_, -1.0)
        finite_sum = moments._moment_finite_sum
        monkeypatch.setattr(moments, "_moment_finite_sum",
                            lambda state, k, *space: finite_sum(state, k, *space)
                            * (1.0 + 1e-9))
        assert moments.radial_moment(st_, -1.0) == exact * (1.0 + 1e-9)
        assert validation.CHECKS["moment_3f2_vs_finite_sum"]("quick").status == validation.FAIL


class TestOracleAgreement:
    @pytest.mark.parametrize("k", [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 6.0])
    def test_gauss_oracle(self, k):
        for (nr, l, D, om) in ((0, 0, 3, 1.0), (5, 2, 6, 0.5), (10, 5, 12, 2.0),
                               (3, 1, 2, 1.0)):
            if not k > -D - 2 * l:
                continue
            st_ = hyper(om, D, nr, l)
            assert moments.oracle_radial_moment(st_, k) == pytest.approx(
                moments.radial_moment(st_, k), rel=1e-10)


def _mp_moment(state, k, space):
    """<r^k> (or <p^k>) from the Laguerre polynomial's power-series coefficients,
    integrated term by term at 60 digits."""
    with mp.workdps(60):
        nr, a, omega = state.n_r, mp.mpf(state.alpha), mp.mpf(state.spec.omega)
        c = [(-1) ** m * mp.binomial(nr + a, nr - m) / mp.factorial(m) for m in range(nr + 1)]
        s = mp.fsum(c[i] * c[j] * mp.gamma(a + mp.mpf(k) / 2 + i + j + 1)
                    for i in range(nr + 1) for j in range(nr + 1))
        value = s * mp.factorial(nr) / mp.gamma(nr + a + 1) * omega ** (-mp.mpf(k) / 2)
        return value * omega ** k if space is Space.MOMENTUM else value


# k/2 - m + 1 rounds near (or onto) a Gamma pole in the finite sum's
# binomials: near an even negative k, near k = -D - 2l, and at a tiny k
@pytest.mark.parametrize("D, nr, l, k", [(3, 10, 1, -2.0 + 1e-12), (4, 10, 2, -2.0 + 1e-12),
                                         (6, 8, 0, -4.0 + 1e-7), (8, 8, 5, -18.0 + 1e-9),
                                         (2, 1, 0, 1e-20), (5, 9, 0, 4.0 + 1e-10)])
def test_closed_sum_matches_mpmath_near_integer_half_k(D, nr, l, k):
    state = hyper(1.3, D, nr, l)
    exact = _mp_moment(state, k, Space.POSITION)
    assert abs(moments.radial_moment(state, k) - exact) <= 1e-13 * abs(exact)


class TestOmegaFactorInTheExponent:
    # each value is representable while the omega-free moment, or <r^k> on
    # the way to <p^k> = omega^k <r^k>, overflows
    CASES = [(10.0, 3, 0, 0, 400.0, Space.POSITION), (10.0, 4, 3, 2, 360.0, Space.POSITION),
             (0.1, 3, 2, 1, 400.0, Space.MOMENTUM), (0.05, 6, 1, 0, 330.0, Space.MOMENTUM)]

    @pytest.mark.parametrize("omega, D, nr, l, k, space", CASES)
    def test_both_engines_match_mpmath(self, omega, D, nr, l, k, space):
        state = hyper(omega, D, nr, l)
        exact = _mp_moment(state, k, space)
        assert max(_mp_moment(hyper(1.0, D, nr, l), k, space),
                   _mp_moment(state, k, Space.POSITION)) > mp.mpf("1e308")
        for value in (moments.radial_moment(state, k, space),
                      moments.oracle_radial_moment(state, k, space)):
            assert math.isfinite(value)
            assert abs(value - exact) <= 1e-12 * abs(exact)

    def test_unit_omega_has_no_factor(self):
        state = hyper(1.0, 3, 4, 1)
        for k in (-1.5, 1.0, 3.0):
            for engine in (moments.radial_moment, moments.oracle_radial_moment):
                assert engine(state, k) == engine(state, k, Space.MOMENTUM)


class TestMomentCache:
    ENGINES = (moments.radial_moment, moments.oracle_radial_moment)

    def test_a_warm_value_has_the_bits_of_a_cold_one(self, monkeypatch):
        for state, k in ((hyper(0.7, 3, 40, 2), 1.0), (hyper(2.0, 5, 3, 1), -1.5),
                         (hyper(1.0, 3, 200, 0), 2.5)):
            for engine in self.ENGINES:
                for space in Space:
                    monkeypatch.setattr(moments, "_MOMENT_CACHE", oracle.BoundedCache(4))
                    cold = engine(state, k, space)
                    assert engine(state, k, space) == cold

    def test_each_kernel_runs_once_across_omega_and_space(self, monkeypatch):
        monkeypatch.setattr(moments, "_MOMENT_CACHE", oracle.BoundedCache(16))
        calls = []
        for name in ("_finite_sum_parts", "_log_gauss_moment"):
            original = getattr(moments, name)
            monkeypatch.setattr(moments, name,
                                lambda *args, f=original: calls.append(args) or f(*args))
        for omega in (0.5, 1.0, 2.0):
            for space in Space:
                for engine in self.ENGINES:
                    for k in (-1.0, 2.0):
                        engine(hyper(omega, 3, 4, 1), k, space)
        assert len(calls) == len(moments._MOMENT_CACHE) == 4

    def test_omega_alone_still_leaves_the_float_range(self, monkeypatch):
        # <r^4> = omega^-2 <r^4>_(omega=1): the cached omega-free part is finite
        monkeypatch.setattr(moments, "_MOMENT_CACHE", oracle.BoundedCache(4))
        for engine in self.ENGINES:
            served = engine(hyper(1.0, 3, 2, 1), 4.0)
            with pytest.raises(UnsupportedError, match="float range"):
                engine(hyper(1e-300, 3, 2, 1), 4.0)
            assert engine(hyper(1.0, 3, 2, 1), 4.0) == served

    def test_a_compute_that_raises_stores_nothing(self, monkeypatch):
        monkeypatch.setattr(moments, "_MOMENT_CACHE", oracle.BoundedCache(4))

        def fail(*args):
            raise ArithmeticError("failed")

        monkeypatch.setattr(moments, "_finite_sum_parts", fail)
        with pytest.raises(ArithmeticError):
            moments.radial_moment(hyper(1.0, 3, 2, 1), 1.0)
        with pytest.raises(UnsupportedError):  # a Gauss rule past GAUSS_MAX_ORDER
            moments.oracle_radial_moment(hyper(1.0, 3, oracle.GAUSS_MAX_ORDER, 0), 1.0)
        assert len(moments._MOMENT_CACHE) == 0


class TestRecurrence:
    def test_from_initial_conditions(self):
        st_ = hyper(1.0, 3, 2, 1)
        m0 = 1.0
        mm2 = moments.radial_moment(st_, -2.0)
        m2 = moments.recurrence_step(st_, 0.0, m0, mm2)
        assert m2 == pytest.approx((2 * st_.n + 3) / 2.0, rel=1e-13, abs=0.0)

    def test_r4_ground_value(self):
        st_ = hyper(1.0, 3, 0, 0)
        m2 = moments.radial_moment(st_, 2.0)
        m4 = moments.recurrence_step(st_, 2.0, m2, 1.0)
        assert m4 == pytest.approx(3.75, rel=1e-13, abs=0.0)

    def test_matches_closed_form_on_grid(self):
        for D in (2, 3, 6):
            for l in (0, 2, 4):
                for nr in (0, 3, 8):
                    st_ = hyper(1.0, D, nr, l)
                    for k in (0.0, 2.0, 4.0):
                        if not k - 2.0 > -D - 2 * l:
                            continue
                        got = moments.recurrence_step(
                            st_, k, moments.radial_moment(st_, k),
                            moments.radial_moment(st_, k - 2.0))
                        assert got == pytest.approx(
                            moments.radial_moment(st_, k + 2.0), rel=1e-11)

    def test_k_minus_two_rejected(self):
        with pytest.raises(DomainError):
            moments.recurrence_step(hyper(1.0, 3, 0, 0), -2.0, 1.0, 1.0)


class TestReflection:
    def test_closed_loop(self):
        for (nr, l, D, om, k) in ((2, 1, 5, 1.0, 1.0), (3, 0, 5, 2.0, 1.0),
                                  (1, 2, 6, 0.7, 2.0), (4, 2, 4, 1.0, 1.5)):
            st_ = hyper(om, D, nr, l)
            assert moments.reflection_moment(st_, k) == pytest.approx(
                moments.radial_moment(st_, -k - 2.0), rel=1e-11, abs=0.0)

    def test_rminus3_relation(self):
        for nr in range(0, 5):
            st_ = hyper(1.0, 5, nr, 1)
            assert moments.reflection_moment_rminus3(st_) == pytest.approx(
                moments.radial_moment(st_, -3.0), rel=1e-11)

    def test_gamma_pole_guard(self):
        with pytest.raises(DomainError):
            moments.reflection_moment(hyper(1.0, 3, 0, 0), 2.0)


class TestHeisenberg:
    def test_k0(self):
        assert moments.heisenberg_product(hyper(1.0, 3, 2, 1), 0.0) == 1.0

    def test_k2_closed(self):
        for (nr, l, D) in ((0, 0, 3), (2, 1, 3), (3, 4, 6), (1, 0, 2)):
            st_ = hyper(1.3, D, nr, l)
            assert moments.heisenberg_product(st_, 2.0) == pytest.approx(
                (2 * nr + l + D / 2.0) ** 2, rel=1e-12)

    def test_ground_saturates_central_bound(self):
        for D in (2, 3, 4, 6):
            st_ = hyper(1.0, D, 0, 0)
            assert moments.heisenberg_product(st_, 2.0) == pytest.approx(
                (D / 2.0) ** 2, rel=1e-13, abs=0.0)

    def test_omega_invariance(self):
        vals = [moments.heisenberg_product(hyper(om, 4, 2, 2), 3.0)
                for om in (0.5, 1.0, 2.0)]
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[2] == pytest.approx(vals[1], rel=1e-12)

    def test_bound_hierarchy(self):
        for (nr, l, D) in ((1, 0, 3), (0, 2, 3), (2, 3, 6)):
            st_ = hyper(1.0, D, nr, l)
            prod = moments.heisenberg_product(st_, 2.0)
            assert prod >= D * D / 4.0 - 1e-12
            assert prod >= (l + D / 2.0) ** 2 - 1e-12
            if nr == 0:
                assert prod == pytest.approx((l + D / 2.0) ** 2, rel=1e-13)
