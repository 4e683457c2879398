"""Rydberg and high-dimension asymptotics against the exact engines."""

import math

import mpmath as mp
import numpy as np
import pytest

from dho import asymptotics as asy
from dho import infomeasures as im
from dho import moments, oracle
from dho.errors import DomainError, UnsupportedError
from dho.specfun import PolySpec
from dho.states import CartesianState, HyperState, OscillatorSpec, Space


def hyper(omega, D, nr, *mu):
    return HyperState(OscillatorSpec(omega, D), nr, tuple(mu))


class TestRydbergMoments:
    def test_k0_is_one(self):
        assert asy.rydberg_moment(0.0, 500).value == pytest.approx(1.0, rel=1e-14)

    def test_k1_reference(self):
        got = asy.rydberg_moment(1.0, 1000).value
        assert got == pytest.approx(2.0 / math.pi * math.sqrt(4000.0), rel=1e-13)

    def test_k2_residual_shrinks(self):
        resids = []
        for nr in (100, 1000):
            exact = moments.radial_moment(hyper(1.0, 3, nr, 0, 0), 2.0)
            resids.append(abs(exact - asy.rydberg_moment(2.0, nr).value) / exact)
        assert resids[1] < resids[0]
        # relative residual is exactly (l + D/2)/(2 n_r + l + D/2) here
        assert resids[0] == pytest.approx(1.5 / 201.5, rel=1e-10)

    def test_k_below_validity_raises(self):
        with pytest.raises(UnsupportedError):
            asy.rydberg_moment(-1.0, 100)

    def test_s_positive_branch_continuous(self):
        # s -> 0 limit of the general branch approaches the bounded-l form
        small = asy.rydberg_moment(2.0, 100, asy.RydbergLimit(1e-6)).value
        zero = asy.rydberg_moment(2.0, 100).value
        assert small == pytest.approx(zero, rel=1e-4)

    def test_limit_parameters(self):
        assert asy.RydbergLimit(0.0).a == 4.0
        assert asy.RydbergLimit(0.6).a == pytest.approx(2.0 * 1.8 / 0.4)
        with pytest.raises(DomainError):
            asy.RydbergLimit(1.0)

    def test_momentum_scaling(self):
        pos = asy.rydberg_moment(2.0, 300, omega=2.0).value
        mom = asy.rydberg_moment(2.0, 300, omega=2.0, space=Space.MOMENTUM).value
        assert mom == pytest.approx(4.0 * pos, rel=1e-13)


class TestRydbergHeisenberg:
    def test_k2(self):
        assert asy.rydberg_heisenberg(2.0, 100).value == pytest.approx(40000.0, rel=1e-12)

    def test_k0(self):
        assert asy.rydberg_heisenberg(0.0, 100).value == pytest.approx(1.0, rel=1e-13)

    def test_ratio_approaches_one(self):
        ratios = []
        for nr in (100, 1000):
            exact = moments.heisenberg_product(hyper(1.0, 3, nr, 0, 0), 2.0)
            ratios.append(exact / asy.rydberg_heisenberg(2.0, nr).value)
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)


class TestHighDimMoments:
    def test_ground_r2_exact_equality(self):
        # the leading form (D / (2 omega))^(k/2) is exact for the ground <r^2>,
        # and the refined form is within O(1/D) of it (2.2/D at D = 10)
        for D in (10, 100, 1000):
            for om in (0.5, 2.0):
                exact = moments.radial_moment(hyper(om, D, 0, *([0] * (D - 1))), 2.0)
                assert D / (2.0 * om) == pytest.approx(exact, rel=1e-13)
                assert abs(asy.highdim_moment(2.0, D, om).value / exact - 1.0) < 2.5 / D

    def test_refined_form_k1(self):
        D = 2000
        exact = moments.radial_moment(hyper(1.0, D, 0, *([0] * (D - 1))), 1.0)
        refined = asy.highdim_moment(1.0, D, 1.0).value
        assert abs(refined / exact - 1.0) < 2.0 / D
        assert abs(math.sqrt(D / 2.0) / exact - 1.0) < 2.0 / D

    def test_characteristic_length(self):
        # <r^k>^(1/k) tends to the length sqrt(D / (2 omega)); 7.3e-4 off at k = 1
        for k in (1.0, 2.0, 4.0):
            v = asy.highdim_moment(k, 1600, 2.0).value
            assert v ** (1.0 / k) == pytest.approx(math.sqrt(1600 / (2 * 2.0)), rel=2.0 / 1600)

    def test_small_d_warns_in_note(self):
        note = asy.highdim_moment(2.0, 10, 1.0).order_note
        assert "below the comfortable range" in note

    def test_heisenberg(self):
        assert asy.highdim_heisenberg(2.0, 800).value == pytest.approx(400.0 ** 2)


class TestLaguerreEntropyAsymptotics:
    def test_beta0_corollary_form(self):
        n, alpha = 50, 1.0
        got = asy.laguerre_entropy_asymptotics(n, alpha)
        target = -2 * n + (alpha + 1) * math.log(n) - alpha - 2 + math.log(2 * math.pi)
        assert got == pytest.approx(target, rel=1e-13)

    def test_residual_shrinks(self):
        resids = []
        for n in (50, 200):
            num = oracle.polynomial_entropy(PolySpec("laguerre", n, 1.0), tol=1e-9)
            resids.append(abs(num - asy.laguerre_entropy_asymptotics(n, 1.0)))
        assert resids[1] < resids[0]

    def test_beta1_scaling(self):
        # leading n^2 coefficient of the beta = 1 functional is 6
        big = asy.laguerre_entropy_asymptotics(4000, 0.5, beta=1.0)
        assert big / 4000.0 ** 2 == pytest.approx(-6.0, rel=1e-2)


class TestRydbergEntropies:
    def test_shannon_swave_formula(self):
        st_ = hyper(2.0, 3, 500, 0, 0)
        got = asy.rydberg_shannon(st_).value
        target = (1.5 * math.log(500) + math.log(math.pi) - 1.0
                  + math.log(4 * math.pi) - 1.5 * math.log(2.0))
        assert got == pytest.approx(target, rel=1e-12)

    def test_shannon_residual_ordering(self):
        resids = []
        for nr in (50, 200):
            st_ = hyper(1.0, 3, nr, 0, 0)
            exact = im.shannon_hyperspherical(st_, tol=1e-9).value
            resids.append(abs(exact - asy.rydberg_shannon(st_).value))
        assert resids[1] < resids[0]

    def test_shannon_sum_omega_free(self):
        for om in (0.5, 2.0):
            st_ = hyper(om, 3, 100, 1, 0)
            s = (asy.rydberg_shannon(st_, Space.POSITION).value
                 + asy.rydberg_shannon(st_, Space.MOMENTUM).value)
            ref = hyper(1.0, 3, 100, 1, 0)
            sref = (asy.rydberg_shannon(ref, Space.POSITION).value
                    + asy.rydberg_shannon(ref, Space.MOMENTUM).value)
            assert s == pytest.approx(sref, rel=1e-12)

    def test_norm_regimes(self):
        # D=3: q* = 1.5; q = 2 selects the Bessel-constant branch with n^{-1/2}
        val, regime = asy.rydberg_norm_asymptotic(400, 0, 3, 2.0)
        assert "Bessel" in regime
        val2, _ = asy.rydberg_norm_asymptotic(1600, 0, 3, 2.0)
        assert val / val2 == pytest.approx(2.0, rel=1e-12)

    def test_norm_constancy_point(self):
        # (q-1) D/2 - q = 0 at q = D/(D-2): D=6 -> q = 1.5
        a, _ = asy.rydberg_norm_asymptotic(100, 0, 6, 1.5)
        b, _ = asy.rydberg_norm_asymptotic(10000, 0, 6, 1.5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_norm_transition_regime(self):
        val, regime = asy.rydberg_norm_asymptotic(500, 0, 3, 1.5)
        assert "transition" in regime
        assert val > 0

    def test_small_q_regime(self):
        val, regime = asy.rydberg_norm_asymptotic(500, 0, 3, 1.2)
        assert "small-q" in regime
        exact = oracle.weighted_Lq_norm(500, 0, 3, 1.2, tol=1e-8)
        assert abs(exact / val - 1.0) < 0.05

    def test_norm_ratio_at_800(self):
        exact = oracle.weighted_Lq_norm(800, 0, 3, 2.0)
        approx, _ = asy.rydberg_norm_asymptotic(800, 0, 3, 2.0)
        assert abs(exact / approx - 1.0) < 0.10

    def test_bessel_constant_halforder_analytic(self):
        # 2 int |J_{1/2}(2t)|^4 dt = 1/pi
        assert asy.bessel_norm_constant(0.5, -0.5, 2.0) == pytest.approx(
            1.0 / math.pi, rel=1e-8)

    def test_bessel_constant_integrates_each_panel_once(self, monkeypatch):
        bounds, quad = [], asy.quad
        calls, panel_sum = [], asy._zero_panel_sum

        def counted(f, a, b, **kwargs):
            bounds.append((a, b))
            return quad(f, a, b, **kwargs)

        def recorded(alpha, beta, q, edges):
            calls.append(edges)
            return panel_sum(alpha, beta, q, edges)

        monkeypatch.setattr(asy, "quad", counted)
        monkeypatch.setattr(asy, "_zero_panel_sum", recorded)
        value = asy._bessel_norm_integral(0.5, -0.5, 3.0)
        # [0, first zero] is the one quad panel; each doubling from 512
        # panels sums only its new zero panels, each starting where the last
        # call ended, until the value settles
        assert bounds == [(0.0, calls[0][0])]
        assert all(a[-1] == b[0] for a, b in zip(calls, calls[1:]))
        edges = np.concatenate([calls[0]] + [c[1:] for c in calls[1:]])
        assert edges.size in (1024, 2048, 4096)
        assert np.all(np.diff(edges) > 0.0)
        # the zeros of J_(1/2)(2t), sin(2t)/sqrt(t), are k pi / 2
        k = np.arange(1, edges.size + 1)
        assert np.max(np.abs(edges / (k * math.pi / 2.0) - 1.0)) <= 1e-14
        assert value == pytest.approx(0.10881702767803182, rel=1e-15)

    @pytest.mark.parametrize("alpha, missed", [(1.5, 0), (3.5, 0), (20.5, 3)])
    def test_bessel_zeros_match_40_digits(self, alpha, missed):
        k = np.array([1, 2, 3, 4, 8, 16, 100, 511, 512, 2048, 4096])
        zeros, ok = asy._bessel_zeros(alpha, k.astype(float))
        # McMahon's start misses the first zeros at large alpha, and says so
        assert np.array_equal(ok, k > missed)
        with mp.workdps(40):
            ref = np.array([float(mp.besseljzero(alpha, int(i)) / 2) for i in k[ok]])
        assert np.max(np.abs(zeros[ok] / ref - 1.0)) <= 1e-14

    @pytest.mark.parametrize("alpha", [1.5, 3.5])
    @pytest.mark.parametrize("q", [1.6, 2.0, 2.5])
    def test_zero_panel_sum_matches_30_digits(self, alpha, q):
        beta = (1.0 - q) / 2.0  # D = 3
        # for integer 2q the integrand is analytic on each closed panel, so
        # Gauss-Legendre serves (4x faster); else the zeros are branch points
        method = "gauss-legendre" if (2 * q).is_integer() else "tanh-sinh"
        with mp.workdps(30):
            zeros = [mp.besseljzero(alpha, k) / 2 for k in range(1, 17)]
            ref = 2 * mp.quad(lambda t: t ** (2 * beta + 1) * abs(mp.besselj(alpha, 2 * t))
                              ** (2 * q), zeros, method=method)
        edges = asy._bessel_zeros(alpha, np.arange(1.0, 17.0))[0]
        got = asy._zero_panel_sum(alpha, beta, q, edges)
        assert got == pytest.approx(float(ref), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 3.5, 8.5])
    @pytest.mark.parametrize("q", [1.6, 2.0, 2.5])
    def test_first_panel_matches_30_digits(self, alpha, q, monkeypatch):
        # the one quad panel, [0, first zero], at relative 1e-13: at
        # QUADPACK's default epsabs it was 5.5e-11 off at alpha 1.5, q 1.6
        beta, panels, quad = (1.0 - q) / 2.0, [], asy.quad

        def recorded(f, a, b, **kwargs):
            panels.append((a, b, quad(f, a, b, **kwargs)[0]))
            return panels[-1][2], 0.0

        monkeypatch.setattr(asy, "quad", recorded)
        try:
            asy._bessel_norm_integral(alpha, beta, q)
        except UnsupportedError:  # alpha 8.5, q 1.6 does not settle by 4096 panels
            pass
        (a, b, got), = panels
        with mp.workdps(30):
            ref = 2 * mp.quad(lambda t: t ** (2 * beta + 1) * abs(mp.besselj(alpha, 2 * t))
                              ** (2 * q), [a, b])
        assert got == pytest.approx(float(ref), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("l, D, q", [(8, 3, 1.6), (8, 4, 1.353)])
    def test_unsettled_bessel_constant_is_refused(self, l, D, q, monkeypatch):
        # the last doubling moved C_B by more than rtol; it was served
        monkeypatch.setattr(asy, "_BESSEL_CACHE", oracle.BoundedCache(4))
        with pytest.raises(UnsupportedError, match="above rtol 1e-08"):
            asy.rydberg_norm_asymptotic(400, l, D, q)
        assert len(asy._BESSEL_CACHE) == 0

    def test_requires_d_above_2(self):
        with pytest.raises(UnsupportedError):
            asy.rydberg_norm_asymptotic(100, 0, 2, 2.0)

    def test_renyi_sum_omega_free(self):
        for om in (0.5, 2.0):
            st_ = hyper(om, 3, 200, 0, 0)
            s = (asy.rydberg_renyi(st_, 2.0, Space.POSITION).value
                 + asy.rydberg_renyi(st_, 2.0, Space.MOMENTUM).value)
            ref = hyper(1.0, 3, 200, 0, 0)
            sref = (asy.rydberg_renyi(ref, 2.0, Space.POSITION).value
                    + asy.rydberg_renyi(ref, 2.0, Space.MOMENTUM).value)
            assert s == pytest.approx(sref, rel=1e-12)

    @pytest.mark.parametrize("q", [2.0, 0.8])
    def test_renyi_residual_shrinks(self, q):
        # the radial part carries the -ln 2 of radial_renyi, so the residual
        # against the exact value decays instead of tending to ln 2
        resids = []
        for nr in (100, 400, 800):
            st_ = hyper(1.0, 3, nr, 0, 0)
            exact = im.renyi_hyperspherical(st_, q, tol=1e-8).value
            resids.append(abs(asy.rydberg_renyi(st_, q).value - exact))
        assert resids[0] > resids[1] > resids[2]
        assert resids[2] < (0.001 if q == 2.0 else 0.1)


class TestHighDimEntropies:
    def test_shannon_leading_equals_exact_ground(self):
        for D in (10, 100, 1000):
            for om in (0.5, 1.0):
                st_ = hyper(om, D, 0, *([0] * (D - 1)))
                lead = asy.highdim_shannon(st_).value
                exact = (D / 2.0) * (1.0 + math.log(math.pi / om))
                assert lead == pytest.approx(exact, rel=1e-13)

    def test_shannon_modes_differ(self):
        st_ = hyper(1.0, 100, 0, *([0] * 99))
        lead = asy.highdim_shannon(st_, mode="leading").value
        pub = asy.highdim_shannon(st_, mode="as_published").value
        assert pub == pytest.approx(50.0 * math.log(100.0), rel=1e-13)
        assert pub != pytest.approx(lead, rel=0.05)

    def test_renyi_ground_remainder_over_d_shrinks(self):
        rems = []
        for D in (10, 100, 1000):
            exact = im.renyi_cartesian(
                CartesianState(OscillatorSpec(1.0, D), (0,) * D), 2).value
            st_ = hyper(1.0, D, 0, *([0] * (D - 1)))
            rems.append(abs(asy.highdim_renyi(st_, 2.0).value - exact) / D)
        assert rems[0] > rems[1] > rems[2]

    def test_renyi_momentum_form(self):
        st_ = hyper(2.0, 64, 1, *([1] * 63))
        pos = asy.highdim_renyi(st_, 2.0, Space.POSITION).value
        mom = asy.highdim_renyi(st_, 2.0, Space.MOMENTUM).value
        # leading + subleading agree; only the constant term differs
        assert abs((mom - 64.0 * math.log(2.0)) - pos) < 5.0

    def test_etilde_mtilde_unity_for_equal_mu(self):
        st_ = hyper(1.0, 40, 2, *([3] * 39))
        assert asy._log_etilde(st_) == pytest.approx(0.0, abs=1e-10)
        assert asy._log_mtilde(st_, 2.0) == pytest.approx(0.0, abs=1e-10)

    def test_conjugate_sum_saturates_as_d_grows(self):
        q = 2.0
        q_star = q / (2 * q - 1)
        devs = []
        for D in (16, 64, 256):
            st_ = hyper(1.0, D, 0, *([0] * (D - 1)))
            s = (asy.highdim_renyi(st_, q, Space.POSITION).value
                 + asy.highdim_renyi(st_, q_star, Space.MOMENTUM).value)
            bound = D * math.log(math.pi * q ** (1 / (2 * q - 2))
                                 * q_star ** (1 / (2 * q_star - 2)))
            devs.append(abs(s - bound) / D)
        assert devs[0] > devs[1] > devs[2]
