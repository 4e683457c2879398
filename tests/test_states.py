"""State model: invariants, densities, normalization, serialization."""

import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dho import infomeasures, oracle, specfun, states
from dho.errors import DomainError, ParseError
from dho.specfun import PolySpec
from dho.states import CartesianState, HyperState, OscillatorSpec, Space


def hyper(omega, D, nr, *mu):
    return HyperState(OscillatorSpec(omega, D), nr, tuple(mu))


class TestInvariants:
    def test_spec_validation(self):
        with pytest.raises(DomainError):
            OscillatorSpec(0.0, 3)
        with pytest.raises(DomainError):
            OscillatorSpec(1.0, 0)

    def test_mu_ordering_enforced(self):
        with pytest.raises(DomainError):
            hyper(1.0, 4, 0, 1, 2, 0)
        with pytest.raises(DomainError):
            hyper(1.0, 3, 0, 1, 2)
        hyper(1.0, 3, 0, 2, -1)  # negative m allowed
        with pytest.raises(DomainError):
            hyper(1.0, 4, 0, 2, -1, 0)

    def test_mu_length(self):
        with pytest.raises(DomainError):
            hyper(1.0, 3, 0, 0)

    def test_derived_symbols(self):
        st5 = hyper(1.0, 5, 2, 1, 1, 0, 0)
        assert st5.l == 1 and st5.m == 0 and st5.n == 5
        assert st5.alpha == 2.5

    def test_hyper_requires_dim2(self):
        with pytest.raises(DomainError):
            hyper(1.0, 1, 0)

    def test_cartesian_length(self):
        with pytest.raises(DomainError):
            CartesianState(OscillatorSpec(1.0, 3), (1, 2))

    def test_odd_count(self):
        st3 = CartesianState(OscillatorSpec(1.0, 4), (1, 2, 3, 0))
        assert st3.total == 6 and st3.odd_count == 2


class TestEnergy:
    def test_cartesian_example(self):
        st3 = CartesianState(OscillatorSpec(2.0, 3), (1, 0, 2))
        assert states.energy(st3) == pytest.approx(9.0, rel=1e-15)

    def test_hyper_ground(self):
        assert states.energy(hyper(1.0, 3, 0, 0, 0)) == pytest.approx(1.5)

    def test_hyper_excited(self):
        assert states.energy(hyper(1.0, 5, 2, 1, 0, 0, 0)) == pytest.approx(7.5)

    def test_cartesian_hyper_agree(self):
        # N = 2 n_r + l
        h = hyper(1.3, 3, 1, 2, 0)
        c = CartesianState(OscillatorSpec(1.3, 3), (2, 2, 0))
        assert states.energy(h) == pytest.approx(states.energy(c), rel=1e-15)


class TestDensities:
    @pytest.mark.parametrize("nr,l,D,om", [
        (0, 0, 3, 1.0), (2, 1, 3, 1.0), (4, 3, 6, 0.5), (6, 0, 2, 2.0), (3, 4, 2, 1.0)])
    def test_radial_normalization(self, nr, l, D, om):
        mu = tuple([l] + [0] * (D - 2)) if D > 2 else (l,)
        st_ = hyper(om, D, nr, *mu)
        for space in (Space.POSITION, Space.MOMENTUM):
            w = om if space is Space.POSITION else 1.0 / om
            spec = PolySpec("laguerre", nr, st_.alpha)
            roots = np.sqrt(specfun.poly_roots(spec) / w) if nr else []

            def f(r):
                return (states.radial_density(st_, space, r) * r ** (D - 1)
                        if r > 0 else 0.0)

            est = oracle.integrate_adaptive(f, 0.0, math.inf, roots, tol=1e-12)
            assert est.value == pytest.approx(1.0, abs=1e-11)

    def test_momentum_is_rescaled_position(self):
        st_ = hyper(2.0, 3, 2, 1, 0)
        om = 2.0
        for p in np.linspace(0.1, 3.0, 10):
            gamma = states.radial_density(st_, Space.MOMENTUM, p)
            rho = states.radial_density(st_, Space.POSITION, p / om)
            assert gamma == pytest.approx(rho / om ** 3, rel=1e-12)

    def test_angular_factors_normalized(self):
        # every factor density of the oracle engine, e^L against J dx, has mass 1
        for (D, nr, mu) in ((3, 2, (1, 0)), (4, 5, (2, 1, 1)), (5, 0, (3, 2, 1, -1)),
                            (6, 1, (0,) * 5), (2, 3, (-4,))):
            for f in infomeasures._factors(hyper(1.0, D, nr, *mu))[1]:
                lo, hi, roots, log_parts = infomeasures._factor_density(f)

                def density(x):
                    parts = log_parts(x)
                    return 0.0 if parts is None else math.exp(parts[0] + parts[1])

                est = oracle.integrate_adaptive(density, lo, hi, roots, tol=1e-12)
                assert est.value == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("D, omega, nr, mu", [
        (3, 1.0, 0, (0, 0)), (3, 1.7, 5, (0, 0)), (3, 0.6, 4, (2, -1)),
        (2, 2.0, 8, (-3,)), (5, 1.0, 30, (4, 3, 1, 0))])
    @pytest.mark.parametrize("space", list(Space))
    def test_log_radial_density_matches_mpmath(self, D, omega, nr, mu, space):
        st_ = hyper(omega, D, nr, *mu)
        w = omega if space is Space.POSITION else 1.0 / omega
        log_density = states.log_radial_density(st_, space)
        for r in (0.05, 0.7, 1.3, 2.9, 6.0, 11.0):
            x = w * r * r
            with mp.workdps(40):
                # 2 w^(D/2) x^l e^(-x) [L~_n^alpha(x)]^2, L~ orthonormal
                lag = mp.laguerre(nr, st_.alpha, x) ** 2 * mp.factorial(nr) / mp.gamma(
                    nr + st_.alpha + 1)
                ref = float(mp.log(2 * mp.mpf(w) ** (D / 2.0) * mp.mpf(x) ** st_.l
                                   * mp.exp(-x) * lag))
            assert log_density(r) == pytest.approx(ref, rel=1e-12, abs=1e-11)

    def test_closures_refuse_points_outside_their_domain(self):
        st_ = hyper(1.0, 4, 2, 2, 1, 0)
        with pytest.raises(DomainError):
            states.log_radial_density(st_, Space.POSITION)(-1e-300)
        with pytest.raises(DomainError):
            states.radial_density(st_, Space.MOMENTUM, -1.0)
        # the factor densities vanish off their supports
        radial, angular = infomeasures._factors(st_)[1][:2]
        for f, points in ((radial, (-1e-300, -2.0)), (angular, (1.0 + 2e-16, -1.5))):
            log_parts = infomeasures._factor_density(f)[3]
            assert all(log_parts(x) is None for x in points)

    def test_radial_density_vanishes_at_the_origin_only_for_l_above_zero(self):
        for l in (1, 3):
            for space in Space:
                assert states.radial_density(hyper(1.0, 3, 2, l, 0), space, 0.0) == 0.0
        assert states.radial_density(hyper(1.0, 3, 2, 0, 0), Space.POSITION, 0.0) > 0.0

    def test_d3_l1_m0_factor_shape(self):
        st_ = hyper(1.0, 3, 0, 1, 0)
        log_parts = infomeasures._factor_density(infomeasures._factors(st_)[1][1])[3]
        # orthonormal degree-1 factor is proportional to x^2
        ratios = [math.exp(log_parts(x)[1]) / (x * x) for x in (0.2, 0.5, -0.8)]
        assert ratios == pytest.approx([ratios[0]] * 3, rel=1e-12)

    def test_cartesian_ground_peak(self):
        for D in (1, 2, 4):
            st_ = CartesianState(OscillatorSpec(1.0, D), (0,) * D)
            val = states.cartesian_density(st_, Space.POSITION, (0.0,) * D)
            assert val == pytest.approx(math.pi ** (-D / 2.0), rel=1e-13)

    def test_cartesian_axis_normalization(self):
        st_ = CartesianState(OscillatorSpec(0.7, 2), (8, 3))
        for i, space in ((0, Space.POSITION), (1, Space.MOMENTUM)):
            f = lambda x: float(np.exp(states.log_cartesian_axis_density(st_, i, space, x))[0])
            est = oracle.integrate_adaptive(f, -math.inf, math.inf, tol=1e-12)
            assert est.value == pytest.approx(1.0, abs=1e-11)

    def test_cartesian_momentum_rescale(self):
        om = 1.7
        st_ = CartesianState(OscillatorSpec(om, 2), (2, 1))
        for p in ((0.3, -0.6), (1.1, 0.0)):
            gamma = states.cartesian_density(st_, Space.MOMENTUM, p)
            rho = states.cartesian_density(st_, Space.POSITION,
                                           tuple(pi / om for pi in p))
            assert gamma == pytest.approx(rho / om ** 2, rel=1e-12)

    def test_ground_equivalence_hyper_cartesian(self):
        rng = np.random.default_rng(7)
        for D in (2, 3, 5):
            om = 1.3
            h = hyper(om, D, 0, *([0] * (D - 1)))
            c = CartesianState(OscillatorSpec(om, D), (0,) * D)
            swave = 2 * math.pi ** (D / 2.0) / math.gamma(D / 2.0)
            for _ in range(20):
                x = rng.normal(size=D)
                r = float(np.linalg.norm(x))
                hyp_val = states.radial_density(h, Space.POSITION, r) / swave
                cart_val = states.cartesian_density(c, Space.POSITION, tuple(x))
                assert hyp_val == pytest.approx(cart_val, rel=1e-12)

    def test_rydberg_scale_density_finite(self):
        st_ = hyper(1.0, 3, 1000, 0, 0)
        v = states.radial_density(st_, Space.POSITION, 30.0)
        assert math.isfinite(v) and v >= 0.0


class TestSerialization:
    def test_wire_format_keys(self):
        h = hyper(1.0, 3, 2, 1, 0)
        assert states.state_to_dict(h) == {
            "kind": "hyper", "D": 3, "omega": 1.0, "nr": 2, "mu": [1, 0]}
        c = CartesianState(OscillatorSpec(1.0, 3), (2, 1, 0))
        assert states.state_to_dict(c) == {
            "kind": "cartesian", "omega": 1.0, "n": [2, 1, 0]}

    def test_parse_examples(self):
        h = states.parse_state('{"kind":"hyper","D":3,"omega":1.0,"nr":2,"mu":[1,0]}')
        assert isinstance(h, HyperState) and h.n_r == 2 and h.mu == (1, 0)
        c = states.parse_state('{"kind":"cartesian","omega":1.0,"n":[2,1,0]}')
        assert isinstance(c, CartesianState) and c.spec.dim == 3

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            states.parse_state("not json")
        with pytest.raises(ParseError):
            states.parse_state('{"kind":"weird"}')
        with pytest.raises(ParseError):
            states.parse_state('{"kind":"hyper","D":3}')
        with pytest.raises(DomainError):
            states.parse_state('{"kind":"hyper","D":3,"omega":1.0,"nr":0,"mu":[0,1]}')

    @given(st.integers(2, 6), st.integers(0, 5), st.integers(0, 4),
           st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_hyper(self, D, nr, l, omega):
        mu = tuple([l] + [0] * (D - 2))
        h = HyperState(OscillatorSpec(omega, D), nr, mu)
        again = states.state_from_dict(json.loads(json.dumps(states.state_to_dict(h))))
        assert again == h

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=5),
           st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_cartesian(self, ns, omega):
        c = CartesianState(OscillatorSpec(omega, len(ns)), tuple(ns))
        again = states.state_from_dict(json.loads(json.dumps(states.state_to_dict(c))))
        assert again == c
