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
        assert states.energy(st3) == pytest.approx(9.0, rel=1e-15, abs=0.0)

    def test_hyper_ground(self):
        assert states.energy(hyper(1.0, 3, 0, 0, 0)) == pytest.approx(1.5)

    def test_hyper_excited(self):
        assert states.energy(hyper(1.0, 5, 2, 1, 0, 0, 0)) == pytest.approx(7.5)

    def test_cartesian_hyper_agree(self):
        # N = 2 n_r + l
        h = hyper(1.3, 3, 1, 2, 0)
        c = CartesianState(OscillatorSpec(1.3, 3), (2, 2, 0))
        assert states.energy(h) == pytest.approx(states.energy(c), rel=1e-15, abs=0.0)


def _member_parts(state, points):
    """(ln J, L) of each member of the state's factor table at its point."""
    return [infomeasures._factor_density(f)(x)
            for f, x in zip(infomeasures._factors(state)[1], points)]


class TestDensities:
    @pytest.mark.parametrize("state", [
        hyper(1.0, 3, 2, 1, 0), hyper(1.0, 4, 5, 2, 1, 1), hyper(1.0, 5, 0, 3, 2, 1, -1),
        hyper(1.0, 6, 1, *(0,) * 5), hyper(1.0, 2, 3, -4), hyper(1.0, 3, 0, 0, 0),
        hyper(1.0, 6, 4, 3, 0, 0, 0, 0), hyper(1.0, 2, 6, 0), hyper(1.0, 2, 3, 4),
        CartesianState(OscillatorSpec(0.7, 2), (8, 3)),
        CartesianState(OscillatorSpec(1.0, 3), (0, 5, 12))])
    def test_factor_densities_normalized(self, state):
        # every factor density of the oracle engine, e^L against J dx, has mass 1
        for f in infomeasures._factors(state)[1]:
            log_parts = infomeasures._factor_density(f)
            lo, hi = oracle.support(f.spec, f.exponent(1.0), 1.0)
            roots = specfun.poly_roots(f.spec) if f.spec.degree > 0 else ()

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
        for space in Space:
            with pytest.raises(DomainError):
                states.log_radial_density(st_, space)(-1e-300)
        # the factor densities vanish off their supports
        radial, angular = infomeasures._factors(st_)[1][:2]
        for f, points in ((radial, (-1e-300, -2.0)), (angular, (1.0 + 2e-16, -1.5))):
            log_parts = infomeasures._factor_density(f)
            assert all(log_parts(x) is None for x in points)

    def test_radial_density_vanishes_at_the_origin_only_for_l_above_zero(self):
        for l in (1, 3):
            for space in Space:
                log_density = states.log_radial_density(hyper(1.0, 3, 2, l, 0), space)
                assert log_density(0.0) == -math.inf
        log_density = states.log_radial_density(hyper(1.0, 3, 2, 0, 0), Space.POSITION)
        assert math.isfinite(log_density(0.0))

    def test_d3_l1_m0_factor_shape(self):
        st_ = hyper(1.0, 3, 0, 1, 0)
        log_parts = infomeasures._factor_density(infomeasures._factors(st_)[1][1])
        # orthonormal degree-1 factor is proportional to x^2
        ratios = [math.exp(log_parts(x)[1]) / (x * x) for x in (0.2, 0.5, -0.8)]
        assert ratios == pytest.approx([ratios[0]] * 3, rel=1e-12)

    @pytest.mark.parametrize("D", [2, 3, 5])
    def test_ground_equivalence_hyper_cartesian(self, D):
        # one ground-state density from both factor tables.  Hyperspherical:
        # the radial member at x = w r^2 (dx = 2 w r dr) and the angular
        # members' L (their J dx is the solid angle's measure), over the
        # azimuth's 2 pi and r^(D-1).  Cartesian: a member per axis at
        # t = sqrt(w) x (dt = sqrt(w) dx).
        om = 1.3
        h = hyper(om, D, 0, *([0] * (D - 1)))
        c = CartesianState(OscillatorSpec(om, D), (0,) * D)

        def cartesian(x):
            return math.prod(math.sqrt(om) * math.exp(j + l)
                             for j, l in _member_parts(c, math.sqrt(om) * x))

        assert cartesian(np.zeros(D)) == pytest.approx((om / math.pi) ** (D / 2.0), rel=1e-13, abs=0.0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.normal(size=D)
            r = float(np.linalg.norm(x))
            # a uniform angular member's L is the same at every angle
            (j_rad, l_rad), *angles = _member_parts(h, [om * r * r] + [0.0] * (D - 2))
            hyp_val = (math.exp(j_rad + l_rad + sum(l for _, l in angles))
                       * 2 * om * r / (2 * math.pi * r ** (D - 1)))
            assert hyp_val == pytest.approx(cartesian(x), rel=1e-12, abs=0.0)

    def test_rydberg_scale_density_finite(self):
        st_ = hyper(1.0, 3, 1000, 0, 0)
        v = states.log_radial_density(st_, Space.POSITION)(30.0)
        assert math.isfinite(v)


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
