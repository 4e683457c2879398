"""Uncertainty-relation reports: field invariants, reference cases, the grid."""

import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dho import uncertainty
from dho.errors import DomainError, UnsupportedError
from dho.states import CartesianState, HyperState, OscillatorSpec

LN_EPI = 1.0 + math.log(math.pi)


def hyper(omega, D, nr, *mu):
    return HyperState(OscillatorSpec(omega, D), nr, tuple(mu))


class TestReportInvariants:
    @given(st.floats(-10, 10, allow_subnormal=False), st.floats(-10, 10, allow_subnormal=False))
    @settings(max_examples=60, deadline=None)
    def test_flags_consistent(self, lhs, bound):
        assume(not 0.0 < abs(lhs - bound) < sys.float_info.min)  # refused below
        rep = uncertainty.RelationReport.build("x", lhs, bound)
        tol = uncertainty.SATURATION_RTOL * max(1.0, abs(bound))
        assert rep.satisfied == (rep.slack >= -tol)
        assert not rep.saturated or rep.satisfied
        assert rep.slack == lhs - bound

    @pytest.mark.parametrize("lhs, bound", [(math.inf, 1.0), (1.0, math.nan),
                                            (-math.inf, 0.0), (1e308, -1e308)])
    def test_non_finite_sides_are_refused(self, lhs, bound):
        with pytest.raises(DomainError, match="not finite"):
            uncertainty.RelationReport.build("x", lhs, bound)

    @pytest.mark.parametrize("lhs, bound, field", [
        (1e-310, 0.0, "lhs"), (0.0, -5e-324, "bound"), (4e-308, 3e-308, "slack")])
    def test_values_below_the_normal_float_range_are_refused(self, lhs, bound, field):
        with pytest.raises(UnsupportedError, match=f"x {field} .* below the normal float range"):
            uncertainty.RelationReport.build("x", lhs, bound)

    def test_an_exact_zero_slack_is_a_value(self):
        rep = uncertainty.RelationReport.build("x", 2.5e-300, 2.5e-300)
        assert rep.slack == 0.0 and rep.saturated

    def test_unknown_relation(self):
        with pytest.raises(DomainError):
            uncertainty.check("nope", hyper(1.0, 3, 0, 0, 0))

    def test_hyper_only_guard(self):
        c = CartesianState(OscillatorSpec(1.0, 2), (0, 0))
        with pytest.raises(DomainError):
            uncertainty.check("stam", c)


class TestReferenceCases:
    def test_heisenberg_central_ground_d4(self):
        rep = uncertainty.check("heisenberg_central", hyper(1.0, 4, 0, 0, 0, 0))
        assert rep.lhs == pytest.approx(4.0, rel=1e-13)
        assert rep.bound == pytest.approx(4.0, rel=1e-13)
        assert rep.saturated

    def test_bbm_cartesian_ground_d3(self):
        rep = uncertainty.check("bbm", CartesianState(OscillatorSpec(1.0, 3), (0, 0, 0)))
        assert rep.lhs == pytest.approx(3 * LN_EPI, rel=1e-12)
        assert rep.saturated

    def test_fisher_product_central_excited(self):
        rep = uncertainty.check("fisher_product_central", hyper(1.0, 3, 1, 1, 1))
        assert rep.lhs == pytest.approx(196.0, rel=1e-12)
        assert rep.bound == pytest.approx(16.0 * 2.5 ** 2 / 9.0, rel=1e-12)
        assert rep.satisfied and not rep.saturated

    def test_stam_saturation_iff_m_zero(self):
        assert uncertainty.check("stam", hyper(1.0, 3, 2, 1, 0)).saturated
        assert not uncertainty.check("stam", hyper(1.0, 3, 0, 1, 1)).saturated

    def test_rudnicki_bound_value_and_satisfaction(self):
        rep = uncertainty.check("rudnicki_central", hyper(1.0, 3, 0, 0, 0), tol=1e-11)
        assert rep.satisfied
        # frozen value assembled by hand from the digamma/Gamma constants
        assert rep.bound == pytest.approx(5.575782311137994, rel=1e-12)
        assert rep.lhs == pytest.approx(3 * LN_EPI, abs=1e-10)

    def test_renyi_conjugate_ground_saturates(self):
        for q in (2.0, 3.0):
            rep = uncertainty.check(
                "renyi_conjugate", CartesianState(OscillatorSpec(1.0, 2), (0, 0)), q=q)
            assert rep.saturated

    def test_renyi_conjugate_hyper_state(self):
        rep = uncertainty.check("renyi_conjugate", hyper(1.0, 3, 1, 1, 0), q=2.0)
        assert rep.satisfied and not rep.saturated


class TestOmegaInvariance:
    @pytest.mark.parametrize("rid", ["heisenberg_general", "heisenberg_central",
                                     "fisher_product_general", "fisher_product_central",
                                     "bbm", "rudnicki_central"])
    def test_reports_identical_across_omega(self, rid):
        reps = [uncertainty.check(rid, hyper(om, 3, 1, 1, 0)) for om in (0.5, 1.0, 2.0)]
        for rep in reps[1:]:
            assert rep.lhs == pytest.approx(reps[0].lhs, rel=1e-11)
            assert rep.bound == pytest.approx(reps[0].bound, rel=1e-11)


class TestGrid:
    def test_all_relations_satisfied_small_grid(self):
        for D in (2, 3):
            for nr in (0, 2):
                for l in (0, 2):
                    for m in (0, l):
                        mu = (m,) if D == 2 else tuple([l] + [m] * (D - 2))
                        if D == 2 and l != m:
                            continue
                        st_ = hyper(1.0, D, nr, *mu)
                        for rep in uncertainty.check_all(st_, q=2.0):
                            assert rep.satisfied, (rep, st_)

    def test_ground_saturation_census(self):
        g = hyper(1.0, 3, 0, 0, 0)
        for rid in ("heisenberg_general", "heisenberg_central", "stam",
                    "fisher_product_general", "fisher_product_central",
                    "bbm", "renyi_conjugate"):
            kwargs = {"q": 2.0} if rid == "renyi_conjugate" else {}
            assert uncertainty.check(rid, g, **kwargs).saturated, rid

    def test_non_ground_saturation_follows_equality_conditions(self):
        # n_r = 0 with l > 0 saturates the central Heisenberg bound but not
        # the general one
        st_ = hyper(1.0, 3, 0, 2, 0)
        assert uncertainty.check("heisenberg_central", st_).saturated
        assert not uncertainty.check("heisenberg_general", st_).saturated
        # l = |m| > 0, n_r = 0 saturates the general Fisher product bound
        st2 = hyper(1.0, 3, 0, 1, 1)
        assert uncertainty.check("fisher_product_general", st2).saturated
        assert not uncertainty.check("fisher_product_central", st2).saturated
