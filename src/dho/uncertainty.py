"""Uncertainty-relation checkers: left side, bound, slack, saturation flag.

All left sides and bounds reuse the same measure engines as the rest of the
package; no checker carries bespoke math.  The saturation tolerance is 1e-9
relative, with the entropic inputs computed tighter than that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import infomeasures, moments, specfun
from .errors import DomainError
from .infomeasures import ENGINE_CLOSED, ENGINE_ORACLE
from .states import CartesianState, HyperState, Space

SATURATION_RTOL = 1e-9


@dataclass(frozen=True)
class RelationReport:
    relation_id: str
    lhs: float
    bound: float
    slack: float
    satisfied: bool
    saturated: bool

    @staticmethod
    def build(relation_id: str, lhs: float, bound: float) -> "RelationReport":
        lhs, bound = float(lhs), float(bound)
        slack = lhs - bound
        tol = SATURATION_RTOL * max(1.0, abs(bound))
        return RelationReport(relation_id, lhs, bound, slack,
                              satisfied=bool(slack >= -tol),
                              saturated=bool(abs(slack) <= tol))


def _heisenberg_general(state: HyperState, **_) -> RelationReport:
    lhs = moments.heisenberg_product(state, 2.0)
    return RelationReport.build("heisenberg_general", lhs, state.spec.dim ** 2 / 4.0)


def _heisenberg_central(state: HyperState, **_) -> RelationReport:
    lhs = moments.heisenberg_product(state, 2.0)
    bound = (state.l + state.spec.dim / 2.0) ** 2
    return RelationReport.build("heisenberg_central", lhs, bound)


def _stam(state: HyperState, **_) -> RelationReport:
    """F[rho] <= 4<p^2>; reported with lhs = 4<p^2> so slack >= 0 means holds.

    The momentum-side inequality F[gamma] <= 4<r^2> has the identical slack
    status by the omega scaling and is verified alongside.
    """
    f_pos = infomeasures.fisher(state, Space.POSITION).value
    f_mom = infomeasures.fisher(state, Space.MOMENTUM).value
    lhs = 4.0 * moments.radial_moment(state, 2.0, Space.MOMENTUM)
    mirror = 4.0 * moments.radial_moment(state, 2.0, Space.POSITION)
    rep = RelationReport.build("stam", lhs, f_pos)
    mirror_rep = RelationReport.build("stam", mirror, f_mom)
    if (rep.satisfied, rep.saturated) != (mirror_rep.satisfied, mirror_rep.saturated):
        raise DomainError("stam sides disagree; scaling violated")
    return rep


def _fisher_product_general(state: HyperState, **_) -> RelationReport:
    lhs = (infomeasures.fisher(state, Space.POSITION).value
           * infomeasures.fisher(state, Space.MOMENTUM).value)
    return RelationReport.build("fisher_product_general", lhs, 4.0 * state.spec.dim ** 2)


def _fisher_product_central(state: HyperState, **_) -> RelationReport:
    D, l, m = state.spec.dim, state.l, abs(state.m)
    lhs = (infomeasures.fisher(state, Space.POSITION).value
           * infomeasures.fisher(state, Space.MOMENTUM).value)
    # m = 0 removes the correction before the D = 2, l = 0 denominator vanishes
    factor = 1.0 if m == 0 else (1.0 - 2.0 * m / (2 * l + D - 2)) ** 2
    bound = 16.0 * (l + D / 2.0) ** 2 * factor
    return RelationReport.build("fisher_product_central", lhs, bound)


def _entropy_sum(state, tol) -> float:
    pos = infomeasures.shannon(state, Space.POSITION, ENGINE_CLOSED, tol=tol)
    mom = infomeasures.shannon(state, Space.MOMENTUM, ENGINE_CLOSED, tol=tol)
    return pos.value + mom.value


def _bbm(state, tol: float = 1e-11, **_) -> RelationReport:
    D = state.spec.dim
    return RelationReport.build("bbm", _entropy_sum(state, tol),
                                D * (1.0 + math.log(math.pi)))


def _rudnicki_central(state: HyperState, tol: float = 1e-11, **_) -> RelationReport:
    """Central-potential Shannon bound assembled from digamma terms plus the
    same angular-entropy engine used for the left side."""
    from scipy.special import gammaln

    D, l = state.spec.dim, state.l
    ey = infomeasures.angular_shannon(state, tol=tol)
    bound = (2.0 * l + D
             + 2.0 * (gammaln(l + D / 2.0) - math.log(2.0))
             - (2 * l + D - 1.0) * specfun.digamma(l + D / 2.0)
             + (D - 1.0) * (specfun.digamma((2 * l + D) / 4.0) + math.log(2.0))
             + 2.0 * ey)
    return RelationReport.build("rudnicki_central", _entropy_sum(state, tol), bound)


def _renyi_conjugate(state, q: float = 2.0, tol: float = 1e-11, **_) -> RelationReport:
    order = infomeasures.RenyiOrder(q)
    q_star = order.conjugate
    if isinstance(state, CartesianState):
        pos = infomeasures.renyi(state, q, Space.POSITION, ENGINE_CLOSED, tol=tol)
        mom = infomeasures.renyi(state, q_star, Space.MOMENTUM, ENGINE_ORACLE, tol=tol)
    else:
        pos = infomeasures.renyi_hyperspherical(state, q, Space.POSITION,
                                                ENGINE_CLOSED, tol=tol)
        mom = infomeasures.renyi_hyperspherical(state, q_star, Space.MOMENTUM,
                                                ENGINE_CLOSED, tol=tol)
    D = state.spec.dim
    bound = D * math.log(math.pi * q ** (1.0 / (2 * q - 2.0))
                         * q_star ** (1.0 / (2 * q_star - 2.0)))
    return RelationReport.build("renyi_conjugate", pos.value + mom.value, bound)


RELATIONS = {
    "heisenberg_general": _heisenberg_general,
    "heisenberg_central": _heisenberg_central,
    "stam": _stam,
    "fisher_product_general": _fisher_product_general,
    "fisher_product_central": _fisher_product_central,
    "bbm": _bbm,
    "rudnicki_central": _rudnicki_central,
    "renyi_conjugate": _renyi_conjugate,
}

HYPER_ONLY = {"heisenberg_general", "heisenberg_central", "stam",
              "fisher_product_general", "fisher_product_central",
              "rudnicki_central"}


def check(relation_id: str, state, **params) -> RelationReport:
    """Evaluate one relation for one state; see RELATIONS for the ids."""
    try:
        fn = RELATIONS[relation_id]
    except KeyError:
        raise DomainError(f"unknown relation {relation_id!r}; "
                          f"known: {sorted(RELATIONS)}") from None
    if relation_id in HYPER_ONLY and not isinstance(state, HyperState):
        raise DomainError(f"{relation_id} needs a hyperspherical state")
    return fn(state, **params)


def check_all(state, q: float = 2.0, tol: float = 1e-11) -> list[RelationReport]:
    """Every relation applicable to the state, in registry order."""
    return [check(rid, state, q=q, tol=tol) for rid in RELATIONS
            if rid not in HYPER_ONLY or isinstance(state, HyperState)]
