"""Cross-engine validation checks and the known-discrepancy reports.

Each check compares independent routes to the same quantity at a stated
tolerance and reports its worst deviation.  The four documented discrepancies
between the published formulas and the numerics land under the distinct
`paper_discrepancy` status (they never fail a run), and the high-dimension
Shannon scaling question is emitted as a `scaling_report` entry with the
numbers needed to adjudicate it.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import asdict, dataclass, field

from . import asymptotics, infomeasures, moments, oracle, specfun, states, uncertainty
from .infomeasures import ENGINE_ORACLE
from .specfun import PolySpec
from .states import CartesianState, HyperState, OscillatorSpec, Space

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "paper_discrepancy"
SCALING = "scaling_report"


@dataclass
class CheckResult:
    check_id: str
    status: str
    max_deviation: float | None
    tolerance: float | None
    detail: str = ""
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = asdict(self)
        if not d["extra"]:
            d.pop("extra")
        return d


def _result(check_id, dev, tol, detail="", **extra) -> CheckResult:
    status = PASS if dev <= tol else FAIL
    return CheckResult(check_id, status, dev, tol, detail, extra)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# grids


def moment_grid(preset: str):
    if preset == "full":
        nrs, ls, Ds, oms = range(0, 11), range(0, 6), (2, 3, 6, 12), (0.5, 1.0, 2.0)
    else:
        nrs, ls, Ds, oms = (0, 1, 3, 7), (0, 1, 4), (2, 3, 6), (0.5, 1.0)
    for D in Ds:
        for l in ls:
            for nr in nrs:
                for om in oms:
                    mu = tuple([l] + [0] * (D - 2))
                    yield HyperState(OscillatorSpec(om, D), nr, mu)


def state_grid(preset: str):
    """The standard relation/measure grid over (n_r, l, m, D, omega)."""
    if preset == "full":
        nrs, lmax, Ds, oms = range(0, 7), 4, (2, 3, 6), (0.5, 1.0, 2.0)
    else:
        nrs, lmax, Ds, oms = (0, 1, 3), 2, (2, 3), (1.0, 2.0)
    for D in Ds:
        for l in range(0, lmax + 1):
            for m in range(0, l + 1):
                for nr in nrs:
                    for om in oms:
                        if D == 2:
                            mu = (m,)
                            if l != m:
                                continue
                        else:
                            mu = tuple([l] + [m] * (D - 2))
                        yield HyperState(OscillatorSpec(om, D), nr, mu)


# ---------------------------------------------------------------------------
# criterion 1: moments


def check_moments_closed_vs_oracle(preset="quick") -> CheckResult:
    ks = (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 6.0)
    worst = 0.0
    n = 0
    for st in moment_grid(preset):
        for k in ks:
            if not k > -st.spec.dim - 2 * st.l:
                continue
            c = moments.radial_moment(st, k)
            o = moments.oracle_radial_moment(st, k)
            worst = max(worst, _rel(c, o))
            n += 1
    return _result("moments_closed_vs_oracle", worst, 1e-10,
                   f"{n} (state, k) pairs")


DUAL_FORM_RTOL = 1e-12
DUAL_FORM_EPS_FACTOR = 4.0  # measured gaps stay below 0.14 of the bound at factor 1


def _3f2_rounding(st: HyperState, k: float) -> float:
    """Relative rounding bound of the alternating 3F2 sum of moment_3f2_form."""
    terms = specfun.hyp_3F2_unit_terms(*moments._3f2_parameters(st, k))
    cancellation = math.fsum(map(abs, terms)) / max(abs(math.fsum(terms)), 1e-300)
    return DUAL_FORM_EPS_FACTOR * sys.float_info.epsilon * cancellation


def check_moment_dual_forms(preset="quick") -> CheckResult:
    """Served finite sum vs the 3F2 form.  Each relative gap is divided by its
    bound, the larger of DUAL_FORM_RTOL and the 3F2 rounding bound, and
    reported in units of DUAL_FORM_RTOL, so the check passes when every gap
    is inside its own bound."""
    # sparse ladder past the grid; the 3F2 cancellation sum|t_j| / |sum t_j|
    # stays below ~1e8 up to n_r = 32, so the rounding bound is meaningful there
    ladder = (HyperState(OscillatorSpec(1.0, D), nr, tuple([l] + [0] * (D - 2)))
              for nr in (12, 16, 22, 26, 30, 32) for l in (0, 3) for D in (3, 6))
    worst = 0.0
    for st in itertools.chain(moment_grid(preset), ladder):
        for k in (-2.0, -1.5, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0):
            if not k > -st.spec.dim - 2 * st.l:
                continue
            gap = _rel(moments.moment_3f2_form(st, k), moments.radial_moment(st, k))
            bound = max(DUAL_FORM_RTOL, _3f2_rounding(st, k))
            worst = max(worst, gap * DUAL_FORM_RTOL / bound)
    return _result("moment_3f2_vs_finite_sum", worst, DUAL_FORM_RTOL)


def check_moment_recurrence_reflection(preset="quick") -> CheckResult:
    worst = 0.0
    for st in moment_grid(preset):
        for k in (0.0, 2.0, 4.0):
            m_km2 = moments.radial_moment(st, k - 2.0) if k - 2.0 > -st.spec.dim - 2 * st.l else None
            if m_km2 is None:
                continue
            stepped = moments.recurrence_step(st, k, moments.radial_moment(st, k), m_km2)
            worst = max(worst, _rel(stepped, moments.radial_moment(st, k + 2.0)))
        for k in (1.0, 2.0):
            if not (-k - 2.0 > -st.spec.dim - 2 * st.l and st.l + (st.spec.dim - k) / 2.0 - 1.0 > 0):
                continue
            worst = max(worst, _rel(moments.reflection_moment(st, k),
                                    moments.radial_moment(st, -k - 2.0)))
        if st.spec.dim + 2 * st.l > 3:
            worst = max(worst, _rel(moments.reflection_moment_rminus3(st),
                                    moments.radial_moment(st, -3.0)))
    return _result("moment_recurrence_and_reflection", worst, 1e-11)


# ---------------------------------------------------------------------------
# criterion 2: Heisenberg products


def check_heisenberg(preset="quick") -> CheckResult:
    worst = 0.0
    for st in state_grid(preset):
        exact = (2 * st.n_r + st.l + st.spec.dim / 2.0) ** 2
        worst = max(worst, _rel(moments.heisenberg_product(st, 2.0), exact))
    for om in (0.5, 1.0, 2.0):
        st = HyperState(OscillatorSpec(om, 4), 2, (1, 1, 0))
        ref = HyperState(OscillatorSpec(1.0, 4), 2, (1, 1, 0))
        worst = max(worst, _rel(moments.heisenberg_product(st, 2.0),
                                moments.heisenberg_product(ref, 2.0)))
    ground = HyperState(OscillatorSpec(1.0, 4), 0, (0, 0, 0))
    worst = max(worst, _rel(moments.heisenberg_product(ground, 2.0),
                            (ground.spec.dim / 2.0) ** 2))
    return _result("heisenberg_k2_exact", worst, 1e-12)


# ---------------------------------------------------------------------------
# criterion 3: Fisher


def check_fisher(preset="quick") -> CheckResult:
    worst = 0.0
    for st in state_grid(preset):
        pos = infomeasures.fisher(st, Space.POSITION).value
        mom = infomeasures.fisher(st, Space.MOMENTUM).value
        expected = 4.0 * (2 * st.n_r + st.l - abs(st.m) + st.spec.dim / 2.0)
        worst = max(worst, _rel(pos, expected * st.spec.omega))
        worst = max(worst, _rel(mom, expected / st.spec.omega))
        worst = max(worst, _rel(pos * mom, expected * expected))
        for space, value in ((Space.POSITION, pos), (Space.MOMENTUM, mom)):
            via_moments = infomeasures._fisher_from_moments(st, space, oracle_engine=False)
            worst = max(worst, _rel(value, via_moments))
    for om, D in ((0.5, 2), (1.0, 3), (2.0, 6)):
        g = HyperState(OscillatorSpec(om, D), 0, tuple([0] * (D - 1)))
        worst = max(worst, _rel(infomeasures.fisher(g, Space.POSITION).value, 2 * D * om))
        worst = max(worst, _rel(infomeasures.fisher(g, Space.MOMENTUM).value, 2 * D / om))
    return _result("fisher_closed_and_moment_form", worst, 1e-12)


# ---------------------------------------------------------------------------
# criterion 4: Shannon


def check_shannon_reference_values() -> CheckResult:
    c0 = CartesianState(OscillatorSpec(1.0, 1), (0,))
    c1 = CartesianState(OscillatorSpec(1.0, 1), (1,))
    s0 = infomeasures.shannon_cartesian(c0).value
    dev0 = abs(s0 - 0.5 * (1.0 + math.log(math.pi)))
    s1c = infomeasures.shannon_cartesian(c1).value
    s1o = infomeasures.shannon_cartesian(c1, engine=ENGINE_ORACLE, tol=1e-11).value
    dev1 = abs(s1c - s1o)
    # dev0 carries tol 1e-9, dev1 carries 1e-8; report in units of its own tol
    dev = max(dev0 / 1e-9, dev1 / 1e-8) * 1e-9
    return _result("shannon_1d_reference", dev, 1e-9, f"S0={s0!r} S1={s1c!r}")


def check_shannon_cartesian_vs_oracle(preset="quick") -> CheckResult:
    from itertools import product as iproduct

    if preset == "full":
        tuples = ([(i,) for i in range(7)]
                  + [t for t in iproduct(range(7), repeat=2)]
                  + [t for t in iproduct(range(7), repeat=3)])
    else:
        tuples = ([(i,) for i in range(5)]
                  + [(2, 1), (4, 0), (2, 1, 0), (3, 3, 3)])
    worst = 0.0
    for n in tuples:
        st = CartesianState(OscillatorSpec(1.0, len(n)), tuple(n))
        for space in (Space.POSITION, Space.MOMENTUM):
            c = infomeasures.shannon_cartesian(st, space).value
            o = infomeasures.shannon_cartesian(st, space, ENGINE_ORACLE, tol=1e-10).value
            worst = max(worst, abs(c - o))
    return _result("shannon_cartesian_vs_oracle", worst, 1e-7)


def check_shannon_bbm_and_cross_engine(preset="quick") -> CheckResult:
    worst = 0.0
    for om in (0.5, 1.0, 2.0):
        for D in (2, 3, 6):
            cart = CartesianState(OscillatorSpec(om, D), tuple([0] * D))
            sum_ = (infomeasures.shannon_cartesian(cart, Space.POSITION).value
                    + infomeasures.shannon_cartesian(cart, Space.MOMENTUM).value)
            worst = max(worst, abs(sum_ - D * (1.0 + math.log(math.pi))))
            hyp = HyperState(OscillatorSpec(om, D), 0, tuple([0] * (D - 1)))
            for space in (Space.POSITION, Space.MOMENTUM):
                h = infomeasures.shannon_hyperspherical(hyp, space, tol=1e-12).value
                c = infomeasures.shannon_cartesian(cart, space).value
                worst = max(worst, abs(h - c))
    return _result("shannon_bbm_saturation_and_cross_engine", worst, 1e-9)


def check_swave_angular_entropy() -> CheckResult:
    worst = 0.0
    for D in (2, 3, 4, 6, 9):
        hyp = HyperState(OscillatorSpec(1.0, D), 0, tuple([0] * (D - 1)))
        closed = infomeasures.angular_shannon_swave(D)
        assembled = infomeasures.angular_shannon(hyp)
        direct = infomeasures.angular_shannon_direct(hyp, tol=1e-12)
        worst = max(worst, abs(assembled - closed), abs(direct - closed))
    d2 = abs(infomeasures.angular_shannon_swave(2) - math.log(2 * math.pi))
    d3 = abs(infomeasures.angular_shannon_swave(3) - math.log(4 * math.pi))
    return _result("swave_angular_entropy", max(worst, d2, d3), 1e-10)


# ---------------------------------------------------------------------------
# criterion 5: Renyi and disequilibrium


def check_renyi_cartesian_vs_oracle(preset="quick") -> CheckResult:
    """The paper's Lauricella form vs the served Gauss-Hermite value."""
    ns = range(0, 6) if preset == "full" else (0, 1, 2, 4, 5)
    grid = [CartesianState(OscillatorSpec(1.0, 1), (n,)) for n in ns]
    grid.append(CartesianState(OscillatorSpec(1.5, 3),
                               (3, 2, 1) if preset == "full" else (2, 1, 0)))
    worst = max(abs(infomeasures.renyi_cartesian_lauricella(st, q)
                    - infomeasures.renyi_cartesian(st, q).value)
                for q in (2, 3) for st in grid)
    return _result("renyi_cartesian_vs_oracle", worst, 1e-8)


def check_renyi_ground_values() -> CheckResult:
    worst = 0.0
    for q in (2, 3, 5):
        for om in (0.5, 1.0, 2.0):
            for D in (1, 3, 6):
                st = CartesianState(OscillatorSpec(om, D), tuple([0] * D))
                val = infomeasures.renyi_cartesian(st, q).value
                target = (D / 2.0) * math.log(math.pi * q ** (1.0 / (q - 1.0)) / om)
                worst = max(worst, abs(val - target))
    return _result("renyi_ground_closed_form", worst, 1e-10)


def _diseq_grid(preset):
    if preset == "full":
        nrs, lmax, Ds = range(0, 7), 4, (2, 3, 5)
    else:
        nrs, lmax, Ds = (0, 2, 4), 2, (2, 3, 5)
    for D in Ds:
        for l in range(0, lmax + 1):
            for nr in nrs:
                if D == 2:
                    mu = (l,)
                else:
                    mu = tuple([l] + [0] * (D - 2))
                yield HyperState(OscillatorSpec(1.0, D), nr, mu)


def check_disequilibrium(preset="quick") -> CheckResult:
    worst = 0.0
    for st in _diseq_grid(preset):
        radial = infomeasures.disequilibrium_radial(st)
        norm = oracle.weighted_Lq_norm(st.n_r, st.l, st.spec.dim, 2.0)
        quadrature = 2.0 * st.spec.omega ** (st.spec.dim / 2.0) * norm
        product = radial * infomeasures.disequilibrium_angular(st)
        worst = max(worst, _rel(radial, quadrature),
                    _rel(product, infomeasures.disequilibrium(st).value))
    return _result("disequilibrium_closed_vs_oracle", worst, 1e-9,
                   "radial sum vs quadrature; radial x Dougall angular sums vs served exp(-R2)")


def check_disequilibrium_d3_routes(preset="quick") -> CheckResult:
    worst = 0.0
    for l in range(0, 4):
        for m in range(-l, l + 1):
            st = HyperState(OscillatorSpec(1.0, 3), 1, (l, m))
            doug = infomeasures.disequilibrium_angular(st)
            tj = infomeasures.disequilibrium_angular_3j(l, m)
            lam2 = infomeasures.angular_entropic_moment(st, 2.0)
            worst = max(worst, _rel(doug, tj), _rel(doug, lam2))
    return _result("disequilibrium_d3_3j_vs_dougall_vs_oracle", worst, 1e-9)


def check_renyi_conjugate(preset="quick") -> CheckResult:
    worst_violation = 0.0
    for q in (2.0, 3.0):
        for D in (1, 2, 3):
            for n in ([(0,) * D, (1,) + (0,) * (D - 1), (2,) + (0,) * (D - 1)]):
                st = CartesianState(OscillatorSpec(1.0, D), n)
                rep = uncertainty.check("renyi_conjugate", st, q=q, tol=1e-11)
                if rep.slack < 0:
                    worst_violation = max(worst_violation, -rep.slack)
                if sum(n) == 0 and not rep.saturated:
                    worst_violation = max(worst_violation, abs(rep.slack))
    return _result("renyi_conjugate_bound_and_ground_saturation", worst_violation, 1e-8)


# ---------------------------------------------------------------------------
# criterion 6: Hermite entropy


def check_hermite_entropy() -> CheckResult:
    target = math.sqrt(math.pi) * (4.0 - 2.0 * specfun.EULER_GAMMA)
    dev1 = _rel(infomeasures.hermite_entropy(1), target)
    worst = dev1
    for n in range(0, 9):
        closed = infomeasures.hermite_entropy(n)
        orc = infomeasures.hermite_entropy_oracle(n, tol=1e-12).value
        worst = max(worst, _rel(closed, orc) if n else abs(closed - orc))
    return _result("hermite_entropy_closed_vs_oracle", worst, 1e-8,
                   f"E(H_1) rel dev {dev1:.2e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# criterion 7: Rydberg asymptotics


def check_rydberg_moments(preset="quick") -> CheckResult:
    ladder = (100, 1000, 10000)
    worst_final = 0.0
    monotone = True
    for k in (1.0, 2.0, 4.0):
        resids = []
        for nr in ladder:
            st = HyperState(OscillatorSpec(1.0, 3), nr, (0, 0))
            exact = moments.radial_moment(st, k)
            approx = asymptotics.rydberg_moment(k, nr).value
            resids.append(abs(exact - approx) / abs(exact))
        monotone = monotone and all(a > b for a, b in zip(resids, resids[1:]))
        worst_final = max(worst_final, resids[-1])
    dev = worst_final if monotone else 1.0
    return _result("rydberg_moment_residuals", dev, 0.01,
                   f"monotone={monotone}, residual@1e4={worst_final:.2e}")


def check_laguerre_entropy_asymptotics(preset="quick") -> CheckResult:
    resids = []
    for n in (50, 200):
        num = oracle.polynomial_entropy(PolySpec("laguerre", n, 1.0), tol=1e-9)
        asy = asymptotics.laguerre_entropy_asymptotics(n, 1.0)
        resids.append(abs(num - asy))
    ok = resids[1] < resids[0]
    return _result("laguerre_entropy_asymptotic_residual",
                   0.0 if ok else resids[1] - resids[0], 0.0,
                   f"residuals {resids[0]:.4f} -> {resids[1]:.4f}")


def check_rydberg_norm_ratio(preset="quick") -> CheckResult:
    nr, l, D, q = 800, 0, 3, 2.0
    exact = oracle.weighted_Lq_norm(nr, l, D, q)
    approx, regime = asymptotics.rydberg_norm_asymptotic(nr, l, D, q)
    dev = abs(exact / approx - 1.0)
    return _result("rydberg_renyi_norm_ratio", dev, 0.10,
                   f"{regime}; ratio={exact / approx:.6f}")


# ---------------------------------------------------------------------------
# criterion 8: high-D asymptotics


def check_highdim_moments(preset="quick") -> CheckResult:
    worst = 0.0
    for D in (10, 100, 1000, 1600):
        for om in (0.5, 1.0, 2.0):
            st = HyperState(OscillatorSpec(om, D), 0, tuple([0] * (D - 1)))
            exact = moments.radial_moment(st, 2.0)
            lead = asymptotics.highdim_moment(2.0, D, om, form="leading").value
            worst = max(worst, _rel(exact, lead), _rel(exact, D / (2 * om)))
    return _result("highdim_ground_r2_exact", worst, 1e-12)


def check_highdim_renyi_remainder(preset="quick") -> CheckResult:
    qs = (2.0, 3.0)
    ok = True
    detail = []
    for q in qs:
        rems = []
        for D in (10, 100, 1000):
            cart = CartesianState(OscillatorSpec(1.0, D), tuple([0] * D))
            exact = infomeasures.renyi_cartesian(cart, int(q)).value
            hyp = HyperState(OscillatorSpec(1.0, D), 0, tuple([0] * (D - 1)))
            asy = asymptotics.highdim_renyi(hyp, q).value
            rems.append(abs(exact - asy) / D)
        ok = ok and all(a > b for a, b in zip(rems, rems[1:]))
        detail.append(f"q={q}: remainder/D {['%.2e' % r for r in rems]}")
    return _result("highdim_renyi_leading_vs_exact", 0.0 if ok else 1.0, 0.5,
                   "; ".join(detail))


def shannon_scaling_report() -> CheckResult:
    """Numbers for the high-D Shannon scaling question (not pass/fail)."""
    rows = []
    for D in (16, 32, 64, 128):
        hyp = HyperState(OscillatorSpec(1.0, D), 0, tuple([0] * (D - 1)))
        exact = infomeasures.shannon_hyperspherical(hyp, tol=1e-10).value
        lead = asymptotics.highdim_shannon(hyp, mode="leading").value
        pub = asymptotics.highdim_shannon(hyp, mode="as_published").value
        rows.append({"D": D, "exact": exact, "leading_mode": lead,
                     "published_mode": pub,
                     "exact_over_DlnD": exact / (0.5 * D * math.log(D)),
                     "exact_over_Dlnepi": exact / (D / 2.0 * (1 + math.log(math.pi)))})
    supported = ("leading" if abs(rows[-1]["exact_over_Dlnepi"] - 1.0)
                 < abs(rows[-1]["exact_over_DlnD"] - 1.0) else "published")
    return CheckResult(
        "highdim_shannon_scaling_report", SCALING, None, None,
        f"ground-state totals support the '{supported}' mode: the uniform "
        "angular entropy cancels the radial D-log-D growth",
        {"rows": rows})


# ---------------------------------------------------------------------------
# criterion 9: uncertainty suite


def check_uncertainty_relations(preset="quick") -> CheckResult:
    worst_violation = 0.0
    count = 0
    for st in state_grid(preset):
        for rep in uncertainty.check_all(st, q=2.0, tol=1e-11):
            count += 1
            if not rep.satisfied:
                worst_violation = max(worst_violation, -rep.slack)
    return _result("uncertainty_all_relations", worst_violation, 0.0,
                   f"{count} relation evaluations")


def check_saturation_census(preset="quick") -> CheckResult:
    """Ground state saturates every relation the published discussion claims;
    non-ground saturations follow the closed-form equality conditions."""
    bad = []
    for D, om in ((2, 1.0), (3, 1.0), (3, 2.0), (6, 0.5)):
        g = HyperState(OscillatorSpec(om, D), 0, tuple([0] * (D - 1)))
        for rid in ("heisenberg_general", "heisenberg_central", "stam",
                    "fisher_product_general", "fisher_product_central",
                    "bbm", "renyi_conjugate"):
            rep = uncertainty.check(rid, g, q=2.0)
            if not rep.saturated:
                bad.append(f"{rid}@D={D}")
    # equality conditions of the closed forms
    conditions = {
        "heisenberg_general": lambda s: s.n_r == 0 and s.l == 0,
        "heisenberg_central": lambda s: s.n_r == 0,
        "stam": lambda s: s.m == 0,
        "fisher_product_general": lambda s: s.n_r == 0 and s.l == abs(s.m),
        "fisher_product_central": lambda s: s.n_r == 0 and s.m == 0,
    }
    for st in state_grid("quick"):
        for rid, cond in conditions.items():
            rep = uncertainty.check(rid, st)
            if rep.saturated != cond(st):
                bad.append(f"{rid}@{states.state_to_dict(st)}")
    return _result("saturation_census", float(len(bad)), 0.0, "; ".join(bad[:5]))


# ---------------------------------------------------------------------------
# known discrepancies between the published text and the numerics


def discrepancy_reports() -> list[CheckResult]:
    out = []
    # 1: Cartesian Gaussian width exponent
    om = 2.0
    hyp = HyperState(OscillatorSpec(om, 3), 0, (0, 0))
    cart = CartesianState(OscillatorSpec(om, 3), (0, 0, 0))
    r = 0.7
    rho_h = (states.radial_density(hyp, Space.POSITION, r)
             / (4 * math.pi))  # uniform angular factor |Y|^2 = 1/(4 pi)
    rho_c = states.cartesian_density(cart, Space.POSITION, (r, 0.0, 0.0))
    dev_adopted = _rel(rho_h, rho_c)
    width_alt = om ** 0.25
    rho_alt = (width_alt / math.pi) ** 1.5 * math.exp(-width_alt * r * r)
    out.append(CheckResult(
        "cartesian_width_exponent", DISCREPANCY, _rel(rho_h, rho_alt), 1e-12,
        "published text states the Gaussian width parameter as omega^(1/4); "
        f"consistency with the radial form requires omega (adopted; dev "
        f"{dev_adopted:.1e}), while omega^(1/4) deviates by the stated amount"))
    # 2: Hermite entropy integration domain
    closed = infomeasures.hermite_entropy(1)
    full = infomeasures.hermite_entropy_oracle(1, tol=1e-12).value
    half = full / 2.0  # even integrand
    out.append(CheckResult(
        "hermite_entropy_domain", DISCREPANCY, _rel(closed, half), 1e-12,
        "the closed form equals the full-line integral (rel dev "
        f"{_rel(closed, full):.1e}); the half-line domain printed in its "
        "definition is off by the factor two shown as the deviation"))
    # 3: ground-state radial disequilibrium constant
    D = 5
    st = HyperState(OscillatorSpec(1.0, D), 0, tuple([0] * (D - 1)))
    general = infomeasures.disequilibrium_radial(st)
    quadrature = 2.0 * oracle.weighted_Lq_norm(0, 0, D, 2.0)
    published = 2.0 ** (1.0 - D / 2.0)
    out.append(CheckResult(
        "disequilibrium_ground_radial_constant", DISCREPANCY,
        _rel(general, published), 1e-12,
        "the published ground-state radial constant omits the 1/Gamma(D/2) "
        f"present in the general sum; quadrature sides with the general sum "
        f"(rel dev {_rel(general, quadrature):.1e} at D={D})"))
    # 4: S-wave angular disequilibrium
    computed = infomeasures.disequilibrium_angular_3j(0, 0)
    out.append(CheckResult(
        "disequilibrium_swave_angular", DISCREPANCY,
        abs(computed - 0.0), 1e-12,
        "published text asserts the S-wave angular disequilibrium vanishes; "
        f"every route here gives 1/(4 pi) = {computed!r}"))
    return out


# ---------------------------------------------------------------------------
# registry


CHECKS = {
    "moments_closed_vs_oracle": check_moments_closed_vs_oracle,
    "moment_3f2_vs_finite_sum": check_moment_dual_forms,
    "moment_recurrence_and_reflection": check_moment_recurrence_reflection,
    "heisenberg_k2_exact": check_heisenberg,
    "fisher_closed_and_moment_form": check_fisher,
    "shannon_1d_reference": lambda preset="quick": check_shannon_reference_values(),
    "shannon_cartesian_vs_oracle": check_shannon_cartesian_vs_oracle,
    "shannon_bbm_saturation_and_cross_engine":
        lambda preset="quick": check_shannon_bbm_and_cross_engine(preset),
    "swave_angular_entropy": lambda preset="quick": check_swave_angular_entropy(),
    "renyi_cartesian_vs_oracle": check_renyi_cartesian_vs_oracle,
    "renyi_ground_closed_form": lambda preset="quick": check_renyi_ground_values(),
    "disequilibrium_closed_vs_oracle": check_disequilibrium,
    "disequilibrium_d3_3j_vs_dougall_vs_oracle": check_disequilibrium_d3_routes,
    "renyi_conjugate_bound_and_ground_saturation": check_renyi_conjugate,
    "hermite_entropy_closed_vs_oracle": lambda preset="quick": check_hermite_entropy(),
    "highdim_ground_r2_exact": check_highdim_moments,
    "uncertainty_all_relations": check_uncertainty_relations,
    "saturation_census": check_saturation_census,
}

SLOW_CHECKS = {
    "rydberg_moment_residuals": check_rydberg_moments,
    "laguerre_entropy_asymptotic_residual": check_laguerre_entropy_asymptotics,
    "rydberg_renyi_norm_ratio": check_rydberg_norm_ratio,
    "highdim_renyi_leading_vs_exact": check_highdim_renyi_remainder,
}


def run_validation(preset: str = "quick") -> list[CheckResult]:
    """Run the registry; the full preset adds the Rydberg/high-D ladders."""
    if preset not in ("quick", "full"):
        raise ValueError("preset must be 'quick' or 'full'")
    results = [fn(preset) for fn in CHECKS.values()]
    if preset == "full":
        results += [fn(preset) for fn in SLOW_CHECKS.values()]
    results += discrepancy_reports()
    results.append(shannon_scaling_report())
    return results
