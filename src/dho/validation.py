"""Cross-engine validation checks and the known-discrepancy reports.

Each check compares independent routes to the same quantity at a stated
tolerance and reports its worst deviation; most are rows of one identity
table (`CHECKS`), the rest hand-written ladders, and `_verdict` alone turns
deviations into a status.  The four documented discrepancies between the
published formulas and the numerics land under the distinct
`paper_discrepancy` status (they never fail a run), and the high-dimension
Shannon scaling question is emitted as a `scaling_report` entry with the
numbers needed to adjudicate it.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections.abc import Callable, Iterable
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
        if (dev := self.max_deviation) is not None and not math.isfinite(dev):
            # strict JSON has no NaN or Infinity: print null and name the value
            d["max_deviation"] = None
            d["detail"] = "; ".join(filter(None, (f"non-finite deviation {dev!r}",
                                                  self.detail)))
        return d


def _worst(deviations: Iterable[float]) -> float:
    """The largest deviation (0 for none); NaN if any is NaN, which max() drops."""
    devs = [0.0, *deviations]
    return math.nan if any(map(math.isnan, devs)) else max(devs)


def _verdict(check_id: str, deviations: Iterable[float], tolerance: float,
             detail: str = "") -> CheckResult:
    """The one pass rule: the worst deviation is finite and within tolerance."""
    worst = _worst(deviations)
    status = PASS if math.isfinite(worst) and worst <= tolerance else FAIL
    return CheckResult(check_id, status, worst, tolerance, detail)


@dataclass(frozen=True)
class Identity:
    """One row of the identity table, callable as check(preset): points(preset)
    yields the grid points, pairs(*point) the tuples of values that must agree
    there (served value first), and deviation(*pair) measures one tuple.
    detail may name the number of pairs as {n}."""

    check_id: str
    points: Callable[[str], Iterable[tuple]]
    pairs: Callable[..., Iterable[tuple]]
    deviation: Callable[..., float]
    tolerance: float
    detail: str = ""

    def __call__(self, preset: str = "quick") -> CheckResult:
        devs = [self.deviation(*pair) for point in self.points(preset)
                for pair in self.pairs(*point)]
        return _verdict(self.check_id, devs, self.tolerance, self.detail.format(n=len(devs)))


def _check(check_id: str, tolerance: float):
    """A check that does not fit the table: fn(preset) returns (deviations,
    detail), and the check judges them by `_verdict`."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(preset: str = "quick") -> CheckResult:
            deviations, detail = fn(preset)
            return _verdict(check_id, deviations, tolerance, detail)

        run.check_id = check_id
        return run

    return wrap


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _abs(a: float, b: float) -> float:
    return abs(a - b)


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
                    yield HyperState(OscillatorSpec(om, D), nr, tuple([l] + [0] * (D - 2)))


def state_grid(preset: str):
    """The standard relation/measure grid over (n_r, l, m, D, omega)."""
    if preset == "full":
        nrs, lmax, Ds, oms = range(0, 7), 4, (2, 3, 6), (0.5, 1.0, 2.0)
    else:
        nrs, lmax, Ds, oms = (0, 1, 3), 2, (2, 3), (1.0, 2.0)
    for D in Ds:
        for l in range(0, lmax + 1):
            for m in range(0, l + 1):
                if D == 2 and l != m:
                    continue
                for nr in nrs:
                    for om in oms:
                        yield HyperState(OscillatorSpec(om, D), nr, tuple([l] + [m] * (D - 2)))


def _diseq_grid(preset):
    if preset == "full":
        nrs, lmax, Ds = range(0, 7), 4, (2, 3, 5)
    else:
        nrs, lmax, Ds = (0, 2, 4), 2, (2, 3, 5)
    for D in Ds:
        for l in range(0, lmax + 1):
            for nr in nrs:
                yield HyperState(OscillatorSpec(1.0, D), nr, tuple([l] + [0] * (D - 2)))


def _each(grid, *extra):
    """Points of a state grid and then of the extra states, one state each."""
    return lambda preset: ((st,) for st in itertools.chain(grid(preset), extra))


def _ground(omega: float, D: int) -> HyperState:
    return HyperState(OscillatorSpec(omega, D), 0, tuple([0] * (D - 1)))


def _moment_exists(st: HyperState, k: float) -> bool:
    return k > -st.spec.dim - 2 * st.l


# ---------------------------------------------------------------------------
# criterion 1: moments


MOMENT_KS = (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 6.0)


def _moment_points(states, ks):
    """(state, k) for every k at which the state's moment exists."""
    return ((st, k) for st in states for k in ks if _moment_exists(st, k))


DUAL_FORM_RTOL = 1e-12
DUAL_FORM_EPS_FACTOR = 4.0  # measured gaps stay below 0.14 of the bound at factor 1


def _3f2_rounding(st: HyperState, k: float) -> float:
    """Relative rounding bound of the alternating 3F2 sum of moment_3f2_form."""
    terms = specfun.hyp_unit_terms(*moments._3f2_parameters(st, k))
    cancellation = math.fsum(map(abs, terms)) / max(abs(math.fsum(terms)), 1e-300)
    return DUAL_FORM_EPS_FACTOR * sys.float_info.epsilon * cancellation


def _dual_form_points(preset):
    # sparse ladder past the grid; the 3F2 cancellation sum|t_j| / |sum t_j|
    # stays below ~1e8 up to n_r = 32, so the rounding bound is meaningful there
    ladder = (HyperState(OscillatorSpec(1.0, D), nr, tuple([l] + [0] * (D - 2)))
              for nr in (12, 16, 22, 26, 30, 32) for l in (0, 3) for D in (3, 6))
    return _moment_points(itertools.chain(moment_grid(preset), ladder),
                          (-2.0, -1.5, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0))


def _dual_form_pairs(st, k):
    """The 3F2 form, the served finite sum and the bound on their gap."""
    yield (moments.moment_3f2_form(st, k), moments.radial_moment(st, k),
           max(DUAL_FORM_RTOL, _3f2_rounding(st, k)))


def _rel_in_rounding_units(a: float, b: float, bound: float) -> float:
    """The relative gap over its bound, in units of the tolerance DUAL_FORM_RTOL."""
    return _rel(a, b) * DUAL_FORM_RTOL / bound


def _recurrence_reflection_pairs(st):
    D = st.spec.dim
    for k in (0.0, 2.0, 4.0):
        if _moment_exists(st, k - 2.0):
            stepped = moments.recurrence_step(st, k, moments.radial_moment(st, k),
                                              moments.radial_moment(st, k - 2.0))
            yield stepped, moments.radial_moment(st, k + 2.0)
    for k in (1.0, 2.0):
        if _moment_exists(st, -k - 2.0) and st.l + (D - k) / 2.0 - 1.0 > 0:
            yield moments.reflection_moment(st, k), moments.radial_moment(st, -k - 2.0)
    if D + 2 * st.l > 3:
        yield moments.reflection_moment_rminus3(st), moments.radial_moment(st, -3.0)


# ---------------------------------------------------------------------------
# criteria 2 and 3: Heisenberg products (in the table) and Fisher


def _fisher_pairs(st):
    om = st.spec.omega
    pos = infomeasures.fisher(st, Space.POSITION).value
    mom = infomeasures.fisher(st, Space.MOMENTUM).value
    expected = 4.0 * (2 * st.n_r + st.l - abs(st.m) + st.spec.dim / 2.0)
    yield pos, expected * om
    yield mom, expected / om
    yield pos * mom, expected * expected
    for space, value in ((Space.POSITION, pos), (Space.MOMENTUM, mom)):
        yield value, infomeasures._fisher_from_moments(st, space, oracle_engine=False)


# ---------------------------------------------------------------------------
# criterion 4: Shannon


@_check("shannon_1d_reference", 1e-9)
def check_shannon_reference_values(preset="quick"):
    c0 = CartesianState(OscillatorSpec(1.0, 1), (0,))
    c1 = CartesianState(OscillatorSpec(1.0, 1), (1,))
    s0 = infomeasures.shannon_cartesian(c0).value
    dev0 = abs(s0 - 0.5 * (1.0 + math.log(math.pi)))
    s1c = infomeasures.shannon_cartesian(c1).value
    s1o = infomeasures.shannon_cartesian(c1, engine=ENGINE_ORACLE, tol=1e-11).value
    dev1 = abs(s1c - s1o)
    # dev0 carries tol 1e-9, dev1 carries 1e-8; report in units of its own tol
    return [_worst((dev0 / 1e-9, dev1 / 1e-8)) * 1e-9], f"S0={s0!r} S1={s1c!r}"


def _shannon_cartesian_points(preset):
    if preset == "full":
        tuples = ([(i,) for i in range(7)]
                  + list(itertools.product(range(7), repeat=2))
                  + list(itertools.product(range(7), repeat=3)))
    else:
        tuples = ([(i,) for i in range(5)]
                  + [(2, 1), (4, 0), (2, 1, 0), (3, 3, 3)])
    return [(CartesianState(OscillatorSpec(1.0, len(n)), n),) for n in tuples]


def _shannon_cartesian_pairs(st):
    for space in (Space.POSITION, Space.MOMENTUM):
        yield (infomeasures.shannon_cartesian(st, space).value,
               infomeasures.shannon_cartesian(st, space, ENGINE_ORACLE, tol=1e-10).value)


def _bbm_pairs(om, D):
    """Ground-state entropy sum at the BBM bound; hyperspherical vs Cartesian."""
    cart = CartesianState(OscillatorSpec(om, D), tuple([0] * D))
    yield (infomeasures.shannon_cartesian(cart, Space.POSITION).value
           + infomeasures.shannon_cartesian(cart, Space.MOMENTUM).value,
           D * (1.0 + math.log(math.pi)))
    hyp = _ground(om, D)
    for space in (Space.POSITION, Space.MOMENTUM):
        yield (infomeasures.shannon_hyperspherical(hyp, space, tol=1e-12).value,
               infomeasures.shannon_cartesian(cart, space).value)


def _swave_pairs(D):
    hyp = _ground(1.0, D)
    closed = infomeasures.angular_shannon_swave(D)
    yield infomeasures.angular_shannon(hyp), closed
    yield infomeasures.angular_shannon_direct(hyp, tol=1e-12), closed
    if D in (2, 3):  # the circle and the sphere
        yield closed, math.log({2: 2 * math.pi, 3: 4 * math.pi}[D])


# ---------------------------------------------------------------------------
# criterion 5: Renyi and disequilibrium


def _renyi_cartesian_points(preset):
    """States and orders at which the served Gauss-Hermite value meets the
    paper's Lauricella form and the oracle engine."""
    ns = range(0, 6) if preset == "full" else (0, 1, 2, 4, 5)
    grid = [CartesianState(OscillatorSpec(1.0, 1), (n,)) for n in ns]
    grid.append(CartesianState(OscillatorSpec(1.5, 3),
                               (3, 2, 1) if preset == "full" else (2, 1, 0)))
    return itertools.product(grid, (2, 3))


def _renyi_cartesian_pairs(st, q):
    served = infomeasures.renyi_cartesian(st, q).value
    yield infomeasures.renyi_cartesian_lauricella(st, q), served
    yield infomeasures.renyi_cartesian(st, q, engine=ENGINE_ORACLE).value, served


def _renyi_ground_pairs(q, om, D):
    st = CartesianState(OscillatorSpec(om, D), tuple([0] * D))
    yield (infomeasures.renyi_cartesian(st, q).value,
           (D / 2.0) * math.log(math.pi * q ** (1.0 / (q - 1.0)) / om))


def _disequilibrium_pairs(st):
    """Radial sum vs quadrature; radial x Dougall angular sums vs served exp(-R2)."""
    radial = infomeasures.disequilibrium_radial(st)
    norm = oracle.weighted_Lq_norm(st.n_r, st.l, st.spec.dim, 2.0)
    yield radial, 2.0 * st.spec.omega ** (st.spec.dim / 2.0) * norm
    yield (radial * infomeasures.disequilibrium_angular(st),
           infomeasures.disequilibrium(st).value)


def _d3_angular_pairs(st):
    doug = infomeasures.disequilibrium_angular(st)
    yield doug, infomeasures.disequilibrium_angular_3j(st.l, st.m)
    yield doug, infomeasures.angular_entropic_moment(st, 2.0)


def _conjugate_pairs(q, D, n1):
    """A violated bound, and a ground state off saturation, as distances from zero slack."""
    st = CartesianState(OscillatorSpec(1.0, D), (n1,) + (0,) * (D - 1))
    rep = uncertainty.check("renyi_conjugate", st, q=q, tol=1e-11)
    yield min(rep.slack, 0.0), 0.0
    if n1 == 0 and not rep.saturated:
        yield rep.slack, 0.0


# ---------------------------------------------------------------------------
# criterion 6: Hermite entropy


@_check("hermite_entropy_closed_vs_oracle", 1e-8)
def check_hermite_entropy(preset="quick"):
    target = math.sqrt(math.pi) * (4.0 - 2.0 * specfun.EULER_GAMMA)
    dev1 = _rel(infomeasures.hermite_entropy(1), target)
    devs = [dev1]
    for n in range(0, 9):
        closed = infomeasures.hermite_entropy(n)
        orc = infomeasures.hermite_entropy_oracle(n, tol=1e-12).value
        devs.append(_rel(closed, orc) if n else abs(closed - orc))
    return devs, f"E(H_1) rel dev {dev1:.2e} (tol 1e-9)"


# ---------------------------------------------------------------------------
# criterion 7: Rydberg asymptotics


@_check("rydberg_moment_residuals", 0.01)
def check_rydberg_moments(preset="quick"):
    ladder = (100, 1000, 10000)
    finals = []
    monotone = True
    for k in (1.0, 2.0, 4.0):
        resids = []
        for nr in ladder:
            st = HyperState(OscillatorSpec(1.0, 3), nr, (0, 0))
            exact = moments.radial_moment(st, k)
            approx = asymptotics.rydberg_moment(k, nr).value
            resids.append(abs(exact - approx) / abs(exact))
        monotone = monotone and all(a > b for a, b in zip(resids, resids[1:]))
        finals.append(resids[-1])
    worst_final = _worst(finals)
    return ([worst_final if monotone else 1.0],
            f"monotone={monotone}, residual@1e4={worst_final:.2e}")


@_check("laguerre_entropy_asymptotic_residual", 0.0)
def check_laguerre_entropy_asymptotics(preset="quick"):
    resids = []
    for n in (50, 200):
        num = oracle.polynomial_entropy(PolySpec("laguerre", n, 1.0), tol=1e-9)
        asy = asymptotics.laguerre_entropy_asymptotics(n, 1.0)
        resids.append(abs(num - asy))
    ok = resids[1] < resids[0]
    return ([0.0 if ok else resids[1] - resids[0]],
            f"residuals {resids[0]:.4f} -> {resids[1]:.4f}")


@_check("rydberg_renyi_norm_ratio", 0.10)
def check_rydberg_norm_ratio(preset="quick"):
    nr, l, D, q = 800, 0, 3, 2.0
    exact = oracle.weighted_Lq_norm(nr, l, D, q)
    approx, regime = asymptotics.rydberg_norm_asymptotic(nr, l, D, q)
    return [abs(exact / approx - 1.0)], f"{regime}; ratio={exact / approx:.6f}"


# ---------------------------------------------------------------------------
# criterion 8: high-D asymptotics


def _highdim_r2_pairs(D, om):
    exact = moments.radial_moment(_ground(om, D), 2.0)
    yield exact, D / (2 * om)


@_check("highdim_renyi_leading_vs_exact", 0.5)
def check_highdim_renyi_remainder(preset="quick"):
    ok = True
    detail = []
    for q in (2.0, 3.0):
        rems = []
        for D in (10, 100, 1000):
            cart = CartesianState(OscillatorSpec(1.0, D), tuple([0] * D))
            exact = infomeasures.renyi_cartesian(cart, int(q)).value
            asy = asymptotics.highdim_renyi(_ground(1.0, D), q).value
            rems.append(abs(exact - asy) / D)
        ok = ok and all(a > b for a, b in zip(rems, rems[1:]))
        detail.append(f"q={q}: remainder/D {['%.2e' % r for r in rems]}")
    return [0.0 if ok else 1.0], "; ".join(detail)


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


def _relation_pairs(st):
    """Each violated relation as its distance from zero slack."""
    for rep in uncertainty.check_all(st, q=2.0):
        yield 0.0 if rep.satisfied else rep.slack, 0.0


@_check("saturation_census", 0.0)
def check_saturation_census(preset="quick"):
    """Ground state saturates every relation the published discussion claims;
    non-ground saturations follow the closed-form equality conditions."""
    bad = []
    for D, om in ((2, 1.0), (3, 1.0), (3, 2.0), (6, 0.5)):
        g = _ground(om, D)
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
    return [float(len(bad))], "; ".join(bad[:5])


# ---------------------------------------------------------------------------
# known discrepancies between the published text and the numerics


def discrepancy_reports() -> list[CheckResult]:
    out = []
    # 1: Cartesian Gaussian width exponent.  Both sides are the ground-state
    # density at r = 0.7 on the x axis, read from the factor tables; each
    # member is evaluated in its own variable
    om = 2.0
    hyp = HyperState(OscillatorSpec(om, 3), 0, (0, 0))
    cart = CartesianState(OscillatorSpec(om, 3), (0, 0, 0))
    r = 0.7

    def log_parts(state, points):  # (ln J, L) of each member at its point
        return [infomeasures._factor_density(f)[3](x)
                for f, x in zip(infomeasures._factors(state)[1], points)]

    # radial x = w r^2 (dx = 2 w r dr) and a uniform polar angle, over the
    # azimuth's 2 pi and the volume element r^2
    (j_rad, l_rad), (j_ang, l_ang) = log_parts(hyp, (om * r * r, 0.0))
    rho_h = math.exp(j_rad + l_rad + j_ang + l_ang) * 2 * om * r / (2 * math.pi * r * r)
    # each axis t = sqrt(w) x, dt = sqrt(w) dx
    rho_c = math.prod(math.sqrt(om) * math.exp(j + l)
                      for j, l in log_parts(cart, (math.sqrt(om) * r, 0.0, 0.0)))
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
# registry: the identity table and the hand-written checks, in report order


CHECKS = {check.check_id: check for check in (
    Identity("moments_closed_vs_oracle",
             lambda preset: _moment_points(moment_grid(preset), MOMENT_KS),
             lambda st, k: [(moments.radial_moment(st, k),
                             moments.oracle_radial_moment(st, k))],
             _rel, 1e-10, "{n} (state, k) pairs"),
    Identity("moment_3f2_vs_finite_sum", _dual_form_points, _dual_form_pairs,
             _rel_in_rounding_units, DUAL_FORM_RTOL),
    Identity("moment_recurrence_and_reflection", _each(moment_grid),
             _recurrence_reflection_pairs, _rel, 1e-11),
    Identity("heisenberg_k2_exact",
             _each(state_grid, *(HyperState(OscillatorSpec(om, 4), 2, (1, 1, 0))
                                 for om in (0.5, 1.0, 2.0)), _ground(1.0, 4)),
             lambda st: [(moments.heisenberg_product(st, 2.0),
                          (2 * st.n_r + st.l + st.spec.dim / 2.0) ** 2)], _rel, 1e-12),
    Identity("fisher_closed_and_moment_form",
             _each(state_grid, _ground(0.5, 2), _ground(1.0, 3), _ground(2.0, 6)),
             _fisher_pairs, _rel, 1e-12),
    check_shannon_reference_values,
    Identity("shannon_cartesian_vs_oracle", _shannon_cartesian_points,
             _shannon_cartesian_pairs, _abs, 1e-7),
    Identity("shannon_bbm_saturation_and_cross_engine",
             lambda preset: itertools.product((0.5, 1.0, 2.0), (2, 3, 6)), _bbm_pairs,
             _abs, 1e-9),
    Identity("swave_angular_entropy", lambda preset: [(D,) for D in (2, 3, 4, 6, 9)],
             _swave_pairs, _abs, 1e-10),
    Identity("renyi_cartesian_vs_oracle", _renyi_cartesian_points, _renyi_cartesian_pairs,
             _abs, 1e-8),
    Identity("renyi_ground_closed_form",
             lambda preset: itertools.product((2, 3, 5), (0.5, 1.0, 2.0), (1, 3, 6)),
             _renyi_ground_pairs, _abs, 1e-10),
    Identity("disequilibrium_closed_vs_oracle", _each(_diseq_grid), _disequilibrium_pairs,
             _rel, 1e-9,
             "radial sum vs quadrature; radial x Dougall angular sums vs served exp(-R2)"),
    Identity("disequilibrium_d3_3j_vs_dougall_vs_oracle",
             lambda preset: [(HyperState(OscillatorSpec(1.0, 3), 1, (l, m)),)
                             for l in range(0, 4) for m in range(-l, l + 1)],
             _d3_angular_pairs, _rel, 1e-9),
    Identity("renyi_conjugate_bound_and_ground_saturation",
             lambda preset: itertools.product((2.0, 3.0), (1, 2, 3), (0, 1, 2)),
             _conjugate_pairs, _abs, 1e-8),
    check_hermite_entropy,
    Identity("highdim_ground_r2_exact",
             lambda preset: itertools.product((10, 100, 1000, 1600), (0.5, 1.0, 2.0)),
             _highdim_r2_pairs, _rel, 1e-12),
    Identity("uncertainty_all_relations", _each(state_grid), _relation_pairs, _abs, 0.0,
             "{n} relation evaluations"),
    check_saturation_census,
)}

SLOW_CHECKS = {check.check_id: check for check in (
    check_rydberg_moments, check_laguerre_entropy_asymptotics, check_rydberg_norm_ratio,
    check_highdim_renyi_remainder)}


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
